"""Seeded end-to-end golden test at the API surface.

``Scorpion.explain`` funnels every candidate predicate through the
influence scorer, so drift anywhere in the scoring stack — mask kernel
or parallel shards — would surface here as a different explanation.
On a fixed synthetic dataset, the default run and the ``workers=2`` run
(CLI ``--workers 2``) must return identical top predicates and
influences.
"""

import numpy as np
import pytest

from repro.aggregates import Sum
from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion
from repro.query.groupby import GroupByQuery
from repro.table import ColumnKind, ColumnSpec, Schema, Table


def golden_problem(seed: int = 11) -> ScorpionQuery:
    """A planted SUM workload with one continuous and one discrete
    explanation attribute, so the search emits single ranges, single
    set clauses, and 2-clause conjunctions."""
    rng = np.random.default_rng(seed)
    n_per_group, groups = 120, ["g0", "g1", "g2", "g3"]
    n = n_per_group * len(groups)
    g = np.repeat(groups, n_per_group)
    a1 = rng.uniform(0, 100, n)
    state = rng.choice(["CA", "NY", "TX", "WA"], n)
    value = np.ones(n)
    hot = (np.isin(g, ["g0", "g1"]) & (state == "TX")
           & (a1 >= 40) & (a1 <= 60))
    value[hot] = 40.0
    schema = Schema([
        ColumnSpec("g", ColumnKind.DISCRETE),
        ColumnSpec("a1", ColumnKind.CONTINUOUS),
        ColumnSpec("state", ColumnKind.DISCRETE),
        ColumnSpec("value", ColumnKind.CONTINUOUS),
    ])
    table = Table.from_columns(schema, {
        "g": g, "a1": a1, "state": state, "value": value,
    })
    return ScorpionQuery(table, GroupByQuery("g", Sum(), "value"),
                         outliers=["g0", "g1"], holdouts=["g2", "g3"],
                         error_vectors=+1.0, c=0.5)


def explanation_signature(result):
    return [(e.predicate, e.influence) for e in result.explanations]


@pytest.mark.parametrize("algorithm", ["dt", "mc"])
def test_explain_identical_across_scoring_paths(algorithm):
    problem = golden_problem()
    default = Scorpion(algorithm=algorithm, use_cache=False,
                       batch_chunk=32).explain(problem)
    parallel = Scorpion(algorithm=algorithm, use_cache=False,
                        batch_chunk=32, workers=2).explain(problem)

    assert explanation_signature(default) == explanation_signature(parallel)
    # The parallel run scored exactly the serial run's predicates.
    for name in ("masked_predicates", "mask_scores", "incremental_deltas"):
        assert parallel.scorer_stats[name] == default.scorer_stats[name], name
