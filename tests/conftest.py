"""Shared fixtures: the paper's running example, small helpers, and the
cross-path differential scoring oracle."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.aggregates import Avg, Sum
from repro.core.influence import InfluenceScorer
from repro.obs.trace import Tracer
from repro.core.problem import ScorpionQuery
from repro.query.groupby import GroupByQuery
from repro.table import ColumnKind, ColumnSpec, Schema, Table

#: Counters that must agree between the batch scorer and a scorer fed
#: the same batch in small chunks.
CHUNK_COUNTERS = ("incremental_deltas", "full_recomputes", "masked_predicates")


def assert_same_floats(actual, expected) -> None:
    """Agreement down to the sign bit: equal values, and equal signs on
    every non-NaN entry, so a -0.0 influence never passes for 0.0."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    np.testing.assert_array_equal(actual, expected)
    defined = ~np.isnan(expected)
    np.testing.assert_array_equal(np.signbit(actual[defined]),
                                  np.signbit(expected[defined]))


def assert_scoring_paths_agree(problem, predicates, *, ignore_holdouts=False,
                               batch_chunk=None, **scorer_kwargs):
    """The differential scoring oracle: every execution path of the
    influence metric must produce bit-for-bit identical influences.

    Influences are compared down to the sign bit
    (:func:`assert_same_floats`).  Paths driven, given one problem and
    one predicate list:

    1. scalar ``score()`` per predicate (the reference semantics);
    2. ``score_batch`` (the mask-matrix kernel);
    3. ``score_batch`` under an active span tracer;
    4. ``score_batch`` in small predicate chunks (``batch_chunk``, else
       8), so every call crosses chunk boundaries.

    Also asserts that the batch scorer sent every unique predicate the
    labeled evaluator supports through the mask kernel, and that the
    chunk leg's kernel counters (:data:`CHUNK_COUNTERS`) equal the
    batch leg's.  Extra keyword arguments construct every scorer (e.g.
    ``use_incremental=False``).  Returns the agreed influence vector.
    """
    predicates = list(predicates)
    chunk_kwargs = {} if batch_chunk is None else {"batch_chunk": batch_chunk}

    scalar_scorer = InfluenceScorer(problem, cache_scores=False,
                                    **scorer_kwargs)
    scalar = np.asarray([
        scalar_scorer.score(p, ignore_holdouts=ignore_holdouts)
        for p in predicates
    ])

    batched = InfluenceScorer(problem, cache_scores=False, **scorer_kwargs,
                              **chunk_kwargs)
    via_batch = batched.score_batch(predicates,
                                    ignore_holdouts=ignore_holdouts)
    assert_same_floats(via_batch, scalar)

    # Tracing leg: an active span tracer must be bit-for-bit invisible
    # to the influences (annotations read counters, never touch the
    # scoring path) while still recording the batch.
    tracer = Tracer().activate()
    try:
        traced_scorer = InfluenceScorer(problem, cache_scores=False,
                                        **scorer_kwargs, **chunk_kwargs)
        via_traced = traced_scorer.score_batch(
            predicates, ignore_holdouts=ignore_holdouts)
    finally:
        tracer.deactivate()
    assert_same_floats(via_traced, scalar)
    if predicates:
        assert any(s["name"] == "score_batch" for s in tracer.export()), \
            "traced batch recorded no score_batch span"

    stats = batched.stats
    scorable = [p for p in dict.fromkeys(predicates)
                if batched.kernel.evaluator.supports_predicate(p)]
    assert stats.masked_predicates == len(scorable)

    # Chunk leg: the same batch in small chunks.  Chunking must change
    # neither a value nor a kernel counter.
    chunked = InfluenceScorer(problem, cache_scores=False,
                              batch_chunk=batch_chunk or 8, **scorer_kwargs)
    via_chunks = chunked.score_batch(predicates,
                                     ignore_holdouts=ignore_holdouts)
    assert_same_floats(via_chunks, scalar)
    for name in CHUNK_COUNTERS:
        assert getattr(chunked.stats, name) == getattr(stats, name), name
    return via_batch


def replace_calls(monkeypatch, owner, name, effect, calls=(1,)) -> None:
    """Make the listed calls of ``owner.name`` (1-based, counted from
    now) run ``effect`` instead: an exception instance is raised, any
    other callable is called and its result returned.  Every other call
    goes through to the original, so a test can make one real call fail
    and watch the code around it recover."""
    original = getattr(owner, name)
    counter = itertools.count(1)

    def replaced(*args, **kwargs):
        if next(counter) not in calls:
            return original(*args, **kwargs)
        if isinstance(effect, BaseException):
            raise effect
        return effect()

    monkeypatch.setattr(owner, name, replaced)


@pytest.fixture
def scoring_oracle():
    """The differential oracle as a fixture (see
    :func:`assert_scoring_paths_agree`)."""
    return assert_scoring_paths_agree

SENSOR_SCHEMA = Schema([
    ColumnSpec("time", ColumnKind.DISCRETE),
    ColumnSpec("sensorid", ColumnKind.DISCRETE),
    ColumnSpec("voltage", ColumnKind.CONTINUOUS),
    ColumnSpec("humidity", ColumnKind.CONTINUOUS),
    ColumnSpec("temp", ColumnKind.CONTINUOUS),
])

# Table 1 of the paper, verbatim.
SENSOR_ROWS = [
    ("11AM", 1, 2.64, 0.4, 34.0),
    ("11AM", 2, 2.65, 0.5, 35.0),
    ("11AM", 3, 2.63, 0.4, 35.0),
    ("12PM", 1, 2.70, 0.3, 35.0),
    ("12PM", 2, 2.70, 0.5, 35.0),
    ("12PM", 3, 2.30, 0.4, 100.0),
    ("1PM", 1, 2.70, 0.3, 35.0),
    ("1PM", 2, 2.70, 0.5, 35.0),
    ("1PM", 3, 2.30, 0.5, 80.0),
]


@pytest.fixture
def sensors_table() -> Table:
    """The paper's Table 1."""
    return Table.from_rows(SENSOR_SCHEMA, SENSOR_ROWS)


@pytest.fixture
def q1(sensors_table) -> GroupByQuery:
    """The paper's Q1: SELECT avg(temp) FROM sensors GROUP BY time."""
    return GroupByQuery("time", Avg(), "temp")


@pytest.fixture
def paper_problem(sensors_table, q1) -> ScorpionQuery:
    """Table 2's annotations: 12PM and 1PM are too-high outliers, 11AM is
    the hold-out."""
    return ScorpionQuery(
        table=sensors_table,
        query=q1,
        outliers=["12PM", "1PM"],
        holdouts=["11AM"],
        error_vectors=+1.0,
        c=1.0,
    )


def planted_sum_table(seed: int = 0, n_per_group: int = 100,
                      n_groups: int = 4) -> tuple[Table, list, list]:
    """A small SUM workload with a planted hot region in groups g0/g1:
    rows with a1 ∈ [40, 60] and state = 'TX' carry value 50 instead of 1.

    Returns (table, outlier_keys, holdout_keys).
    """
    rng = np.random.default_rng(seed)
    n = n_per_group * n_groups
    groups = np.repeat([f"g{i}" for i in range(n_groups)], n_per_group)
    a1 = rng.uniform(0, 100, n)
    state = rng.choice(["CA", "NY", "TX", "WA"], n)
    value = np.ones(n)
    hot = (np.isin(groups, ["g0", "g1"]) & (state == "TX")
           & (a1 >= 40) & (a1 <= 60))
    value[hot] = 50.0
    schema = Schema([
        ColumnSpec("g", ColumnKind.DISCRETE),
        ColumnSpec("a1", ColumnKind.CONTINUOUS),
        ColumnSpec("state", ColumnKind.DISCRETE),
        ColumnSpec("value", ColumnKind.CONTINUOUS),
    ])
    table = Table.from_columns(schema, {
        "g": groups, "a1": a1, "state": state, "value": value,
    })
    return table, ["g0", "g1"], [f"g{i}" for i in range(2, n_groups)]


@pytest.fixture
def sum_problem() -> ScorpionQuery:
    """A planted-subspace SUM problem (anti-monotone, MC-compatible)."""
    table, outliers, holdouts = planted_sum_table()
    return ScorpionQuery(
        table=table,
        query=GroupByQuery("g", Sum(), "value"),
        outliers=outliers,
        holdouts=holdouts,
        error_vectors=+1.0,
        c=0.5,
    )
