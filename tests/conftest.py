"""Shared fixtures: the paper's running example, small helpers, and the
cross-path differential scoring oracle."""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.aggregates import Avg, Sum
from repro.core.influence import InfluenceScorer
from repro.obs.trace import Tracer
from repro.parallel import executor
from repro.core.problem import ScorpionQuery
from repro.query.groupby import GroupByQuery
from repro.table import ColumnKind, ColumnSpec, Schema, Table

#: Counters that must agree between the serial batch scorer and a
#: parallel scorer fed the same batch (worker-side kernel counters merge
#: back into the parent's).
POOL_COUNTERS = ("incremental_deltas", "full_recomputes", "masked_predicates")


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
                               workers=None, batch_chunk=None,
                               expect_pool=False, **scorer_kwargs):
    """The differential scoring oracle: every execution path of the
    influence metric must produce bit-for-bit identical influences.

    Influences are compared down to the sign bit
    (:func:`assert_same_floats`).  Paths driven, given one problem and
    one predicate list:

    1. scalar ``score()`` per predicate (the reference semantics);
    2. ``score_batch`` (the mask-matrix kernel);
    3. ``score_batch`` under an active span tracer;
    4. when ``workers`` is given: ``score_batch`` with ``workers``
       processes two ways — the whole batch in one chunk with the
       pool's dispatch cost zeroed (so the automatic split must cut it
       into shards), and small predicate chunks.

    Also asserts that the batch scorer sent every unique predicate the
    labeled evaluator supports through the mask kernel, and that every
    parallel leg's kernel counters (:data:`POOL_COUNTERS`) equal the
    serial batch run's.  ``expect_pool`` additionally requires that the
    parallel legs actually dispatched shards to worker processes (at
    least two for the one-chunk leg).  Extra keyword arguments
    construct every scorer (e.g. ``use_incremental=False``).  Returns
    the agreed influence vector.
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

    if workers is not None and workers > 1:
        # Leg 0: the whole batch in one chunk, so only the automatic
        # predicate split can feed the pool.  Leg 1: small chunks.
        for leg, chunk in enumerate((max(len(predicates), 1),
                                     batch_chunk or 8)):
            parallel_scorer = InfluenceScorer(problem, cache_scores=False,
                                              workers=workers,
                                              batch_chunk=chunk,
                                              **scorer_kwargs)
            dispatch_ns = executor.DISPATCH_NS
            if leg == 0:
                executor.DISPATCH_NS = 0.0  # the split's gate always passes
            try:
                via_parallel = parallel_scorer.score_batch(
                    predicates, ignore_holdouts=ignore_holdouts)
            finally:
                executor.DISPATCH_NS = dispatch_ns
                parallel_scorer.close()
            assert_same_floats(via_parallel, scalar)
            for name in POOL_COUNTERS:
                assert getattr(parallel_scorer.stats, name) == \
                    getattr(stats, name), (name, leg)
            if expect_pool:
                assert parallel_scorer.stats.parallel_shards >= \
                    (2 if leg == 0 else 1), \
                    f"pool was never used (leg {leg})"
    return via_batch


def assert_no_live_workers(baseline=frozenset(),
                           timeout: float = 5.0) -> None:
    """No worker process outlives its pool: polls
    ``multiprocessing.active_children()`` (which also reaps exited
    children) until it holds nothing beyond ``baseline`` — the children
    alive before the test started — failing after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        alive = set(multiprocessing.active_children()) - set(baseline)
        if not alive:
            return
        if time.monotonic() > deadline:
            raise AssertionError(
                f"worker processes outlived close(): {sorted(map(str, alive))}")
        time.sleep(0.02)


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
