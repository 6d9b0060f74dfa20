"""Single-range predicates through the differential oracle.

A single-clause range predicate scores identically — exact float
equality, down to the sign bit — through the batch mask-matrix kernel
and scalar ``score()``.  These tests drive the oracle over random
ranges, including empty ranges, whole-group deletion, NaN-bearing
attribute columns, duplicate values sitting exactly on clause
boundaries, integer-valued states (exactly summable in any order) and
general float states.  They also pin the batch API's surface: the
``batch_chunk`` knob, memo-cache coherence and the scorer counters a
result carries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import Avg, Count, StdDev, Sum
from repro.core.influence import INVALID_INFLUENCE, InfluenceScorer
from repro.core.naive import NaivePartitioner
from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion
from repro.errors import PredicateError
from repro.eval.runner import RunRecord
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate
from repro.query.groupby import GroupByQuery
from repro.table import ColumnKind, ColumnSpec, Schema, Table

from tests.conftest import assert_scoring_paths_agree

SCHEMA = Schema([
    ColumnSpec("g", ColumnKind.DISCRETE),
    ColumnSpec("a1", ColumnKind.CONTINUOUS),
    ColumnSpec("a2", ColumnKind.CONTINUOUS),
    ColumnSpec("v", ColumnKind.CONTINUOUS),
])

#: a1 is drawn from this small grid so duplicate values land exactly on
#: clause boundaries all the time.
A1_GRID = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]


def build_problem(aggregate, *, integer_values: bool = False,
                  nan_rate: float = 0.0, rows_per_group: int = 40,
                  perturbation: str = "delete", c: float = 0.5,
                  seed: int = 0) -> ScorpionQuery:
    rng = np.random.default_rng(seed)
    rows = []
    for group, shift in (("o1", 4.0), ("o2", 2.0), ("h1", 0.0)):
        for _ in range(rows_per_group):
            a1 = float(rng.choice(A1_GRID))
            a2 = float(rng.uniform(0.0, 10.0))
            if nan_rate and rng.random() < nan_rate:
                a2 = float("nan")
            if integer_values:
                value = float(rng.integers(0, 50)) + shift
            else:
                value = float(rng.normal(10.0, 3.0)) + shift * a1
            rows.append((group, a1, a2, value))
    table = Table.from_rows(SCHEMA, rows)
    query = GroupByQuery("g", aggregate, "v")
    return ScorpionQuery(table, query, outliers=["o1", "o2"],
                         holdouts=["h1"], error_vectors=+1.0, c=c,
                         perturbation=perturbation)


@st.composite
def range_predicates(draw) -> Predicate:
    """Single-clause ranges over a1/a2 with boundaries that frequently
    coincide with duplicated data values; occasionally empty (lo == hi,
    closed, off-grid) or whole-domain (covering every a1 value)."""
    attribute = draw(st.sampled_from(["a1", "a2"]))
    lo = draw(st.one_of(st.sampled_from(A1_GRID),
                        st.floats(-1.0, 9.0, allow_nan=False)))
    width = draw(st.one_of(st.just(0.0), st.sampled_from([1.0, 2.0, 9.0]),
                           st.floats(0.0, 5.0, allow_nan=False)))
    hi = lo + width
    # A degenerate range (including widths that underflow into lo) must
    # be closed to be constructible.
    include_hi = draw(st.booleans()) or hi == lo
    return Predicate([RangeClause(attribute, lo, hi, include_hi)])


def assert_three_paths_equal(problem: ScorpionQuery,
                             predicates: list[Predicate],
                             ignore_holdouts: bool = False) -> np.ndarray:
    """Drive the shared differential oracle (scalar / mask kernel /
    traced)."""
    return assert_scoring_paths_agree(problem, predicates,
                                      ignore_holdouts=ignore_holdouts)


class TestThreePathEquivalence:
    """The oracle over random single ranges, per aggregate and knob:
    the ``gather_tier`` cases carry general float states,
    ``test_prefix_tier_sum`` integer ones."""

    @settings(max_examples=25, deadline=None)
    @given(predicates=st.lists(range_predicates(), max_size=10))
    def test_gather_tier_avg(self, predicates):
        assert_three_paths_equal(build_problem(Avg()), predicates)

    @settings(max_examples=25, deadline=None)
    @given(predicates=st.lists(range_predicates(), max_size=10))
    def test_gather_tier_stddev(self, predicates):
        assert_three_paths_equal(build_problem(StdDev()), predicates)

    @settings(max_examples=25, deadline=None)
    @given(predicates=st.lists(range_predicates(), max_size=10))
    def test_prefix_tier_sum(self, predicates):
        assert_three_paths_equal(
            build_problem(Sum(), integer_values=True), predicates)

    @settings(max_examples=15, deadline=None)
    @given(predicates=st.lists(range_predicates(), max_size=8))
    def test_count_single_component_states(self, predicates):
        assert_three_paths_equal(build_problem(Count()), predicates)

    @settings(max_examples=15, deadline=None)
    @given(predicates=st.lists(range_predicates(), max_size=8))
    def test_mean_perturbation(self, predicates):
        assert_three_paths_equal(
            build_problem(Avg(), perturbation="mean"), predicates)

    @settings(max_examples=15, deadline=None)
    @given(predicates=st.lists(range_predicates(), max_size=8))
    def test_ignore_holdouts(self, predicates):
        assert_three_paths_equal(build_problem(Avg()), predicates,
                                 ignore_holdouts=True)

    @settings(max_examples=15, deadline=None)
    @given(predicates=st.lists(range_predicates(), max_size=8),
           c=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    def test_fractional_c(self, predicates, c):
        assert_three_paths_equal(build_problem(Avg(), c=c), predicates)

    @settings(max_examples=15, deadline=None)
    @given(predicates=st.lists(range_predicates(), max_size=8))
    def test_nan_bearing_column(self, predicates):
        assert_three_paths_equal(
            build_problem(Avg(), nan_rate=0.2), predicates)


class TestEdgeCases:
    def test_empty_range_scores_zero(self):
        nothing = Predicate([RangeClause("a1", 8.25, 8.5)])
        values = assert_three_paths_equal(build_problem(Avg()), [nothing])
        assert values[0] == 0.0

    def test_whole_group_deletion_is_invalid(self):
        everything = Predicate([RangeClause("a1", -10.0, 100.0)])
        values = assert_three_paths_equal(build_problem(Avg()), [everything])
        assert values[0] == INVALID_INFLUENCE

    def test_whole_group_deletion_sum_has_empty_value(self):
        everything = Predicate([RangeClause("a1", -10.0, 100.0)])
        values = assert_three_paths_equal(
            build_problem(Sum(), integer_values=True), [everything])
        assert np.isfinite(values[0])

    def test_nan_rows_never_match(self):
        problem = build_problem(Avg(), nan_rate=1.0)
        any_a2 = Predicate([RangeClause("a2", -1e9, 1e9)])
        values = assert_three_paths_equal(problem, [any_a2])
        assert values[0] == 0.0

    def test_duplicate_boundary_open_vs_closed(self):
        problem = build_problem(Avg())
        closed = Predicate([RangeClause("a1", 2.0, 4.0, include_hi=True)])
        open_top = Predicate([RangeClause("a1", 2.0, 4.0, include_hi=False)])
        values = assert_three_paths_equal(problem, [closed, open_top])
        assert values[0] != values[1]  # the duplicated boundary value matters


class TestRoutingAndPlanner:
    """Which path a batch predicate takes, and the memo cache the two
    paths share."""

    def test_mixed_batch_routes_by_shape(self):
        problem = build_problem(Avg())
        scorer = InfluenceScorer(problem, cache_scores=False)
        batch = [
            Predicate([RangeClause("a1", 1.0, 3.0)]),
            Predicate([RangeClause("a2", 1.0, 3.0)]),
            Predicate([RangeClause("a1", 1.0, 3.0),
                       RangeClause("a2", 0.0, 5.0)]),
            Predicate.true(),
            Predicate([SetClause("g", ["o1"])]),                   # scalar
        ]
        reference = InfluenceScorer(problem, cache_scores=False)
        np.testing.assert_array_equal(
            scorer.score_batch(batch),
            [reference.score(predicate) for predicate in batch])
        # Every predicate over labeled attributes takes the mask kernel;
        # the group-by clause is outside the labeled evaluator → scalar
        # fallback.
        assert scorer.stats.masked_predicates == 4
        assert scorer.stats.mask_scores == 5

    def test_cache_coherent_across_paths(self):
        scorer = InfluenceScorer(build_problem(Avg()))
        predicate = Predicate([RangeClause("a1", 1.0, 4.0)])
        batched = scorer.score_batch([predicate])[0]
        before = scorer.stats.cache_hits
        assert scorer.score(predicate) == batched
        assert scorer.stats.cache_hits == before + 1


class TestBatchChunkKnob:
    def test_constructor_argument(self):
        scorer = InfluenceScorer(build_problem(Avg()), batch_chunk=16)
        assert scorer.batch_chunk == 16

    def test_builtin_default(self):
        scorer = InfluenceScorer(build_problem(Avg()))
        assert scorer.batch_chunk == InfluenceScorer.BATCH_CHUNK

    def test_rejects_nonpositive(self):
        with pytest.raises(PredicateError):
            InfluenceScorer(build_problem(Avg()), batch_chunk=0)

    def test_chunked_index_path_matches(self):
        problem = build_problem(Avg())
        predicates = [Predicate([RangeClause("a1", 0.0, 1.0 + 0.5 * i)])
                      for i in range(23)]
        small = InfluenceScorer(problem, cache_scores=False, batch_chunk=4)
        large = InfluenceScorer(problem, cache_scores=False)
        np.testing.assert_array_equal(small.score_batch(predicates),
                                      large.score_batch(predicates))
        assert small.stats.masked_predicates == len(predicates)


class TestEndToEndSurface:
    def test_scorpion_result_carries_routing_counters(self):
        problem = build_problem(Sum(), integer_values=True)
        partitioner = NaivePartitioner(time_budget=None, max_evaluations=80,
                                       max_clauses=1)
        scorpion = Scorpion(partitioner=partitioner, use_cache=False)
        result = scorpion.explain(problem)
        # NAIVE scores its 80 single-clause predicates through the batch
        # API; the final explanations' scalar scores are cache hits.
        assert result.scorer_stats["masked_predicates"] == 80
        assert result.scorer_stats["mask_scores"] == 80

    def test_run_record_routing_properties(self):
        record = RunRecord(algorithm="naive", c=0.5, predicate=None,
                           influence=0.0, runtime=0.0,
                           scorer_stats={"masked_predicates": 3})
        assert record.masked_predicates == 3
        empty = RunRecord(algorithm="naive", c=0.5, predicate=None,
                          influence=0.0, runtime=0.0)
        assert empty.masked_predicates == 0
