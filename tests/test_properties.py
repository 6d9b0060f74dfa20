"""Cross-module property-based tests (hypothesis).

These check the invariants that hold the system together regardless of
data: influence consistency across evaluation paths, predicate-algebra /
evaluation agreement, DT partition disjointness, and metric bounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import Avg, StdDev, Sum
from repro.core.dt import DTPartitioner
from repro.core.influence import InfluenceScorer
from repro.core.problem import ScorpionQuery
from repro.eval.metrics import confusion_counts
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate
from repro.query.groupby import GroupByQuery
from repro.table import ColumnKind, ColumnSpec, Schema, Table

SCHEMA = Schema([
    ColumnSpec("g", ColumnKind.DISCRETE),
    ColumnSpec("x", ColumnKind.CONTINUOUS),
    ColumnSpec("s", ColumnKind.DISCRETE),
    ColumnSpec("v", ColumnKind.CONTINUOUS),
])


def random_problem(seed: int, aggregate, c: float, lam: float = 0.5,
                   n_per_group: int = 40) -> ScorpionQuery:
    rng = np.random.default_rng(seed)
    n_groups = 4
    n = n_groups * n_per_group
    table = Table.from_columns(SCHEMA, {
        "g": np.repeat([f"g{i}" for i in range(n_groups)], n_per_group),
        "x": rng.uniform(0, 100, n),
        "s": rng.choice(["a", "b", "c"], n),
        "v": rng.uniform(0.5, 20.0, n),
    })
    return ScorpionQuery(
        table, GroupByQuery("g", aggregate, "v"),
        outliers=["g0", "g1"], holdouts=["g2", "g3"],
        error_vectors=+1.0, lam=lam, c=c)


predicates = st.builds(
    lambda lo, width, values: Predicate(
        ([RangeClause("x", lo, lo + width)] if width > 0 else [])
        + ([SetClause("s", values)] if values else [])
    ) if (width > 0 or values) else Predicate([RangeClause("x", lo, lo + 1)]),
    st.floats(min_value=0, max_value=90, allow_nan=False),
    st.floats(min_value=0, max_value=60, allow_nan=False),
    st.sets(st.sampled_from("abc"), max_size=3),
)


class TestInfluenceConsistency:
    @settings(max_examples=40, deadline=None)
    @given(predicate=predicates, seed=st.integers(0, 20),
           c=st.sampled_from([0.0, 0.5, 1.0]))
    @pytest.mark.parametrize("aggregate", [Sum(), Avg(), StdDev()])
    def test_incremental_equals_recompute(self, aggregate, predicate, seed, c):
        problem = random_problem(seed, aggregate, c)
        fast = InfluenceScorer(problem, use_incremental=True, cache_scores=False)
        slow = InfluenceScorer(problem, use_incremental=False, cache_scores=False)
        assert fast.score(predicate) == pytest.approx(
            slow.score(predicate), rel=1e-8, abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(predicate=predicates, seed=st.integers(0, 20))
    def test_score_equals_score_mask(self, predicate, seed):
        problem = random_problem(seed, Avg(), 0.5)
        scorer = InfluenceScorer(problem, cache_scores=False)
        via_mask = scorer.score_mask(predicate.mask(problem.table))
        assert scorer.score(predicate) == pytest.approx(via_mask, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(predicate=predicates, seed=st.integers(0, 10))
    def test_refinement_bound_dominates(self, predicate, seed):
        problem = random_problem(seed, Sum(), 0.5)
        scorer = InfluenceScorer(problem, cache_scores=False)
        outlier_only = scorer.outlier_only_score(predicate)
        bound = scorer.refinement_bound(predicate)
        if np.isfinite(outlier_only) and outlier_only > 0:
            assert bound >= outlier_only - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(predicate=predicates, seed=st.integers(0, 10))
    def test_holdouts_never_raise_score(self, predicate, seed):
        problem = random_problem(seed, Avg(), 0.5)
        scorer = InfluenceScorer(problem, cache_scores=False)
        full = scorer.score(predicate)
        without = scorer.outlier_only_score(predicate)
        if np.isfinite(full) and np.isfinite(without):
            assert full <= without + 1e-12


class TestSimplifyInvariance:
    @settings(max_examples=40, deadline=None)
    @given(predicate=predicates, seed=st.integers(0, 10))
    def test_simplified_matches_same_rows(self, predicate, seed):
        problem = random_problem(seed, Avg(), 0.5)
        simplified = problem.domain.simplify(predicate)
        np.testing.assert_array_equal(
            simplified.mask(problem.table), predicate.mask(problem.table))


class TestDTPartitionInvariants:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_outlier_partitions_tile_each_group(self, seed):
        problem = random_problem(seed, Avg(), 0.5, n_per_group=60)
        scorer = InfluenceScorer(problem)
        dt = DTPartitioner(seed=0, min_leaf_size=8)
        dt._query = problem
        dt._scorer = scorer
        dt._rng = np.random.default_rng(0)
        groups = [dt._prepare_group(scorer, ctx)
                  for ctx in scorer.outlier_contexts]
        partitions = dt._partition(groups)
        # Leaves hold pooled ids: row r of group g is offset_g + r.
        covered = np.concatenate([partition.rows for partition in partitions])
        assert sorted(covered.tolist()) == list(range(sum(g.size for g in groups)))


class TestMetricBounds:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_precision_recall_within_unit_interval(self, data):
        n = data.draw(st.integers(min_value=1, max_value=50))
        selected = np.asarray(data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n)))
        truth = np.asarray(data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n)))
        stats = confusion_counts(selected, truth)
        assert 0.0 <= stats.precision <= 1.0
        assert 0.0 <= stats.recall <= 1.0
        assert 0.0 <= stats.f_score <= 1.0 + 1e-12
        if stats.precision and stats.recall:
            # Harmonic mean lies between min and max (float-rounding slack).
            assert stats.f_score <= max(stats.precision, stats.recall) + 1e-12
            assert stats.f_score >= min(stats.precision, stats.recall) - 1e-12
