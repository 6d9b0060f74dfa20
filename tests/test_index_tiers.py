"""Property tests for the discrete-bucket and 2-clause-conjunction
index tiers, driven through the shared differential oracle
(:func:`tests.conftest.assert_scoring_paths_agree`).

Coverage targets the tier-specific hazards: random discrete
cardinalities, set clauses naming values the table never takes (empty
buckets — globally or only in some groups), NaN-bearing continuous
columns on the conjunction's other side, degenerate one-row groups, and
conjunctions where either clause is the rarer (probe) side.  Plus the
planner's clean fallback when a conjunction references an attribute
with no prepared index view (the satellite bug-fix regression).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import Avg, StdDev, Sum
from repro.core.influence import InfluenceScorer
from repro.core.problem import ScorpionQuery
from repro.errors import PredicateError
from repro.index import (
    ConjunctionPlan,
    GroupDiscreteIndex,
    IndexPlanner,
    PrefixAggregateIndex,
    force_index_model,
)
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate
from repro.query.groupby import GroupByQuery
from repro.table import ColumnKind, ColumnSpec, Schema, Table

from tests.conftest import assert_scoring_paths_agree

SCHEMA = Schema([
    ColumnSpec("g", ColumnKind.DISCRETE),
    ColumnSpec("a1", ColumnKind.CONTINUOUS),
    ColumnSpec("a2", ColumnKind.CONTINUOUS),
    ColumnSpec("ac", ColumnKind.DISCRETE),
    ColumnSpec("ad", ColumnKind.DISCRETE),
    ColumnSpec("v", ColumnKind.CONTINUOUS),
])

#: a1 is drawn from a small grid so clause boundaries coincide with
#: duplicated data values; ``ac`` values come from this pool (per-group
#: subsets leave some buckets empty in some groups), ``ad`` is binary.
A1_GRID = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
AC_POOL = [f"c{i}" for i in range(12)]
AD_POOL = ["x", "y"]
#: Clause values beyond the pool — never present, so their buckets are
#: empty in every group.
AC_ABSENT = ["zz", "missing"]


def build_problem(aggregate, *, cardinality: int = 6,
                  integer_values: bool = False, nan_rate: float = 0.0,
                  rows_per_group: int = 30, one_row_group: bool = False,
                  perturbation: str = "delete", c: float = 0.5,
                  seed: int = 0) -> ScorpionQuery:
    rng = np.random.default_rng(seed)
    rows = []
    sizes = {"o1": rows_per_group,
             "o2": 1 if one_row_group else rows_per_group,
             "h1": rows_per_group}
    for gi, (group, shift) in enumerate((("o1", 4.0), ("o2", 2.0),
                                         ("h1", 0.0))):
        # Each group draws from a rotated slice of the code pool, so
        # some codes exist globally but have empty buckets per group.
        pool = [AC_POOL[(gi * 2 + j) % len(AC_POOL)]
                for j in range(max(cardinality, 1))]
        for _ in range(sizes[group]):
            a1 = float(rng.choice(A1_GRID))
            a2 = float(rng.uniform(0.0, 10.0))
            if nan_rate and rng.random() < nan_rate:
                a2 = float("nan")
            ac = str(rng.choice(pool))
            ad = str(rng.choice(AD_POOL))
            if integer_values:
                value = float(rng.integers(0, 50)) + shift
            else:
                value = float(rng.normal(10.0, 3.0)) + shift * a1
            rows.append((group, a1, a2, ac, ad, value))
    table = Table.from_rows(SCHEMA, rows)
    query = GroupByQuery("g", aggregate, "v")
    return ScorpionQuery(table, query, outliers=["o1", "o2"],
                         holdouts=["h1"], error_vectors=+1.0, c=c,
                         perturbation=perturbation)


@st.composite
def set_predicates(draw) -> Predicate:
    """Single set clauses over ``ac``/``ad``, mixing present, per-group
    -absent, and globally absent values."""
    attribute = draw(st.sampled_from(["ac", "ad"]))
    pool = AC_POOL + AC_ABSENT if attribute == "ac" else AD_POOL + ["w"]
    values = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=4))
    return Predicate([SetClause(attribute, sorted(values))])


@st.composite
def range_clauses(draw, attribute=None) -> RangeClause:
    attribute = attribute or draw(st.sampled_from(["a1", "a2"]))
    lo = draw(st.one_of(st.sampled_from(A1_GRID),
                        st.floats(-1.0, 9.0, allow_nan=False)))
    width = draw(st.one_of(st.just(0.0), st.sampled_from([0.5, 2.0, 9.0]),
                           st.floats(0.0, 6.0, allow_nan=False)))
    hi = lo + width
    include_hi = draw(st.booleans()) or hi == lo
    return RangeClause(attribute, lo, hi, include_hi)


@st.composite
def conjunction_predicates(draw) -> Predicate:
    """2-clause conjunctions across every kind pairing — range×range,
    range×set, set×set — with selectivities varied enough that either
    clause ends up the rarer (probe) side."""
    kind = draw(st.sampled_from(["rr", "rs", "ss"]))
    if kind == "rr":
        return Predicate([draw(range_clauses(attribute="a1")),
                          draw(range_clauses(attribute="a2"))])
    if kind == "rs":
        set_clause = draw(set_predicates()).clauses[0]
        return Predicate([draw(range_clauses(attribute="a1"
                                             if set_clause.attribute != "a1"
                                             else "a2")),
                          set_clause])
    ac = draw(st.sets(st.sampled_from(AC_POOL + AC_ABSENT), min_size=1,
                      max_size=4))
    ad = draw(st.sets(st.sampled_from(AD_POOL + ["w"]), min_size=1,
                      max_size=2))
    return Predicate([SetClause("ac", sorted(ac)),
                      SetClause("ad", sorted(ad))])


class TestDiscreteBucketTier:
    @settings(max_examples=25, deadline=None)
    @given(predicates=st.lists(set_predicates(), max_size=10))
    def test_gather_tier_avg(self, predicates):
        assert_scoring_paths_agree(build_problem(Avg()), predicates)

    @settings(max_examples=25, deadline=None)
    @given(predicates=st.lists(set_predicates(), max_size=10))
    def test_bucket_tier_integer_sum(self, predicates):
        assert_scoring_paths_agree(
            build_problem(Sum(), integer_values=True), predicates)

    @settings(max_examples=15, deadline=None)
    @given(predicates=st.lists(set_predicates(), max_size=8),
           cardinality=st.integers(1, 12))
    def test_random_cardinalities(self, predicates, cardinality):
        assert_scoring_paths_agree(
            build_problem(Avg(), cardinality=cardinality), predicates)

    @settings(max_examples=15, deadline=None)
    @given(predicates=st.lists(set_predicates(), max_size=8))
    def test_one_row_group(self, predicates):
        assert_scoring_paths_agree(
            build_problem(Avg(), one_row_group=True), predicates)

    @settings(max_examples=15, deadline=None)
    @given(predicates=st.lists(set_predicates(), max_size=8))
    def test_stddev_states(self, predicates):
        assert_scoring_paths_agree(build_problem(StdDev()), predicates)

    def test_globally_empty_buckets_score_zero(self):
        nothing = Predicate([SetClause("ac", AC_ABSENT)])
        values = assert_scoring_paths_agree(build_problem(Avg()), [nothing])
        assert values[0] == 0.0

    def test_set_tier_routes_and_counts(self):
        scorer = InfluenceScorer(build_problem(Sum(), integer_values=True),
                                 cache_scores=False)
        scorer.score_batch([Predicate([SetClause("ac", [AC_POOL[0]])]),
                            Predicate([SetClause("ad", ["x", "y"])])])
        assert scorer.stats.indexed_sets == 2
        assert scorer.stats.indexed_predicates == 2
        assert scorer.stats.masked_predicates == 0
        index = scorer.planner.index
        assert index.bucket_tier_groups("ac") == 3  # exact bucket tier

    def test_gather_tier_for_float_states(self):
        scorer = InfluenceScorer(build_problem(Avg()), cache_scores=False)
        scorer.prepare_index(["ac"])
        assert scorer.planner.index.bucket_tier_groups("ac") == 0


class TestConjunctionTier:
    @settings(max_examples=25, deadline=None)
    @given(predicates=st.lists(conjunction_predicates(), max_size=8))
    def test_all_pairings_avg(self, predicates):
        assert_scoring_paths_agree(build_problem(Avg()), predicates)

    @settings(max_examples=20, deadline=None)
    @given(predicates=st.lists(conjunction_predicates(), max_size=8))
    def test_all_pairings_integer_sum(self, predicates):
        assert_scoring_paths_agree(
            build_problem(Sum(), integer_values=True), predicates)

    @settings(max_examples=15, deadline=None)
    @given(predicates=st.lists(conjunction_predicates(), max_size=6))
    def test_nan_bearing_other_side(self, predicates):
        assert_scoring_paths_agree(
            build_problem(Avg(), nan_rate=0.3), predicates)

    @settings(max_examples=15, deadline=None)
    @given(predicates=st.lists(conjunction_predicates(), max_size=6))
    def test_one_row_group(self, predicates):
        assert_scoring_paths_agree(
            build_problem(Avg(), one_row_group=True), predicates)

    @settings(max_examples=15, deadline=None)
    @given(predicates=st.lists(conjunction_predicates(), max_size=6))
    def test_ignore_holdouts(self, predicates):
        assert_scoring_paths_agree(build_problem(Avg()), predicates,
                                   ignore_holdouts=True)

    @pytest.mark.parametrize("narrow_side", ["range", "set"])
    def test_either_side_probes(self, narrow_side):
        """The planner must pick whichever clause matches fewer rows;
        both orientations must score identically to scalar."""
        problem = build_problem(Avg(), cardinality=12, seed=3)
        if narrow_side == "range":
            predicate = Predicate([RangeClause("a1", 2.0, 2.0),
                                   SetClause("ac", AC_POOL)])
        else:
            predicate = Predicate([RangeClause("a1", -10.0, 100.0),
                                   SetClause("ac", [AC_POOL[0]])])
        # force_index_model pins the plan-vs-mask choice: on a fixture
        # this small the real cost model may price the probe out.
        scorer = InfluenceScorer(problem, cache_scores=False,
                                 cost_model=force_index_model())
        plan = scorer.planner.plan_conjunction(predicate)
        assert plan is not None
        if narrow_side == "range":
            assert isinstance(plan.probe, RangeClause)
        else:
            assert isinstance(plan.probe, SetClause)
        assert_scoring_paths_agree(problem, [predicate])

    def test_unselective_conjunction_prefers_mask_kernel(self):
        """When even the rarer clause covers most of the labeled rows,
        probing cannot beat the mask kernel's amortized batch scan — the
        planner must fall back (and still score identically)."""
        problem = build_problem(Avg())
        predicate = Predicate([RangeClause("a1", -10.0, 100.0),
                               SetClause("ac", AC_POOL)])
        scorer = InfluenceScorer(problem, cache_scores=False)
        assert scorer.planner.plan_conjunction(predicate) is None
        values = scorer.score_batch([predicate])
        assert scorer.stats.conjunction_fallbacks == 1
        assert scorer.stats.masked_predicates == 1
        np.testing.assert_array_equal(
            values, assert_scoring_paths_agree(problem, [predicate]))

    def test_probe_estimate_is_exact(self):
        problem = build_problem(Avg(), seed=5)
        scorer = InfluenceScorer(problem, cache_scores=False)
        clause = RangeClause("a1", 1.0, 4.0)
        estimate = scorer.planner.index.estimate_clause_count(clause)
        a1 = np.concatenate([
            problem.table.values("a1")[r.indices]
            for r in problem.outlier_results + problem.holdout_results
        ])
        assert estimate == int(np.count_nonzero(clause.mask_values(a1)))


class TestWorkersTwo:
    """The acceptance bar: every tier bit-for-bit equal to scalar under
    the oracle at workers ∈ {1, 2} (serial legs run in every oracle
    call; these add the pooled leg)."""

    def test_mixed_tiers_parallel(self):
        batch = (
            [Predicate([RangeClause("a1", float(i), float(i + 3))])
             for i in range(8)]
            + [Predicate([SetClause("ac", [AC_POOL[i], "zz"])])
               for i in range(4)]
            + [Predicate([RangeClause("a1", float(i), float(i + 4)),
                          SetClause("ac", AC_POOL[i:i + 3])])
               for i in range(6)]
            + [Predicate.true()]
        )
        assert_scoring_paths_agree(build_problem(Avg()), batch,
                                   workers=2, batch_chunk=4,
                                   expect_pool=True)

    def test_bucket_tier_parallel_integer_sum(self):
        batch = [Predicate([SetClause("ac", AC_POOL[i:i + 2])])
                 for i in range(10)]
        assert_scoring_paths_agree(
            build_problem(Sum(), integer_values=True), batch,
            workers=2, batch_chunk=4, expect_pool=True)


class TestPlannerFallback:
    """Satellite regression: a conjunction referencing an attribute
    with no prepared index view must fall back to the mask kernel with
    a recorded counter — never crash."""

    def conjunction(self) -> Predicate:
        return Predicate([RangeClause("a1", 1.0, 5.0),
                          SetClause("ac", [AC_POOL[0], AC_POOL[1]])])

    def test_planner_without_codes_falls_back(self):
        problem = build_problem(Avg())
        scorer = InfluenceScorer(problem, cache_scores=False)
        index = scorer.planner.index
        # An index built without discrete codes (e.g. a caller wiring
        # PrefixAggregateIndex directly): the set side has no view.
        sparse = PrefixAggregateIndex(
            {attr: index._values[attr] for attr in index._values},
            index.group_slices,
            index._states,
        )
        planner = IndexPlanner(sparse)
        assert planner.plan_conjunction(self.conjunction()) is None
        route = planner.partition([self.conjunction()])
        assert route.masked == [self.conjunction()]
        assert route.conjunction_fallbacks == 1
        assert route.indexed_total == 0

    def test_scorer_falls_back_and_still_scores(self):
        problem = build_problem(Avg())
        reference = assert_scoring_paths_agree(problem, [self.conjunction()])
        scorer = InfluenceScorer(problem, cache_scores=False)
        # Strip one attribute's raw arrays out of the live index — the
        # regression shape: planner must route around the missing view.
        scorer.planner.index._codes.pop("ac")
        values = scorer.score_batch([self.conjunction()])
        np.testing.assert_array_equal(values, reference)
        assert scorer.stats.conjunction_fallbacks == 1
        assert scorer.stats.masked_predicates == 1
        assert scorer.stats.indexed_conjunctions == 0

    def test_set_clause_without_codes_falls_back(self):
        problem = build_problem(Avg())
        scorer = InfluenceScorer(problem, cache_scores=False)
        scorer.planner.index._codes.pop("ac")
        predicate = Predicate([SetClause("ac", [AC_POOL[0]])])
        expected = InfluenceScorer(problem, cache_scores=False,
                                   use_index=False).score(predicate)
        assert scorer.score_batch([predicate])[0] == expected
        assert scorer.stats.indexed_sets == 0
        assert scorer.stats.masked_predicates == 1

    def test_missing_attribute_errors_are_typed(self):
        problem = build_problem(Avg())
        index = InfluenceScorer(problem, cache_scores=False).planner.index
        with pytest.raises(PredicateError):
            index.ensure_discrete("nope")
        with pytest.raises(PredicateError):
            index.translate("nope", ["x"])
        with pytest.raises(PredicateError):
            index.n_codes("nope")
        with pytest.raises(PredicateError):
            index.estimate_clause_count(object())
        assert not index.supports_clause(object())

    def test_codes_require_code_tables(self):
        problem = build_problem(Avg())
        index = InfluenceScorer(problem, cache_scores=False).planner.index
        with pytest.raises(PredicateError):
            PrefixAggregateIndex(
                {attr: index._values[attr] for attr in index._values},
                index.group_slices, index._states,
                codes_by_attr={"ac": index._codes["ac"]})


class TestGroupDiscreteIndex:
    """Bucket membership and removed states vs the mask reference."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_mask_semantics(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        n = data.draw(st.integers(1, 60))
        n_codes = data.draw(st.integers(1, 8))
        codes = rng.integers(0, n_codes, size=n).astype(np.int64)
        states = np.column_stack([rng.normal(size=n), np.ones(n)])
        wanted = np.asarray(sorted(data.draw(st.sets(
            st.integers(0, n_codes - 1), max_size=n_codes))), dtype=np.int64)

        index = GroupDiscreteIndex(codes, n_codes, states, exact=False)
        mask = np.isin(codes, wanted)
        rows = index.rows_for_codes(wanted)
        assert sorted(rows) == list(np.flatnonzero(mask))
        assert int(index.bucket_counts[wanted].sum()) == \
            int(np.count_nonzero(mask))

    def test_bucket_tier_states_are_exact(self):
        rng = np.random.default_rng(7)
        codes = rng.integers(0, 5, size=200).astype(np.int64)
        states = np.column_stack([
            rng.integers(0, 1000, size=200).astype(np.float64),
            np.ones(200),
        ])
        index = GroupDiscreteIndex(codes, 5, states, exact=True)
        assert index.uses_buckets
        for c in range(5):
            np.testing.assert_array_equal(
                index.bucket_states[c], states[codes == c].sum(axis=0))


class TestConjunctionPlanShape:
    def test_plan_is_picklable(self):
        import pickle

        plan = ConjunctionPlan(RangeClause("a1", 0.0, 1.0),
                               SetClause("ac", ["c0"]), probe_count=7)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.probe == plan.probe
        assert clone.other == plan.other
        assert clone.probe_count == 7
