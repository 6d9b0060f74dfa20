"""Property tests for single set clauses and 2-clause conjunctions,
driven through the shared differential oracle
(:func:`tests.conftest.assert_scoring_paths_agree`).

Coverage targets the mask kernel's hardest inputs for bit-exactness
against the scalar path: random discrete cardinalities, set clauses
naming values the table never takes (globally or only in some groups),
NaN-bearing continuous columns on the conjunction's other side,
degenerate one-row groups, every clause pairing, and conjunctions where
either clause is the narrower side.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import Avg, StdDev, Sum
from repro.core.influence import InfluenceScorer
from repro.core.problem import ScorpionQuery
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
#: subsets leave some values absent from some groups), ``ad`` is binary.
A1_GRID = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
AC_POOL = [f"c{i}" for i in range(12)]
AD_POOL = ["x", "y"]
#: Clause values beyond the pool — never present in any group.
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
        # Each group draws from a rotated slice of the value pool, so
        # some values exist globally but are absent from some groups.
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
    clause ends up the narrower side."""
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
        """A conjunction whose narrow side is the point range, and one
        whose narrow side is the single-value set, both score
        identically to scalar."""
        problem = build_problem(Avg(), cardinality=12, seed=3)
        if narrow_side == "range":
            predicate = Predicate([RangeClause("a1", 2.0, 2.0),
                                   SetClause("ac", AC_POOL)])
        else:
            predicate = Predicate([RangeClause("a1", -10.0, 100.0),
                                   SetClause("ac", [AC_POOL[0]])])
        assert_scoring_paths_agree(problem, [predicate])

    def test_unselective_conjunction_prefers_mask_kernel(self):
        """A conjunction whose clauses both cover most of the labeled
        rows scores identically to scalar on the mask kernel."""
        problem = build_problem(Avg())
        predicate = Predicate([RangeClause("a1", -10.0, 100.0),
                               SetClause("ac", AC_POOL)])
        scorer = InfluenceScorer(problem, cache_scores=False)
        values = scorer.score_batch([predicate])
        assert scorer.stats.masked_predicates == 1
        np.testing.assert_array_equal(
            values, assert_scoring_paths_agree(problem, [predicate]))

class TestSmallChunks:
    """Every shape bit-for-bit equal to scalar under the oracle with
    batches cut into chunks of 4 predicates."""

    def test_mixed_tiers_small_chunks(self):
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
                                   batch_chunk=4)

    def test_bucket_tier_small_chunks_integer_sum(self):
        batch = [Predicate([SetClause("ac", AC_POOL[i:i + 2])])
                 for i in range(10)]
        assert_scoring_paths_agree(
            build_problem(Sum(), integer_values=True), batch,
            batch_chunk=4)


class TestPlannerFallback:
    """A range × set conjunction scores on the mask kernel, identically
    to scalar."""

    def conjunction(self) -> Predicate:
        return Predicate([RangeClause("a1", 1.0, 5.0),
                          SetClause("ac", [AC_POOL[0], AC_POOL[1]])])

    def test_scorer_falls_back_and_still_scores(self):
        problem = build_problem(Avg())
        reference = assert_scoring_paths_agree(problem, [self.conjunction()])
        scorer = InfluenceScorer(problem, cache_scores=False)
        values = scorer.score_batch([self.conjunction()])
        np.testing.assert_array_equal(values, reference)
        assert scorer.stats.masked_predicates == 1
