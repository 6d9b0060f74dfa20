"""Scalar-vs-batch equivalence tests for the batched scoring engine.

The contract (see the :mod:`repro.core.influence` module docstring):
``score_batch(preds)`` equals ``[score(p) for p in preds]`` *exactly*,
on both the incrementally-removable and black-box paths, including the
``-inf`` whole-group-deletion and empty-match edge cases, and the shared
memo cache keeps the two entry points coherent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import (Avg, Count, LinearStateAggregate, Median,
                              Sum, Variance)
from repro.core.influence import INVALID_INFLUENCE, InfluenceScorer
from repro.core.kernel import BatchKernel
from repro.core.problem import ScorpionQuery
from repro.errors import AggregateError
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate
from repro.query.groupby import GroupByQuery
from repro.table import ColumnKind, ColumnSpec, Schema
from repro.table.table import Table

from tests.conftest import (
    SENSOR_ROWS,
    SENSOR_SCHEMA,
    assert_scoring_paths_agree,
    planted_sum_table,
    replace_calls,
)


def sensors_problem(aggregate=None, perturbation="delete",
                    c: float = 1.0, c_holdout: float | None = None,
                    ) -> ScorpionQuery:
    table = Table.from_rows(SENSOR_SCHEMA, SENSOR_ROWS)
    query = GroupByQuery("time", aggregate or Avg(), "temp")
    return ScorpionQuery(table, query, outliers=["12PM", "1PM"],
                         holdouts=["11AM"], error_vectors=+1.0, c=c,
                         c_holdout=c_holdout, perturbation=perturbation)


@st.composite
def sensor_predicates(draw) -> Predicate:
    """Random conjunctions over the sensors table's ``A_rest``; the empty
    draw yields TRUE (whole-group deletion) and sensorid 99 never
    matches, so both edge cases appear naturally."""
    clauses = []
    if draw(st.booleans()):
        lo = draw(st.floats(2.0, 2.8))
        hi = lo + draw(st.floats(0.01, 0.5))
        clauses.append(RangeClause("voltage", lo, hi, draw(st.booleans())))
    if draw(st.booleans()):
        lo = draw(st.floats(0.0, 0.6))
        clauses.append(RangeClause("humidity", lo, lo + draw(st.floats(0.0, 0.4))))
    if draw(st.booleans()):
        values = draw(st.sets(st.sampled_from([1, 2, 3, 99]), min_size=1))
        clauses.append(SetClause("sensorid", sorted(values)))
    return Predicate(clauses)


def assert_batch_equals_scalar(scorer: InfluenceScorer,
                               predicates: list[Predicate],
                               ignore_holdouts: bool = False) -> np.ndarray:
    batched = scorer.score_batch(predicates, ignore_holdouts=ignore_holdouts)
    scalar = np.asarray([scorer.score(p, ignore_holdouts=ignore_holdouts)
                         for p in predicates])
    np.testing.assert_array_equal(batched, scalar)
    return batched


class TestEquivalenceProperty:
    """Random conjunctions through the shared differential oracle
    (scalar / mask kernel / index-routed scoring must agree exactly)."""

    @settings(max_examples=40, deadline=None)
    @given(predicates=st.lists(sensor_predicates(), max_size=12))
    def test_incremental_path(self, predicates):
        assert_scoring_paths_agree(sensors_problem(), predicates)

    @settings(max_examples=40, deadline=None)
    @given(predicates=st.lists(sensor_predicates(), max_size=8),
           c=st.sampled_from([0.0, 0.1, 0.5, 0.7, 1.0]))
    def test_fractional_c_exponents(self, predicates, c):
        # Vectorized ``**`` differs from scalar pow in the last ulp on
        # some inputs; the denominators must go through scalar pow.
        assert_scoring_paths_agree(sensors_problem(c=c), predicates)

    @settings(max_examples=20, deadline=None)
    @given(predicates=st.lists(sensor_predicates(), max_size=8))
    def test_black_box_path(self, predicates):
        scorer = InfluenceScorer(sensors_problem(Median()), cache_scores=False)
        assert not scorer.uses_incremental
        assert_scoring_paths_agree(sensors_problem(Median()), predicates)

    @settings(max_examples=20, deadline=None)
    @given(predicates=st.lists(sensor_predicates(), max_size=8))
    def test_ignore_holdouts(self, predicates):
        assert_scoring_paths_agree(sensors_problem(), predicates,
                                   ignore_holdouts=True)

    @settings(max_examples=20, deadline=None)
    @given(predicates=st.lists(sensor_predicates(), max_size=8),
           c_holdout=st.sampled_from([None, 0.0, 0.2]))
    def test_mean_perturbation(self, predicates, c_holdout):
        # c_holdout differs from c when drawn: hold-out terms take their
        # own exponent.
        assert_scoring_paths_agree(
            sensors_problem(perturbation="mean", c_holdout=c_holdout),
            predicates)


class TestEdgeCases:
    def test_whole_group_deletion_is_invalid(self):
        scorer = InfluenceScorer(sensors_problem(), cache_scores=False)
        batched = assert_batch_equals_scalar(scorer, [Predicate.true()])
        assert batched[0] == INVALID_INFLUENCE

    def test_empty_match_scores_zero(self):
        scorer = InfluenceScorer(sensors_problem(), cache_scores=False)
        nothing = Predicate([SetClause("sensorid", [99])])
        batched = assert_batch_equals_scalar(scorer, [nothing])
        assert batched[0] == 0.0

    def test_empty_batch(self):
        scorer = InfluenceScorer(sensors_problem())
        assert scorer.score_batch([]).shape == (0,)

    def test_duplicates_share_one_evaluation(self):
        scorer = InfluenceScorer(sensors_problem(), cache_scores=False)
        p = Predicate([SetClause("sensorid", [3])])
        batched = scorer.score_batch([p, p, p])
        assert batched[0] == batched[1] == batched[2] == scorer.score(p)
        # Three submissions, one mask-kernel evaluation for the trio
        # + one mask evaluation for the scalar call.
        assert scorer.stats.masked_predicates == 1
        assert scorer.stats.mask_scores == 2

    def test_non_rest_attribute_falls_back(self):
        scorer = InfluenceScorer(sensors_problem(), cache_scores=False)
        # temp is the aggregate attribute — outside the labeled evaluator.
        outside = Predicate([RangeClause("temp", 79.0, 120.0)])
        inside = Predicate([SetClause("sensorid", [3])])
        assert_batch_equals_scalar(scorer, [outside, inside, outside])

    def test_sum_problem_with_fractional_c(self):
        problem_table, outliers, holdouts = planted_sum_table()
        from repro.aggregates import Sum
        problem = ScorpionQuery(problem_table, GroupByQuery("g", Sum(), "value"),
                                outliers=outliers, holdouts=holdouts,
                                error_vectors=+1.0, c=0.5)
        scorer = InfluenceScorer(problem, cache_scores=False)
        predicates = [
            Predicate([RangeClause("a1", 10.0 * i, 10.0 * i + 25.0)])
            for i in range(8)
        ] + [
            Predicate([SetClause("state", [s])]) for s in ("CA", "TX", "ZZ")
        ] + [Predicate.true()]
        assert_batch_equals_scalar(scorer, predicates)

    def test_internal_chunking_matches_unchunked(self):
        scorer = InfluenceScorer(sensors_problem(), cache_scores=False)
        predicates = [Predicate([RangeClause("voltage", 2.0, 2.3 + 0.001 * i)])
                      for i in range(37)]
        small = InfluenceScorer(sensors_problem(), cache_scores=False,
                                batch_chunk=8)  # force multiple passes
        assert small.batch_chunk == 8
        np.testing.assert_array_equal(small.score_batch(predicates),
                                      scorer.score_batch(predicates))


def fold_edge_problem(aggregate, perturbation="delete", error_vectors=-1.0,
                      c: float = 0.5, c_holdout: float | None = None,
                      ) -> ScorpionQuery:
    """Two outlier groups and one hold-out over integer values, so a
    removed state that sums to zero leaves the group's aggregate exactly
    unchanged.  Rows with ``a = "zero"`` carry value 0 in every group;
    ``x`` lies in [0, 1] on g0's rows only, and ``b = "only0"`` marks
    exactly g0's rows."""
    schema = Schema([ColumnSpec("g", ColumnKind.DISCRETE),
                     ColumnSpec("a", ColumnKind.DISCRETE),
                     ColumnSpec("b", ColumnKind.DISCRETE),
                     ColumnSpec("x", ColumnKind.CONTINUOUS),
                     ColumnSpec("v", ColumnKind.CONTINUOUS)])
    a = ["zero", "zero", "p", "p", "q", "q"]
    table = Table.from_columns(schema, {
        "g": np.repeat(["g0", "g1", "g2"], 6),
        "a": np.tile(a, 3),
        "b": np.repeat(["only0", "rest", "rest"], 6),
        "x": np.concatenate([np.linspace(0.0, 1.0, 6),
                             np.linspace(2.0, 3.0, 12)]),
        "v": np.asarray([0, 0, 5, 7, 9, 11, 0, 0, 6, 8, 10, 12,
                         0, 0, 1, 2, 3, 4], dtype=np.float64),
    })
    return ScorpionQuery(table, GroupByQuery("g", aggregate, "v"),
                         outliers=["g0", "g1"], holdouts=["g2"],
                         error_vectors=error_vectors, c=c,
                         c_holdout=c_holdout, perturbation=perturbation)


ZERO_ROWS = Predicate([SetClause("a", ["zero"])])
WHOLE_G0_RANGE = Predicate([RangeClause("x", 0.0, 1.0)])
WHOLE_G0_SET = Predicate([SetClause("b", ["only0"])])
FOLD_EDGE_PREDICATES = [
    ZERO_ROWS, WHOLE_G0_RANGE, WHOLE_G0_SET,
    Predicate([SetClause("a", ["zero", "p"])]),
    Predicate([RangeClause("x", 0.5, 2.5)]),
    Predicate([RangeClause("x", 0.0, 2.2), SetClause("a", ["zero", "q"])]),
    Predicate([SetClause("a", ["q"]), SetClause("b", ["rest"])]),
    Predicate.true(),
]


class TestFoldEdgeCases:
    """Inputs to the differential oracle that pin the one-pass group
    fold's edge cases against the scalar path."""

    @pytest.mark.parametrize("ignore_holdouts", [False, True])
    def test_zero_delta_negative_error_vector_folds_to_plus_zero(
            self, ignore_holdouts):
        # Removing value-0 rows leaves every SUM unchanged: each outlier
        # term is 0.0 / n^c * -1 = -0.0, and the scalar running total
        # from 0.0 makes the sum +0.0.
        values = assert_scoring_paths_agree(
            fold_edge_problem(Sum()), FOLD_EDGE_PREDICATES,
            ignore_holdouts=ignore_holdouts)
        assert values[0] == 0.0 and not np.signbit(values[0])

    @pytest.mark.parametrize("ignore_holdouts", [False, True])
    def test_deleting_a_whole_avg_group_is_invalid(self, ignore_holdouts):
        values = assert_scoring_paths_agree(
            fold_edge_problem(Avg(), error_vectors=1.0),
            FOLD_EDGE_PREDICATES, ignore_holdouts=ignore_holdouts)
        assert values[1] == values[2] == INVALID_INFLUENCE
        assert values[-1] == INVALID_INFLUENCE

    @pytest.mark.parametrize("aggregate", [Sum(), Avg()])
    def test_distinct_holdout_exponent_under_mean_perturbation(self,
                                                               aggregate):
        problem = fold_edge_problem(aggregate, perturbation="mean",
                                    error_vectors=1.0, c=0.5, c_holdout=0.2)
        assert problem.c != problem.c_holdout
        with_holdouts = assert_scoring_paths_agree(problem,
                                                   FOLD_EDGE_PREDICATES)
        outliers_only = assert_scoring_paths_agree(
            problem, FOLD_EDGE_PREDICATES, ignore_holdouts=True)
        # The hold-out term, priced at c_holdout, moves some scores.
        assert np.any(with_holdouts != outliers_only)


class NegativesCountDouble(LinearStateAggregate):
    """A weighted AVG whose negative readings count twice: its count
    component is 2.0 for those tuples, not 1.0, so the kernel must sum
    that column like any other."""

    name = "negatives_count_double"
    is_independent = True

    def tuple_states(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        weights = np.where(values < 0, 2.0, 1.0)
        return np.column_stack([values * weights, weights])

    def recover(self, state: np.ndarray) -> float:
        if state[1] <= 0:
            raise AggregateError("undefined on empty input")
        return float(state[0] / state[1])


#: (aggregate, perturbation): state sizes 1 (COUNT), 2 and 3 (VARIANCE),
#: and a count component that is not 1.0 per tuple.
KERNEL_AGGREGATES = [(Sum(), "delete"), (Count(), "delete"),
                     (Avg(), "mean"), (Variance(), "delete"),
                     (NegativesCountDouble(), "delete")]

KERNEL_SCHEMA = Schema([ColumnSpec("g", ColumnKind.DISCRETE),
                        ColumnSpec("x", ColumnKind.CONTINUOUS),
                        ColumnSpec("k", ColumnKind.DISCRETE),
                        ColumnSpec("v", ColumnKind.CONTINUOUS)])

#: Aggregate values, -0.0 among them.
KERNEL_VALUES = [-0.0, 0.0, 1.5, -2.25, 3.0, 7.125, -0.5]


@st.composite
def kernel_cases(draw):
    """A small random problem, a batch for it and ``ignore_holdouts``.

    Groups hold 1-5 rows, so one-row groups and predicates matching no
    row of some group are common.  A predicate constrains ``x``, ``k``,
    both or neither.  The batch is a single predicate, one ``x`` clause
    repeated across every predicate, or random clauses."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=5))
    n_outliers = draw(st.integers(1, len(sizes) - 1))
    n = sum(sizes)
    table = Table.from_columns(KERNEL_SCHEMA, {
        "g": np.repeat([f"g{i}" for i in range(len(sizes))], sizes),
        "x": np.asarray(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]),
                                      min_size=n, max_size=n))),
        "k": np.asarray(draw(st.lists(st.sampled_from("abc"),
                                      min_size=n, max_size=n))),
        "v": np.asarray(draw(st.lists(st.sampled_from(KERNEL_VALUES),
                                      min_size=n, max_size=n))),
    })
    aggregate, perturbation = draw(st.sampled_from(KERNEL_AGGREGATES))
    problem = ScorpionQuery(
        table, GroupByQuery("g", aggregate, "v"),
        outliers=[f"g{i}" for i in range(n_outliers)],
        holdouts=[f"g{i}" for i in range(n_outliers, len(sizes))],
        error_vectors=draw(st.sampled_from([1.0, -1.0])),
        c=draw(st.sampled_from([0.0, 0.5, 1.0])), perturbation=perturbation)

    def x_clause():
        lo = draw(st.sampled_from([0.0, 1.0, 2.0]))
        return RangeClause("x", lo, lo + draw(st.sampled_from([0.0, 1.0])),
                           include_hi=True)

    def k_clause():
        return SetClause("k", draw(st.sets(st.sampled_from("abcz"),
                                           min_size=1, max_size=2)))

    def predicate(x=None):
        clauses = []
        if x is not None or draw(st.booleans()):
            clauses.append(x if x is not None else x_clause())
        if draw(st.booleans()):
            clauses.append(k_clause())
        return Predicate(clauses)

    shape = draw(st.sampled_from(["single", "repeated", "random"]))
    if shape == "single":
        predicates = [predicate()]
    elif shape == "repeated":
        shared = x_clause()
        predicates = [predicate(shared) for _ in range(draw(st.integers(2, 9)))]
    else:
        predicates = [predicate() for _ in range(draw(st.integers(0, 9)))]
    return problem, predicates, draw(st.booleans())


class TestMaskKernelOracle:
    """The mask kernel's branches — per-group counts, repeated bincount
    keys, the count column taken from the counts — through the
    differential oracle."""

    @settings(max_examples=120, deadline=None)
    @given(case=kernel_cases())
    def test_random_problems(self, case):
        problem, predicates, ignore_holdouts = case
        assert_scoring_paths_agree(problem, predicates,
                                   ignore_holdouts=ignore_holdouts)

    def test_count_component_is_checked_on_every_tuple(self):
        # The first tuple's count component is 1.0 and the later ones'
        # are 2.0: a check of one tuple would wrongly fill the count
        # column from the matched counts.
        table = Table.from_columns(KERNEL_SCHEMA, {
            "g": np.repeat(["g0", "g1"], 4),
            "x": np.tile([0.0, 1.0, 2.0, 3.0], 2),
            "k": np.tile(["a", "b"], 4),
            "v": np.asarray([1.0, -2.0, -3.0, 4.0, 5.0, -6.0, 7.0, -8.0]),
        })
        problem = ScorpionQuery(
            table, GroupByQuery("g", NegativesCountDouble(), "v"),
            outliers=["g0"], holdouts=["g1"], c=0.5)
        predicates = [Predicate([RangeClause("x", 0.0, hi)])
                      for hi in (1.0, 2.0, 3.0)]
        predicates.append(Predicate([SetClause("k", ["b"])]))
        assert_scoring_paths_agree(problem, predicates)


class ChunkFailure(Exception):
    """Raised in place of one chunk's kernel call."""


class TestChunkFailure:
    """A chunk that raises fails its whole batch: the exception
    propagates and nothing of the batch is memoized, because every
    chunk is scored before any value enters the memo cache."""

    def test_exception_propagates_and_leaves_no_partial_result(
            self, monkeypatch):
        table, outliers, holdouts = planted_sum_table()
        problem = ScorpionQuery(table, GroupByQuery("g", Sum(), "value"),
                                outliers=outliers, holdouts=holdouts,
                                error_vectors=+1.0, c=0.5)
        batch = [Predicate([RangeClause("a1", 8.0 * i, 8.0 * i + 20.0)])
                 for i in range(12)]
        expected = InfluenceScorer(problem, cache_scores=False).score_batch(
            batch)
        scorer = InfluenceScorer(problem, batch_chunk=4)
        replace_calls(monkeypatch, BatchKernel, "score_masked_chunk",
                      ChunkFailure("chunk 2"), calls=(2,))
        with pytest.raises(ChunkFailure, match="chunk 2"):
            scorer.score_batch(batch)
        monkeypatch.undo()
        # Neither the first chunk nor the failed one entered the memo
        # cache: the next batch scores every predicate afresh, and
        # correctly.
        np.testing.assert_array_equal(scorer.score_batch(batch), expected)
        assert scorer.stats.cache_hits == 0


class TestCacheCoherence:
    def test_batch_populates_scalar_cache(self):
        scorer = InfluenceScorer(sensors_problem())
        p = Predicate([SetClause("sensorid", [3])])
        batched = scorer.score_batch([p])
        before = scorer.stats.cache_hits
        assert scorer.score(p) == batched[0]
        assert scorer.stats.cache_hits == before + 1

    def test_scalar_populates_batch_cache(self):
        scorer = InfluenceScorer(sensors_problem())
        p = Predicate([SetClause("sensorid", [3])])
        value = scorer.score(p)
        before = scorer.stats.cache_hits
        assert scorer.score_batch([p])[0] == value
        assert scorer.stats.cache_hits == before + 1

    def test_outlier_only_cache_is_separate(self):
        scorer = InfluenceScorer(sensors_problem())
        p = Predicate([SetClause("sensorid", [3])])
        with_holdouts = scorer.score_batch([p])[0]
        outlier_only = scorer.score_batch([p], ignore_holdouts=True)[0]
        assert outlier_only != with_holdouts
        assert scorer.score(p) == with_holdouts
        assert scorer.outlier_only_score(p) == outlier_only


class TestStats:
    def test_batch_counters(self):
        scorer = InfluenceScorer(sensors_problem())
        predicates = [Predicate([SetClause("sensorid", [i])]) for i in (1, 2, 3)]
        scorer.score_batch(predicates)
        scorer.score_batch(predicates[:2])
        stats = scorer.stats
        assert stats.batch_calls == 2
        assert stats.batch_predicates == 5
        assert stats.largest_batch == 3
        assert stats.batch_seconds > 0.0
        assert stats.batch_throughput > 0.0
        assert stats.as_dict()["batch_throughput"] == stats.batch_throughput

    def test_reset_clears_batch_counters(self):
        scorer = InfluenceScorer(sensors_problem())
        scorer.score_batch([Predicate([SetClause("sensorid", [1])])])
        scorer.stats.reset()
        assert scorer.stats.batch_calls == 0
        assert scorer.stats.batch_predicates == 0
        assert scorer.stats.largest_batch == 0
        assert scorer.stats.batch_seconds == 0.0
        assert scorer.stats.batch_throughput == 0.0
