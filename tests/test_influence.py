"""Unit tests for the influence Scorer — including the paper's own
worked example from Section 3.2."""

import numpy as np
import pytest

from repro.aggregates import Avg, Median, Sum
from repro.core.influence import INVALID_INFLUENCE, InfluenceScorer
from repro.core.problem import ScorpionQuery
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate
from repro.query.groupby import GroupByQuery


def scorer_for(paper_problem) -> InfluenceScorer:
    return InfluenceScorer(paper_problem)


class TestPaperExample:
    """Section 3.2: for α2 = avg(35, 35, 100), removing T4 has influence
    −10.8(3) and removing T6 has influence +21.6(7)."""

    def test_single_tuple_deltas(self, paper_problem):
        scorer = scorer_for(paper_problem)
        ctx_12pm = next(c for c in scorer.outlier_contexts if c.key == ("12PM",))
        deltas = scorer.tuple_deltas(ctx_12pm)
        # Δ(T4) = 56.67 − 67.5 = −10.83; Δ(T6) = 56.67 − 35 = 21.67.
        assert deltas[0] == pytest.approx(-10.833, abs=1e-3)
        assert deltas[2] == pytest.approx(21.667, abs=1e-3)

    def test_error_vector_flips_ranking(self, sensors_table, q1):
        too_low = ScorpionQuery(sensors_table, q1, outliers=["12PM"],
                                error_vectors=-1.0)
        scorer = InfluenceScorer(too_low)
        ctx = scorer.outlier_contexts[0]
        influences = scorer.tuple_influences(ctx)
        # With v = −1 the paper says T6 scores −21.6 and T4 scores +10.8.
        assert influences[2] == pytest.approx(-21.667, abs=1e-3)
        assert influences[0] == pytest.approx(10.833, abs=1e-3)

    def test_t6_most_influential_with_positive_vector(self, paper_problem):
        scorer = scorer_for(paper_problem)
        ctx = next(c for c in scorer.outlier_contexts if c.key == ("12PM",))
        influences = scorer.tuple_influences(ctx)
        assert int(np.argmax(influences)) == 2


class TestDelta:
    def test_delta_empty_mask_is_zero(self, paper_problem):
        scorer = scorer_for(paper_problem)
        ctx = scorer.outlier_contexts[0]
        assert scorer.kernel.delta(ctx, np.zeros(3, dtype=bool)) == 0.0

    def test_delta_incremental_matches_recompute(self, paper_problem):
        fast = InfluenceScorer(paper_problem, use_incremental=True)
        slow = InfluenceScorer(paper_problem, use_incremental=False)
        mask = np.asarray([False, True, True])
        for f_ctx, s_ctx in zip(fast.contexts, slow.contexts):
            assert fast.kernel.delta(f_ctx, mask) == pytest.approx(
                slow.kernel.delta(s_ctx, mask))

    def test_delta_full_removal_avg_is_nan(self, paper_problem):
        scorer = scorer_for(paper_problem)
        ctx = scorer.outlier_contexts[0]
        assert np.isnan(scorer.kernel.delta(ctx, np.ones(3, dtype=bool)))

    def test_delta_full_removal_sum_uses_empty_value(self, sum_problem):
        scorer = InfluenceScorer(sum_problem)
        ctx = scorer.outlier_contexts[0]
        delta = scorer.kernel.delta(ctx, np.ones(ctx.size, dtype=bool))
        assert delta == pytest.approx(ctx.total_value)

    def test_stats_count_incremental_deltas(self, paper_problem):
        scorer = scorer_for(paper_problem)
        ctx = scorer.outlier_contexts[0]
        scorer.kernel.delta(ctx, np.asarray([True, False, False]))
        assert scorer.stats.incremental_deltas == 1
        assert scorer.stats.full_recomputes == 0


class TestScore:
    def test_score_formula_single_outlier_no_holdout(self, sensors_table, q1):
        problem = ScorpionQuery(sensors_table, q1, outliers=["12PM"],
                                error_vectors=+1.0, lam=0.5, c=1.0)
        scorer = InfluenceScorer(problem)
        p = Predicate([SetClause("sensorid", [3])])
        # Removing T6: Δ = 21.67, count 1 → inf = 21.67; score = λ·21.67.
        assert scorer.score(p) == pytest.approx(0.5 * 21.667, abs=1e-3)

    def test_score_averages_outliers(self, paper_problem):
        scorer = scorer_for(paper_problem)
        p = Predicate([SetClause("sensorid", [3])])
        # 12PM: Δ = 21.67; 1PM: Δ = 50 − 35 = 15; holdout 11AM:
        # Δ = 34.67 − 34.5 = 0.1667 (removing T3 with temp 35).
        expected = 0.5 * (21.667 + 15.0) / 2 - 0.5 * abs(34.667 - 34.5)
        assert scorer.score(p) == pytest.approx(expected, abs=1e-3)

    def test_holdout_penalty_uses_max(self, sensors_table, q1):
        problem = ScorpionQuery(sensors_table, q1, outliers=["12PM"],
                                holdouts=["11AM", "1PM"], error_vectors=+1.0)
        scorer = InfluenceScorer(problem)
        p = Predicate([SetClause("sensorid", [3])])
        outlier_only = scorer.outlier_only_score(p)
        with_holdouts = scorer.score(p)
        # 1PM is now a hold-out perturbed by 15 → dominates 11AM's 0.17.
        assert outlier_only - with_holdouts == pytest.approx(0.5 * 15.0, abs=1e-3)

    def test_lambda_weighting(self, sensors_table, q1):
        for lam in (0.0, 0.3, 1.0):
            problem = ScorpionQuery(sensors_table, q1, outliers=["12PM"],
                                    holdouts=["11AM"], error_vectors=+1.0, lam=lam)
            scorer = InfluenceScorer(problem)
            p = Predicate([SetClause("sensorid", [3])])
            expected = lam * 21.667 - (1 - lam) * abs(34.667 - 34.5)
            assert scorer.score(p) == pytest.approx(expected, abs=1e-3)

    def test_c_knob(self, sensors_table, q1):
        problem = ScorpionQuery(sensors_table, q1, outliers=["12PM"],
                                error_vectors=+1.0, c=0.0)
        scorer = InfluenceScorer(problem)
        p = Predicate([SetClause("sensorid", [2, 3])])  # removes T5, T6
        # Δ = 56.67 − 35 = 21.67 over 2 tuples; c = 0 → no denominator.
        assert scorer.score(p) == pytest.approx(0.5 * 21.667, abs=1e-3)
        problem1 = ScorpionQuery(sensors_table, q1, outliers=["12PM"],
                                 error_vectors=+1.0, c=1.0)
        scorer1 = InfluenceScorer(problem1)
        assert scorer1.score(p) == pytest.approx(0.5 * 21.667 / 2, abs=1e-3)

    def test_nonmatching_predicate_scores_zero(self, paper_problem):
        scorer = scorer_for(paper_problem)
        p = Predicate([SetClause("sensorid", [99])])
        assert scorer.score(p) == 0.0

    def test_group_deleting_predicate_is_invalid(self, paper_problem):
        scorer = scorer_for(paper_problem)
        assert scorer.score(Predicate.true()) == INVALID_INFLUENCE

    def test_score_mask_equals_score(self, paper_problem):
        scorer = scorer_for(paper_problem)
        p = Predicate([RangeClause("voltage", 2.0, 2.5)])
        assert scorer.score_mask(p.mask(scorer.table)) == pytest.approx(scorer.score(p))

    def test_score_cache_hits(self, paper_problem):
        scorer = scorer_for(paper_problem)
        p = Predicate([SetClause("sensorid", [3])])
        scorer.score(p)
        before = scorer.stats.cache_hits
        scorer.score(p)
        assert scorer.stats.cache_hits == before + 1

    def test_score_predicate_on_non_rest_attribute(self, paper_problem):
        scorer = scorer_for(paper_problem)
        # temp is the aggregate attribute, not in A_rest: full-table path.
        p = Predicate([RangeClause("temp", 79.0, 120.0)])
        assert np.isfinite(scorer.score(p))


class TestBlackBoxPath:
    def test_median_requires_recompute(self, sensors_table):
        query = GroupByQuery("time", Median(), "temp")
        problem = ScorpionQuery(sensors_table, query, outliers=["12PM"],
                                error_vectors=+1.0)
        scorer = InfluenceScorer(problem)
        assert not scorer.uses_incremental
        p = Predicate([SetClause("sensorid", [3])])
        # median(35, 35, 100) = 35 → median(35, 35) = 35 → Δ = 0.
        assert scorer.score(p) == pytest.approx(0.0)
        assert scorer.stats.full_recomputes > 0

    def test_black_box_tuple_deltas(self, sensors_table):
        query = GroupByQuery("time", Median(), "temp")
        problem = ScorpionQuery(sensors_table, query, outliers=["12PM"],
                                error_vectors=+1.0)
        scorer = InfluenceScorer(problem)
        deltas = scorer.tuple_deltas(scorer.outlier_contexts[0])
        assert deltas[2] == pytest.approx(0.0)  # removing T6 leaves median 35


class TestBounds:
    def test_max_tuple_influence(self, paper_problem):
        scorer = scorer_for(paper_problem)
        p = Predicate([SetClause("sensorid", [3])])
        # Best tuple is T6 at 21.67, scaled by λ/|O| = 0.25.
        assert scorer.max_tuple_influence(p) == pytest.approx(0.25 * 21.667, abs=1e-3)

    def test_max_tuple_influence_no_match(self, paper_problem):
        scorer = scorer_for(paper_problem)
        p = Predicate([SetClause("sensorid", [99])])
        assert scorer.max_tuple_influence(p) == INVALID_INFLUENCE

    def test_refinement_bound_at_c1_equals_tuple_bound_per_group(self, sum_problem):
        problem = sum_problem.with_c(1.0)
        scorer = InfluenceScorer(problem)
        p = Predicate([SetClause("state", ["TX"])])
        # For c = 1 the per-group prefix maximum sits at k = 1.
        assert scorer.refinement_bound(p) >= scorer.max_tuple_influence(p)

    def test_refinement_bound_dominates_outlier_only(self, sum_problem):
        scorer = InfluenceScorer(sum_problem)
        for clause in (SetClause("state", ["TX"]), RangeClause("a1", 30.0, 70.0)):
            p = Predicate([clause])
            assert (scorer.refinement_bound(p)
                    >= scorer.outlier_only_score(p) - 1e-9)

    def test_refinement_bound_is_sound_for_contained_predicates(self, sum_problem):
        scorer = InfluenceScorer(sum_problem)
        coarse = Predicate([RangeClause("a1", 30.0, 70.0)])
        fine = Predicate([RangeClause("a1", 40.0, 60.0), SetClause("state", ["TX"])])
        assert coarse.contains(fine)
        assert scorer.refinement_bound(coarse) >= scorer.outlier_only_score(fine)
