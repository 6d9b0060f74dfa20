"""Unit tests for the NAIVE exhaustive partitioner."""

import pytest

from repro.core.influence import InfluenceScorer
from repro.core.naive import NaivePartitioner
from repro.errors import PartitionerError
from repro.predicates.clause import SetClause
from repro.predicates.predicate import Predicate


class TestSearch:
    def test_finds_paper_explanation(self, paper_problem):
        result = NaivePartitioner(n_bins=5, time_budget=20.0).run(paper_problem)
        best = result.best
        assert best is not None
        # The anomaly lives on sensor 3 / low voltage; either description
        # (or their conjunction) nails all and only the outlier readings.
        mask = best.predicate.mask(paper_problem.table)
        assert mask.tolist() == [False, False, False,
                                 False, False, True,
                                 False, False, True]

    def test_finds_planted_subspace(self, sum_problem):
        result = NaivePartitioner(n_bins=10, time_budget=20.0).run(sum_problem)
        best = result.best
        clause = best.predicate.clause_for("state")
        assert clause is not None and "TX" in clause.values

    def test_ranked_sorted_descending(self, paper_problem):
        result = NaivePartitioner(n_bins=4, time_budget=20.0, top_k=5).run(paper_problem)
        influences = [sp.influence for sp in result.ranked]
        assert influences == sorted(influences, reverse=True)
        assert len(result.ranked) <= 5

    def test_convergence_log_monotone(self, sum_problem):
        result = NaivePartitioner(n_bins=8, time_budget=20.0).run(sum_problem)
        points = result.convergence
        assert points, "expected at least one improvement"
        influences = [p.influence for p in points]
        assert influences == sorted(influences)
        elapsed = [p.elapsed for p in points]
        assert elapsed == sorted(elapsed)

    def test_shared_scorer_reused(self, paper_problem):
        scorer = InfluenceScorer(paper_problem)
        NaivePartitioner(n_bins=3, time_budget=20.0).run(paper_problem, scorer)
        assert scorer.stats.predicate_scores > 0


class TestBudgets:
    def test_evaluation_budget_truncates(self, paper_problem):
        result = NaivePartitioner(n_bins=15, time_budget=None,
                                  max_evaluations=10).run(paper_problem)
        assert result.n_evaluated == 10
        assert result.truncated

    def test_time_budget_truncates(self, sum_problem):
        result = NaivePartitioner(n_bins=15, time_budget=0.0).run(sum_problem)
        assert result.truncated
        assert result.n_evaluated <= 1

    def test_full_enumeration_not_truncated(self, paper_problem):
        result = NaivePartitioner(n_bins=2, time_budget=60.0).run(paper_problem)
        assert not result.truncated

    def test_default_budget_is_a_deterministic_count(self, paper_problem):
        partitioner = NaivePartitioner()
        assert partitioner.time_budget is None
        result = partitioner.run(paper_problem)
        assert result.n_evaluated == 10_000
        assert result.truncated

    def test_no_budget_rejected(self):
        with pytest.raises(PartitionerError):
            NaivePartitioner(time_budget=None, max_evaluations=None)

    def test_bad_top_k_rejected(self):
        with pytest.raises(PartitionerError):
            NaivePartitioner(top_k=0)


class TestSpaceControls:
    def test_max_clauses_limits_space(self, paper_problem):
        result = NaivePartitioner(n_bins=3, time_budget=None, max_clauses=1,
                                  max_evaluations=10_000).run(paper_problem)
        assert all(sp.predicate.num_clauses == 1 for sp in result.ranked)

    def test_max_discrete_set_size(self, paper_problem):
        result = NaivePartitioner(n_bins=2, time_budget=None,
                                  max_discrete_set_size=1,
                                  max_evaluations=10_000).run(paper_problem)
        for scored in result.ranked:
            clause = scored.predicate.clause_for("sensorid")
            if isinstance(clause, SetClause):
                assert len(clause.values) == 1

    def test_invalid_predicates_never_ranked(self, paper_problem):
        result = NaivePartitioner(n_bins=3, time_budget=20.0).run(paper_problem)
        for scored in result.ranked:
            assert scored.influence != float("-inf")
            assert scored.predicate != Predicate.true()
