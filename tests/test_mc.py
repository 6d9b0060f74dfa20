"""Unit tests for the MC partitioner (paper Section 6.2)."""

import numpy as np
import pytest

from repro.aggregates import Avg, Median, Sum
from repro.core.influence import InfluenceScorer
from repro.core.mc import MCPartitioner, _OutlierIndex
from repro.core.problem import ScorpionQuery
from repro.errors import PartitionerError
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate
from repro.query.groupby import GroupByQuery
from repro.table import ColumnKind, ColumnSpec, Schema, Table

from tests.conftest import planted_sum_table


class TestValidation:
    def test_requires_independent(self, sensors_table):
        query = GroupByQuery("time", Median(), "temp")
        problem = ScorpionQuery(sensors_table, query, outliers=["12PM"])
        with pytest.raises(PartitionerError, match="independent"):
            MCPartitioner().run(problem)

    def test_check_failure_rejected(self):
        table = Table.from_columns(
            Schema([ColumnSpec("g", ColumnKind.DISCRETE),
                    ColumnSpec("x", ColumnKind.CONTINUOUS),
                    ColumnSpec("v", ColumnKind.CONTINUOUS)]),
            {"g": ["a", "a", "b", "b"], "x": [1.0, 2, 3, 4],
             "v": [-1.0, 2.0, 3.0, 4.0]})
        problem = ScorpionQuery(table, GroupByQuery("g", Sum(), "v"),
                                outliers=["a"], holdouts=["b"])
        with pytest.raises(PartitionerError, match="check failed"):
            MCPartitioner().run(problem)

    def test_check_can_be_disabled(self):
        table = Table.from_columns(
            Schema([ColumnSpec("g", ColumnKind.DISCRETE),
                    ColumnSpec("x", ColumnKind.CONTINUOUS),
                    ColumnSpec("v", ColumnKind.CONTINUOUS)]),
            {"g": ["a", "a", "b", "b"], "x": [1.0, 2, 3, 4],
             "v": [-1.0, 20.0, 3.0, 4.0]})
        problem = ScorpionQuery(table, GroupByQuery("g", Sum(), "v"),
                                outliers=["a"], holdouts=["b"])
        result = MCPartitioner(require_check=False, n_bins=2).run(problem)
        assert result.best is not None

    def test_avg_fails_check(self, paper_problem):
        # AVG declares no anti-monotonicity: check() is False.
        with pytest.raises(PartitionerError, match="check failed"):
            MCPartitioner().run(paper_problem)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_degenerate_level_cap_rejected(self, cap):
        # 0 would keep no predicate (no explanation at all) and -1 would
        # silently drop the lowest-bound cell every round.
        with pytest.raises(PartitionerError, match="max_predicates_per_level"):
            MCPartitioner(max_predicates_per_level=cap)

    def test_bad_n_bins_rejected(self):
        with pytest.raises(PartitionerError):
            MCPartitioner(n_bins=0)


class TestUnits:
    def test_units_restricted_to_outlier_support(self, sum_problem):
        scorer = InfluenceScorer(sum_problem)
        mc = MCPartitioner(n_bins=10)
        cells = mc._initial_units(sum_problem, scorer)
        assert all(cell.support for cell in cells)
        attrs = {cell.predicate.attributes[0] for cell in cells}
        assert attrs == {"a1", "state"}

    def test_unit_supports_partition_outlier_rows(self, sum_problem):
        scorer = InfluenceScorer(sum_problem)
        mc = MCPartitioner(n_bins=10)
        cells = mc._initial_units(sum_problem, scorer)
        n_outlier_rows = sum(ctx.size for ctx in scorer.outlier_contexts)
        for attribute in ("a1", "state"):
            positions = [p for cell in cells
                         if cell.predicate.attributes[0] == attribute
                         for p in cell.support]
            assert sorted(positions) == list(range(n_outlier_rows))


class TestIntersect:
    def test_intersect_joins_across_attributes(self, sum_problem):
        scorer = InfluenceScorer(sum_problem)
        mc = MCPartitioner(n_bins=5)
        cells = mc._initial_units(sum_problem, scorer)
        refined = mc._intersect(cells)
        assert refined
        for cell in refined:
            assert cell.predicate.num_clauses == 2
            assert cell.support

    def test_intersect_support_is_set_intersection(self, sum_problem):
        scorer = InfluenceScorer(sum_problem)
        mc = MCPartitioner(n_bins=5)
        cells = mc._initial_units(sum_problem, scorer)
        by_attr = {}
        for cell in cells:
            by_attr.setdefault(cell.predicate.attributes[0], []).append(cell)
        a_cell = by_attr["a1"][0]
        for s_cell in by_attr["state"]:
            expected = a_cell.support & s_cell.support
            joined = [c for c in mc._intersect([a_cell, s_cell])]
            if expected:
                assert len(joined) == 1
                assert joined[0].support == expected
            else:
                assert not joined

    def test_same_attribute_cells_never_join(self, sum_problem):
        scorer = InfluenceScorer(sum_problem)
        mc = MCPartitioner(n_bins=5)
        cells = [c for c in mc._initial_units(sum_problem, scorer)
                 if c.predicate.attributes[0] == "a1"]
        assert mc._intersect(cells) == []


class TestOutlierIndex:
    def test_refinement_bound_matches_scorer(self, sum_problem):
        scorer = InfluenceScorer(sum_problem)
        index = _OutlierIndex(scorer)
        mc = MCPartitioner(n_bins=10)
        for cell in mc._initial_units(sum_problem, scorer)[:20]:
            expected = scorer.refinement_bound(cell.predicate)
            assert index.refinement_bound(cell) == pytest.approx(expected)


class TestSearch:
    def test_finds_planted_subspace_at_c1(self):
        table, outliers, holdouts = planted_sum_table(n_per_group=200)
        problem = ScorpionQuery(table, GroupByQuery("g", Sum(), "value"),
                                outliers=outliers, holdouts=holdouts,
                                error_vectors=+1.0, c=1.0)
        result = MCPartitioner(n_bins=10).run(problem)
        best = result.best
        assert best is not None
        state_clause = best.predicate.clause_for("state")
        assert state_clause is not None and state_clause.values == frozenset(["TX"])
        a1 = best.predicate.clause_for("a1")
        assert a1 is not None and a1.lo >= 30 and a1.hi <= 70

    def test_low_c_returns_coarser_predicate(self):
        table, outliers, holdouts = planted_sum_table(n_per_group=200)
        low = ScorpionQuery(table, GroupByQuery("g", Sum(), "value"),
                            outliers=outliers, holdouts=holdouts,
                            error_vectors=+1.0, c=0.0)
        high = low.with_c(1.0)
        low_best = MCPartitioner(n_bins=10).run(low).best
        high_best = MCPartitioner(n_bins=10).run(high).best
        low_rows = low_best.predicate.mask(low.table).sum()
        high_rows = high_best.predicate.mask(high.table).sum()
        assert low_rows >= high_rows

    def test_ranked_descending_and_finite(self, sum_problem):
        result = MCPartitioner(n_bins=8).run(sum_problem)
        influences = [sp.influence for sp in result.ranked]
        assert influences == sorted(influences, reverse=True)
        assert all(np.isfinite(i) for i in influences)

    def test_max_iterations_limits_dimensionality(self, sum_problem):
        result = MCPartitioner(n_bins=8, max_iterations=1).run(sum_problem)
        assert all(sp.predicate.num_clauses <= 1 for sp in result.ranked)

    def test_level_cap_applies(self, sum_problem):
        result = MCPartitioner(n_bins=8, max_predicates_per_level=3).run(sum_problem)
        assert result.best is not None


class TestPruning:
    def test_prune_keeps_everything_without_incumbent(self, sum_problem):
        scorer = InfluenceScorer(sum_problem)
        index = _OutlierIndex(scorer)
        mc = MCPartitioner(n_bins=6)
        cells = mc._initial_units(sum_problem, scorer)
        assert mc._prune(cells, index, float("-inf")) == cells

    def test_prune_drops_hopeless_cells(self, sum_problem):
        scorer = InfluenceScorer(sum_problem)
        index = _OutlierIndex(scorer)
        mc = MCPartitioner(n_bins=6)
        cells = mc._initial_units(sum_problem, scorer)
        huge = max(index.refinement_bound(c) for c in cells) + 1.0
        assert mc._prune(cells, index, huge) == []

    def test_prune_never_drops_the_optimum_region(self):
        table, outliers, holdouts = planted_sum_table(n_per_group=200)
        problem = ScorpionQuery(table, GroupByQuery("g", Sum(), "value"),
                                outliers=outliers, holdouts=holdouts,
                                error_vectors=+1.0, c=1.0)
        scorer = InfluenceScorer(problem)
        index = _OutlierIndex(scorer)
        mc = MCPartitioner(n_bins=10)
        cells = mc._initial_units(problem, scorer)
        optimum = Predicate([RangeClause("a1", 40, 60), SetClause("state", ["TX"])])
        incumbent = scorer.score(optimum)
        kept = mc._prune(cells, index, incumbent)
        tx_kept = [c for c in kept
                   if c.predicate.clause_for("state") is not None
                   and "TX" in c.predicate.clause_for("state").values]
        assert tx_kept, "the TX unit must survive pruning at the optimum"
