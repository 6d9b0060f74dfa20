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


def _unit_level(problem, n_bins):
    """The scorer, the partitioner and its units on ``problem``."""
    scorer = InfluenceScorer(problem)
    mc = MCPartitioner(n_bins=n_bins)
    return scorer, mc, mc._initial_units(problem, scorer)


def _cells_of(level, attribute):
    """Positions in ``level`` of the cells constraining ``attribute``."""
    return np.asarray([i for i, p in enumerate(level.predicates())
                       if p.attributes[0] == attribute], dtype=np.int64)


class TestUnits:
    def test_units_restricted_to_outlier_support(self, sum_problem):
        _, _, units = _unit_level(sum_problem, 10)
        assert units.supports.any(axis=1).all()
        attrs = {p.attributes[0] for p in units.predicates()}
        assert attrs == {"a1", "state"}

    def test_unit_supports_partition_outlier_rows(self, sum_problem):
        scorer, _, units = _unit_level(sum_problem, 10)
        n_outlier_rows = sum(ctx.size for ctx in scorer.outlier_contexts)
        for attribute in ("a1", "state"):
            positions = [p for row in units.supports[_cells_of(units, attribute)]
                         for p in np.flatnonzero(row)]
            assert sorted(positions) == list(range(n_outlier_rows))

    @pytest.mark.parametrize("missing", [False, True])
    def test_unit_supports_are_the_rows_their_predicates_match(self, missing):
        table, outliers, holdouts = planted_sum_table(n_per_group=50)
        if missing:
            columns = {name: table.values(name) for name in table.schema.names}
            columns["a1"] = columns["a1"].copy()
            columns["a1"][[0, 7, 60]] = np.nan  # rows of both outlier groups
            table = Table.from_columns(table.schema, columns)
        problem = ScorpionQuery(table, GroupByQuery("g", Sum(), "value"),
                                outliers=outliers, holdouts=holdouts)
        scorer, _, units = _unit_level(problem, 7)
        rows = np.concatenate([ctx.indices for ctx in scorer.outlier_contexts])
        for predicate, support in zip(units.predicates(), units.supports):
            matched = predicate.mask(problem.table)[rows]
            assert np.array_equal(support, matched), predicate
        a1_rows = units.supports[_cells_of(units, "a1")].any(axis=0)
        assert np.count_nonzero(~a1_rows) == (3 if missing else 0)


class TestIntersect:
    def test_intersect_joins_across_attributes(self, sum_problem):
        _, mc, units = _unit_level(sum_problem, 5)
        refined = mc._intersect(units)
        assert len(refined)
        for predicate, support in zip(refined.predicates(), refined.supports):
            assert predicate.num_clauses == 2
            assert support.any()

    def test_intersect_support_is_set_intersection(self, sum_problem):
        _, mc, units = _unit_level(sum_problem, 5)
        a_cell = _cells_of(units, "a1")[0]
        for s_cell in _cells_of(units, "state"):
            expected = units.supports[a_cell] & units.supports[s_cell]
            joined = mc._intersect(units.take(np.array([a_cell, s_cell])))
            if expected.any():
                assert len(joined) == 1
                assert np.array_equal(joined.supports[0], expected)
            else:
                assert not len(joined)

    def test_same_attribute_cells_never_join(self, sum_problem):
        _, mc, units = _unit_level(sum_problem, 5)
        assert not len(mc._intersect(units.take(_cells_of(units, "a1"))))


class TestOutlierIndex:
    def test_refinement_bound_matches_scorer(self, sum_problem):
        scorer, mc, units = _unit_level(sum_problem, 10)
        index = _OutlierIndex(scorer)
        levels = [units, mc._intersect(units)]
        assert len(levels[1])
        for level in levels:
            for predicate, bound in zip(level.predicates(),
                                        index.bounds(level.supports)):
                expected = scorer.refinement_bound(predicate)
                assert float(bound).hex() == float(expected).hex(), predicate


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
        scorer, mc, units = _unit_level(sum_problem, 6)
        kept, predicates = mc._prune(units, _OutlierIndex(scorer), float("-inf"))
        assert np.array_equal(kept.units, units.units)
        assert np.array_equal(kept.supports, units.supports)
        assert predicates == units.predicates()

    def test_prune_drops_hopeless_cells(self, sum_problem):
        scorer, mc, units = _unit_level(sum_problem, 6)
        index = _OutlierIndex(scorer)
        huge = max(index.bounds(units.supports)) + 1.0
        kept, predicates = mc._prune(units, index, huge)
        assert not len(kept) and predicates == []

    def test_prune_never_drops_the_optimum_region(self):
        table, outliers, holdouts = planted_sum_table(n_per_group=200)
        problem = ScorpionQuery(table, GroupByQuery("g", Sum(), "value"),
                                outliers=outliers, holdouts=holdouts,
                                error_vectors=+1.0, c=1.0)
        scorer, mc, units = _unit_level(problem, 10)
        optimum = Predicate([RangeClause("a1", 40, 60), SetClause("state", ["TX"])])
        incumbent = scorer.score(optimum)
        _, predicates = mc._prune(units, _OutlierIndex(scorer), incumbent)
        tx_kept = [p for p in predicates
                   if p.clause_for("state") is not None
                   and "TX" in p.clause_for("state").values]
        assert tx_kept, "the TX unit must survive pruning at the optimum"
