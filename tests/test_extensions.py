"""Tests for the paper's explicitly deferred features we implemented:
mean-imputation influence (Section 3.2 footnote 3) and DT early pruning
(Section 8.3.2's future work)."""

import numpy as np
import pytest

from repro.aggregates import Avg, StdDev, Sum
from repro.core.dt import DTPartitioner
from repro.core.influence import INVALID_INFLUENCE, InfluenceScorer
from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion
from repro.errors import PartitionerError
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate
from repro.query.groupby import GroupByQuery

from tests.conftest import SENSOR_ROWS, SENSOR_SCHEMA, planted_sum_table
from repro.table.table import Table


def sensor_problem(perturbation: str, **kwargs) -> ScorpionQuery:
    table = Table.from_rows(SENSOR_SCHEMA, SENSOR_ROWS)
    return ScorpionQuery(
        table, GroupByQuery("time", Avg(), "temp"),
        outliers=["12PM", "1PM"], holdouts=["11AM"],
        error_vectors=+1.0, perturbation=perturbation, **kwargs)


class TestMeanPerturbationSemantics:
    def test_unknown_mode_rejected(self):
        with pytest.raises(PartitionerError):
            sensor_problem("zap")

    def test_mean_delta_avg_formula(self):
        # 12PM group: (35, 35, 100), mean 56.67.  Imputing T6 to the mean
        # gives avg (35 + 35 + 56.67)/3 = 42.22 → Δ = 14.44.
        problem = sensor_problem("mean")
        scorer = InfluenceScorer(problem)
        ctx = next(c for c in scorer.outlier_contexts if c.key == ("12PM",))
        delta = scorer.kernel.delta(ctx, np.asarray([False, False, True]))
        assert delta == pytest.approx(56.667 - 42.222, abs=1e-3)

    def test_mean_mode_full_coverage_is_valid(self):
        # Deleting a whole AVG group is invalid; imputing it is fine
        # (every value becomes the mean; the average is unchanged).
        problem = sensor_problem("mean")
        scorer = InfluenceScorer(problem)
        ctx = scorer.outlier_contexts[0]
        delta = scorer.kernel.delta(ctx, np.ones(3, dtype=bool))
        assert delta == pytest.approx(0.0, abs=1e-9)

    def test_delete_mode_full_coverage_still_invalid(self):
        problem = sensor_problem("delete")
        scorer = InfluenceScorer(problem)
        assert scorer.score(Predicate.true()) == INVALID_INFLUENCE

    def test_mean_mode_stddev_full_coverage_zeroes_spread(self):
        table = Table.from_rows(SENSOR_SCHEMA, SENSOR_ROWS)
        problem = ScorpionQuery(
            table, GroupByQuery("time", StdDev(), "temp"),
            outliers=["12PM"], error_vectors=+1.0, perturbation="mean")
        scorer = InfluenceScorer(problem)
        ctx = scorer.outlier_contexts[0]
        delta = scorer.kernel.delta(ctx, np.ones(3, dtype=bool))
        # All values imputed to the mean → stddev 0 → Δ = original stddev.
        assert delta == pytest.approx(ctx.total_value)

    @pytest.mark.parametrize("aggregate", [Sum(), Avg(), StdDev()])
    def test_incremental_matches_recompute_in_mean_mode(self, aggregate):
        table = Table.from_rows(SENSOR_SCHEMA, SENSOR_ROWS)
        problem = ScorpionQuery(
            table, GroupByQuery("time", aggregate, "temp"),
            outliers=["12PM", "1PM"], holdouts=["11AM"],
            error_vectors=+1.0, perturbation="mean")
        fast = InfluenceScorer(problem, use_incremental=True)
        slow = InfluenceScorer(problem, use_incremental=False)
        p = Predicate([SetClause("sensorid", [2, 3])])
        assert fast.score(p) == pytest.approx(slow.score(p), rel=1e-9)

    def test_tuple_deltas_mean_mode(self):
        problem = sensor_problem("mean")
        scorer = InfluenceScorer(problem)
        ctx = next(c for c in scorer.outlier_contexts if c.key == ("12PM",))
        deltas = scorer.tuple_deltas(ctx)
        # Imputing T4 (35 → 56.67) raises the average: Δ negative.
        assert deltas[0] == pytest.approx(56.667 - 63.889, abs=1e-2)
        # Imputing T6 (100 → 56.67) lowers it by 14.44.
        assert deltas[2] == pytest.approx(14.444, abs=1e-2)

    def test_with_c_preserves_mode(self):
        problem = sensor_problem("mean")
        assert problem.with_c(0.2).perturbation == "mean"


class TestMeanPerturbationEndToEnd:
    def test_scorpion_explains_in_mean_mode(self):
        problem = sensor_problem("mean", c=0.5)
        result = Scorpion(partitioner=DTPartitioner(min_leaf_size=2)).explain(problem)
        best = result.best
        mask = best.predicate.mask(problem.table)
        assert mask[5] and mask[8]
        # The updated outputs reflect imputation, not deletion.
        assert best.updated_outliers[("12PM",)] == pytest.approx(42.222, abs=1e-2)

    def test_mc_supports_mean_mode(self):
        table, outliers, holdouts = planted_sum_table(n_per_group=120)
        problem = ScorpionQuery(table, GroupByQuery("g", Sum(), "value"),
                                outliers=outliers, holdouts=holdouts,
                                error_vectors=+1.0, c=1.0,
                                perturbation="mean")
        result = Scorpion(algorithm="mc").explain(problem)
        assert result.best is not None
        clause = result.best.predicate.clause_for("state")
        assert clause is not None and "TX" in clause.values


class TestEarlyPruning:
    def _problem(self, seed=0):
        rng = np.random.default_rng(seed)
        n_groups, per_group = 4, 600
        n = n_groups * per_group
        groups = np.repeat([f"g{i}" for i in range(n_groups)], per_group)
        x = rng.uniform(0, 100, n)
        y = rng.uniform(0, 100, n)
        # High-variance but uninfluential background noise + a hot corner.
        value = rng.normal(10, 4, n)
        hot = np.isin(groups, ["g0", "g1"]) & (x > 80) & (y > 80)
        value[hot] += 60
        from repro.table import ColumnKind, ColumnSpec, Schema
        table = Table.from_columns(
            Schema([ColumnSpec("g", ColumnKind.DISCRETE),
                    ColumnSpec("x", ColumnKind.CONTINUOUS),
                    ColumnSpec("y", ColumnKind.CONTINUOUS),
                    ColumnSpec("v", ColumnKind.CONTINUOUS)]),
            {"g": groups, "x": x, "y": y, "v": value})
        return ScorpionQuery(table, GroupByQuery("g", Avg(), "v"),
                             outliers=["g0", "g1"], holdouts=["g2", "g3"],
                             error_vectors=+1.0, c=0.3)

    def test_prunable_rule_directly(self):
        # A node whose best sampled influence sits below the fraction of
        # the group's max (in every group) is prunable; a node holding a
        # near-max tuple is not.
        from repro.core.dt import _GroupData
        influences = np.asarray([0.0, 1.0, 2.0, 10.0])
        group = _GroupData(context=None, values={}, influences=influences)
        group.inf_lo, group.inf_hi = 0.0, 10.0
        dt = DTPartitioner(early_prune_fraction=0.5)
        # Each node passes its sampled influences, one array per group.
        cold = [influences[[0, 1, 2]]]
        hot = [influences[[2, 3]]]
        assert dt._early_prunable(cold, [group])
        assert not dt._early_prunable(hot, [group])

    def test_pruning_never_grows_the_partitioning(self):
        problem = self._problem()
        plain = DTPartitioner(seed=0).run(problem)
        pruned = DTPartitioner(seed=0, early_prune_fraction=0.5).run(problem)
        assert len(pruned.candidates) <= len(plain.candidates)

    def test_hot_region_survives_early_pruning(self):
        problem = self._problem()
        result = Scorpion(partitioner=DTPartitioner(
            seed=0, early_prune_fraction=0.3)).explain(problem)
        x_clause = result.best.predicate.clause_for("x")
        y_clause = result.best.predicate.clause_for("y")
        assert x_clause is not None and x_clause.lo >= 60
        assert y_clause is not None and y_clause.lo >= 60

    def test_disabled_by_default(self):
        assert DTPartitioner().params.early_prune_fraction == 0.0
