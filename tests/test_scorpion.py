"""Unit tests for the Scorpion facade (Figure 2's pipeline)."""

import numpy as np
import pytest

from repro.aggregates import Avg, Median, StdDev, Sum
from repro.core.dt import DTPartitioner
from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion
from repro.errors import PartitionerError
from repro.query.groupby import GroupByQuery

from tests.conftest import planted_sum_table


class TestAlgorithmSelection:
    def test_auto_picks_mc_for_sum_non_negative(self, sum_problem):
        result = Scorpion().explain(sum_problem)
        assert result.algorithm == "mc"

    def test_auto_picks_dt_for_avg(self, paper_problem):
        result = Scorpion(partitioner=DTPartitioner(min_leaf_size=2)).explain(
            paper_problem)
        assert result.algorithm == "dt"

    def test_auto_picks_dt_when_check_fails(self):
        table, outliers, holdouts = planted_sum_table(n_per_group=60)
        # Negate one value so SUM's non-negativity check fails.
        values = table.values("value").copy()
        values[0] = -1.0
        from repro.table.table import Table
        from repro.table.column import Column
        columns = [table.column(n) if n != "value"
                   else Column(table.schema["value"], values)
                   for n in table.schema.names]
        negated = Table(columns)
        problem = ScorpionQuery(negated, GroupByQuery("g", Avg(), "value"),
                                outliers=outliers, holdouts=holdouts)
        scorpion = Scorpion()
        picked = scorpion._pick_partitioner(
            problem, __import__("repro.core.influence",
                                fromlist=["InfluenceScorer"]).InfluenceScorer(problem))
        assert isinstance(picked, DTPartitioner)

    def test_auto_picks_naive_for_black_box(self, sensors_table):
        query = GroupByQuery("time", Median(), "temp")
        problem = ScorpionQuery(sensors_table, query, outliers=["12PM"],
                                error_vectors=+1.0)
        scorpion = Scorpion(top_k=3)
        scorpion.partitioner = None
        from repro.core.naive import NaivePartitioner
        picked = scorpion._pick_partitioner(
            problem, __import__("repro.core.influence",
                                fromlist=["InfluenceScorer"]).InfluenceScorer(problem))
        assert isinstance(picked, NaivePartitioner)

    def test_forced_algorithm(self, sum_problem):
        result = Scorpion(algorithm="naive").explain(sum_problem)
        assert result.algorithm == "naive"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(PartitionerError):
            Scorpion(algorithm="zigzag")

    def test_bad_top_k_rejected(self):
        with pytest.raises(PartitionerError):
            Scorpion(top_k=0)


class TestExplanations:
    def test_paper_example_explanation(self, paper_problem):
        result = Scorpion(partitioner=DTPartitioner(min_leaf_size=2)).explain(
            paper_problem)
        best = result.best
        assert best is not None
        mask = best.predicate.mask(paper_problem.table)
        assert mask[5] and mask[8], "must remove the sensor-3 anomalies"

    def test_updated_outputs_look_normal(self, paper_problem):
        result = Scorpion(partitioner=DTPartitioner(min_leaf_size=2)).explain(
            paper_problem)
        best = result.best
        # Removing the explanation's tuples pulls 12PM/1PM back to ~35.
        for key in (("12PM",), ("1PM",)):
            assert best.updated_outliers[key] == pytest.approx(35.0, abs=1.0)

    def test_updated_holdouts_reported(self, paper_problem):
        result = Scorpion(partitioner=DTPartitioner(min_leaf_size=2)).explain(
            paper_problem)
        assert ("11AM",) in result.best.updated_holdouts

    def test_top_k_limits_explanations(self, sum_problem):
        result = Scorpion(algorithm="mc", top_k=2).explain(sum_problem)
        assert len(result.explanations) <= 2

    def test_explanations_sorted(self, sum_problem):
        result = Scorpion(algorithm="mc", top_k=5).explain(sum_problem)
        influences = [e.influence for e in result.explanations]
        assert influences == sorted(influences, reverse=True)

    def test_n_matched_counts_rows(self, sum_problem):
        result = Scorpion(algorithm="mc").explain(sum_problem)
        best = result.best
        assert best.n_matched == int(best.predicate.mask(sum_problem.table).sum())

    def test_predicates_simplified(self):
        # A full-domain clause must not survive into the explanation.
        table, outliers, holdouts = planted_sum_table(n_per_group=150)
        problem = ScorpionQuery(table, GroupByQuery("g", Sum(), "value"),
                                outliers=outliers, holdouts=holdouts, c=0.5)
        result = Scorpion(algorithm="dt").explain(problem)
        for explanation in result.explanations:
            for clause in explanation.predicate:
                full = problem.domain[clause.attribute].full_clause()
                assert not clause.contains(full)

    def test_result_metadata(self, sum_problem):
        result = Scorpion(algorithm="mc").explain(sum_problem)
        assert result.elapsed > 0
        assert result.scorer_stats["mask_scores"] > 0


class TestAutoAttributeSelection:
    """The Section 6.4 extension wired into the facade."""

    def _noisy_problem(self, seed=11):
        rng = np.random.default_rng(seed)
        n_groups, per_group = 4, 200
        n = n_groups * per_group
        groups = np.repeat([f"g{i}" for i in range(n_groups)], per_group)
        x = rng.uniform(0, 100, n)
        noise1 = rng.uniform(0, 100, n)
        noise2 = rng.choice(["p", "q", "r"], n)
        value = rng.normal(10, 1, n)
        hot = np.isin(groups, ["g0", "g1"]) & (x > 70)
        value[hot] += 60
        from repro.table import ColumnKind, ColumnSpec, Schema, Table
        table = Table.from_columns(
            Schema([ColumnSpec("g", ColumnKind.DISCRETE),
                    ColumnSpec("x", ColumnKind.CONTINUOUS),
                    ColumnSpec("noise1", ColumnKind.CONTINUOUS),
                    ColumnSpec("noise2", ColumnKind.DISCRETE),
                    ColumnSpec("v", ColumnKind.CONTINUOUS)]),
            {"g": groups, "x": x, "noise1": noise1, "noise2": noise2,
             "v": value})
        return ScorpionQuery(table, GroupByQuery("g", Avg(), "v"),
                             outliers=["g0", "g1"], holdouts=["g2", "g3"],
                             error_vectors=+1.0, c=0.3)

    def test_noise_attributes_dropped_from_explanations(self):
        problem = self._noisy_problem()
        scorpion = Scorpion(algorithm="dt", auto_select_attributes=True)
        result = scorpion.explain(problem)
        attrs = set(result.best.predicate.attributes)
        assert "x" in attrs or attrs <= {"x"}
        assert "noise1" not in attrs
        assert "noise2" not in attrs

    def test_same_answer_as_manual_selection(self):
        problem = self._noisy_problem()
        auto = Scorpion(algorithm="dt", auto_select_attributes=True).explain(problem)
        clause = auto.best.predicate.clause_for("x")
        assert clause is not None and clause.lo >= 60

    def test_disabled_by_default(self):
        problem = self._noisy_problem()
        scorpion = Scorpion(algorithm="dt")
        assert not scorpion.auto_select_attributes
        result = scorpion.explain(problem)
        assert result.best is not None


class TestRealisticPipelines:
    def test_stddev_pipeline(self):
        rng = np.random.default_rng(5)
        n_groups, per_group = 6, 200
        groups = np.repeat([f"h{i}" for i in range(n_groups)], per_group)
        sensor = rng.integers(1, 11, n_groups * per_group)
        temp = rng.normal(20, 1, n_groups * per_group)
        bad = np.isin(groups, ["h0", "h1"]) & (sensor == 7)
        temp[bad] = rng.uniform(90, 110, int(bad.sum()))
        from repro.table import ColumnKind, ColumnSpec, Schema, Table
        table = Table.from_columns(
            Schema([ColumnSpec("hour", ColumnKind.DISCRETE),
                    ColumnSpec("sensor", ColumnKind.DISCRETE),
                    ColumnSpec("temp", ColumnKind.CONTINUOUS)]),
            {"hour": groups, "sensor": sensor, "temp": temp})
        problem = ScorpionQuery(table, GroupByQuery("hour", StdDev(), "temp"),
                                outliers=["h0", "h1"],
                                holdouts=[f"h{i}" for i in range(2, 6)],
                                error_vectors=+1.0, c=0.5)
        result = Scorpion().explain(problem)
        assert result.algorithm == "dt"
        clause = result.best.predicate.clause_for("sensor")
        assert clause is not None and 7 in clause.values
