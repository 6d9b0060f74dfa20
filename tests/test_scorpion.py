"""Unit tests for the Scorpion facade (Figure 2's pipeline)."""

import math

import numpy as np
import pytest

from repro.aggregates import Avg, Median, StdDev, Sum
from repro.core.dt import DTPartitioner
from repro.core.influence import InfluenceScorer
from repro.core.naive import NaivePartitioner
from repro.core.partition import PartitionerResult, ScoredPredicate
from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Explanation, Scorpion
from repro.errors import PartitionerError
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate
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


def reference_explanation(scored: ScoredPredicate, scorer: InfluenceScorer,
                          query: ScorpionQuery) -> Explanation:
    """The per-group explanation loop the one-pass build replaced: the
    full-table mask, then the scalar ``delta`` per group."""
    predicate = query.domain.simplify(scored.predicate)
    mask = predicate.mask(scorer.table)
    updated_outliers = {}
    updated_holdouts = {}
    for context in scorer.contexts:
        local = mask[context.indices]
        delta = scorer.kernel.delta(context, local)
        updated = (context.total_value - delta
                   if np.isfinite(delta) else float("nan"))
        if context.is_outlier:
            updated_outliers[context.key] = updated
        else:
            updated_holdouts[context.key] = updated
    return Explanation(
        predicate=predicate,
        influence=scored.influence,
        n_matched=int(np.count_nonzero(mask)),
        updated_outliers=updated_outliers,
        updated_holdouts=updated_holdouts,
    )


#: Scorer counters the explanation pass must count as the scalar loop.
EXPLANATION_COUNTERS = ("incremental_deltas", "full_recomputes")


def hexes(values: dict) -> list:
    return [(key, float(value).hex()) for key, value in values.items()]


def assert_same_explanations(got, want) -> None:
    assert [e.predicate for e in got] == [e.predicate for e in want]
    assert [e.n_matched for e in got] == [e.n_matched for e in want]
    assert [e.influence for e in got] == [e.influence for e in want]
    for g, w in zip(got, want):
        assert hexes(g.updated_outliers) == hexes(w.updated_outliers)
        assert hexes(g.updated_holdouts) == hexes(w.updated_holdouts)


def assert_matches_reference(ranked, query, **scorer_kwargs):
    """``Scorpion._explanations`` against :func:`reference_explanation`
    on twin scorers: the same explanations, bit for bit, and the same
    Δ counters.  Returns the explanations."""
    batch = InfluenceScorer(query, **scorer_kwargs)
    scalar = InfluenceScorer(query, **scorer_kwargs)
    got = Scorpion._explanations(ranked, batch, query)
    want = [reference_explanation(sp, scalar, query) for sp in ranked]
    assert_same_explanations(got, want)
    for name in EXPLANATION_COUNTERS:
        assert getattr(batch.stats, name) == getattr(scalar.stats, name), name
    return got


class StubPartitioner:
    """Answers a fixed ranking without scoring anything."""

    name = "stub"

    def __init__(self, ranked):
        self.ranked = ranked

    def run(self, query, scorer):
        return PartitionerResult(ranked=list(self.ranked),
                                 n_evaluated=len(self.ranked))


def planted_query(aggregate, perturbation="delete", **kwargs):
    table, outliers, holdouts = planted_sum_table(seed=3, n_per_group=60)
    return ScorpionQuery(table, GroupByQuery("g", aggregate, "value"),
                         outliers=outliers, holdouts=holdouts,
                         error_vectors=+1.0, c=0.5,
                         perturbation=perturbation, **kwargs)


#: Predicates over the planted table: the hot region and its parts, a
#: full-domain clause that simplifies away, one matching no row, one
#: deleting every row, and one deleting exactly group g0.
PLANTED_PREDICATES = [
    Predicate([SetClause("state", ["TX"]), RangeClause("a1", 40.0, 60.0)]),
    Predicate([SetClause("state", ["TX"])]),
    Predicate([RangeClause("a1", 40.0, 60.0)]),
    Predicate([RangeClause("a1", -1.0, 101.0),
               SetClause("state", ["CA", "NY"])]),
    Predicate([RangeClause("a1", 200.0, 300.0)]),
    Predicate([]),
    Predicate([SetClause("g", ["g0"])]),
]


class TestExplanationPass:
    """The one-pass explanation build against the per-group loop."""

    @pytest.mark.parametrize("perturbation", ["delete", "mean"])
    @pytest.mark.parametrize("aggregate", [Sum, Avg, StdDev])
    def test_matches_per_group_loop(self, aggregate, perturbation):
        query = planted_query(aggregate(), perturbation)
        ranked = [ScoredPredicate(p, float(i))
                  for i, p in enumerate(PLANTED_PREDICATES)]
        got = assert_matches_reference(ranked, query)
        assert got[4].n_matched == 0
        assert got[5].n_matched == len(query.table)

    def test_emptied_avg_group_updates_to_nan(self):
        query = planted_query(Avg())
        ranked = [ScoredPredicate(PLANTED_PREDICATES[-1], 1.0)]
        (explanation,) = assert_matches_reference(ranked, query)
        assert math.isnan(explanation.updated_outliers[("g0",)])
        assert not math.isnan(explanation.updated_outliers[("g1",)])

    def test_median_through_naive(self):
        # A black-box aggregate: Δ recomputed per (explanation, group).
        query = planted_query(Median())
        scorer = InfluenceScorer(query)
        assert not scorer.uses_incremental
        ranked = NaivePartitioner(max_evaluations=300).run(
            query, scorer).ranked[:5]
        assert ranked
        assert_matches_reference(ranked, query)

    def test_stub_answer_outside_explanation_attributes(self):
        # The answer's attribute "state" is outside the query's
        # explanation attributes, so the labeled evaluator cannot read
        # it; its row comes from the full-table mask.
        query = planted_query(Avg(), "mean", attributes=("a1",))
        answer = [ScoredPredicate(PLANTED_PREDICATES[0], 2.0),
                  ScoredPredicate(Predicate([SetClause("state", ["TX"])]),
                                  1.0)]
        scorer = InfluenceScorer(query)
        assert not scorer.kernel.evaluator.supports_predicate(
            answer[0].predicate)
        result = Scorpion(partitioner=StubPartitioner(answer)).explain(query)
        assert result.algorithm == "stub"
        scalar = InfluenceScorer(query)
        assert_same_explanations(
            result.explanations,
            [reference_explanation(sp, scalar, query) for sp in answer])
        for name in EXPLANATION_COUNTERS:
            assert result.scorer_stats[name] == getattr(scalar.stats, name)


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

    def test_narrowing_keeps_the_perturbation(self):
        table, outliers, holdouts = planted_sum_table(seed=0,
                                                      n_per_group=200)
        data = {spec.name: table.values(spec.name) for spec in table.schema}
        data["noise"] = np.random.default_rng(0).uniform(0, 100, len(table))
        from repro.table import ColumnKind, ColumnSpec, Schema, Table
        noisy = Table.from_columns(
            Schema(list(table.schema)
                   + [ColumnSpec("noise", ColumnKind.CONTINUOUS)]), data)

        def problem(attributes=None):
            return ScorpionQuery(noisy, GroupByQuery("g", Avg(), "value"),
                                 outliers=outliers, holdouts=holdouts,
                                 error_vectors=+1.0, c=0.5,
                                 attributes=attributes, perturbation="mean")

        auto = Scorpion(algorithm="dt", auto_select_attributes=True,
                        use_cache=False)
        narrowed, scorer = auto.build_scorer(problem())
        assert len(narrowed.attributes) < len(problem().attributes)
        assert narrowed.perturbation == scorer.perturbation == "mean"
        # The same answer as a "mean" explain over the attributes chosen
        # by hand.
        by_hand = Scorpion(algorithm="dt", use_cache=False).explain(
            problem(narrowed.attributes))
        assert [(e.predicate, e.influence)
                for e in auto.explain(problem()).explanations] == \
            [(e.predicate, e.influence) for e in by_hand.explanations]


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
