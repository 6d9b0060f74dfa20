"""Unit tests for the DT partitioner (paper Section 6.1)."""

import numpy as np
import pytest

from repro.aggregates import Avg, Median
from repro.core.dt import DTParams, DTPartitioner, _GroupData
from repro.core.influence import InfluenceScorer
from repro.core.problem import ScorpionQuery
from repro.errors import PartitionerError
from repro.query.groupby import GroupByQuery
from repro.table import ColumnKind, ColumnSpec, Schema, Table


def avg_problem(seed=0, n_per_group=300, with_holdouts=True, c=0.5):
    """AVG workload: groups g0/g1 carry hot tuples in x ∈ [40, 60]."""
    rng = np.random.default_rng(seed)
    n_groups = 4
    n = n_per_group * n_groups
    groups = np.repeat([f"g{i}" for i in range(n_groups)], n_per_group)
    x = rng.uniform(0, 100, n)
    y = rng.uniform(0, 100, n)
    value = rng.normal(10, 1, n)
    hot = np.isin(groups, ["g0", "g1"]) & (x >= 40) & (x <= 60)
    value[hot] += 80.0
    table = Table.from_columns(
        Schema([ColumnSpec("g", ColumnKind.DISCRETE),
                ColumnSpec("x", ColumnKind.CONTINUOUS),
                ColumnSpec("y", ColumnKind.CONTINUOUS),
                ColumnSpec("v", ColumnKind.CONTINUOUS)]),
        {"g": groups, "x": x, "y": y, "v": value})
    return ScorpionQuery(
        table=table,
        query=GroupByQuery("g", Avg(), "v"),
        outliers=["g0", "g1"],
        holdouts=["g2", "g3"] if with_holdouts else [],
        error_vectors=+1.0,
        c=c,
    )


class TestValidation:
    def test_requires_independent_aggregate(self, sensors_table):
        query = GroupByQuery("time", Median(), "temp")
        problem = ScorpionQuery(sensors_table, query, outliers=["12PM"])
        with pytest.raises(PartitionerError, match="independent"):
            DTPartitioner().run(problem)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(PartitionerError):
            DTPartitioner(no_such_knob=1)

    def test_bad_tau_rejected(self):
        with pytest.raises(PartitionerError):
            DTPartitioner(tau_min=0.9, tau_max=0.1)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(PartitionerError):
            DTPartitioner(epsilon=1.5)

    def test_overrides_leave_callers_params_untouched(self):
        params = DTParams()
        dt = DTPartitioner(params, max_depth=3)
        assert params.max_depth == DTParams().max_depth
        assert dt.params.max_depth == 3
        assert dt.params is not params

    @pytest.mark.parametrize("override", [
        {"max_leaves": 0}, {"max_leaves": -1}, {"max_depth": -1},
        {"max_split_candidates": 0}, {"max_split_candidates": -1}])
    def test_degenerate_tree_caps_rejected(self, override):
        # Each cap would silently collapse DT to one whole-domain
        # candidate (no threshold or value would ever be searched).
        (name,) = override
        with pytest.raises(PartitionerError, match=name):
            DTPartitioner(**override)
        with pytest.raises(PartitionerError, match=name):
            DTPartitioner(DTParams(**override))


class TestThresholdCurve:
    """Section 6.1.1 / Figure 4: the error threshold shrinks to τ_min as
    the partition's max influence approaches the group's global max."""

    def _group(self, influences):
        influences = np.asarray(influences, dtype=np.float64)
        group = _GroupData(context=None, values={}, influences=influences)
        group.inf_lo = float(influences.min())
        group.inf_hi = float(influences.max())
        return group

    def test_tight_for_influential_partitions(self):
        dt = DTPartitioner()
        group = self._group(np.linspace(0, 100, 11))
        hot = dt._threshold(group, np.asarray([95.0, 100.0]))
        cold = dt._threshold(group, np.asarray([5.0, 10.0]))
        assert hot < cold

    def test_bounds_are_tau_times_spread(self):
        dt = DTPartitioner(tau_min=0.1, tau_max=0.4)
        group = self._group(np.linspace(0, 10, 11))
        hot = dt._threshold(group, np.asarray([10.0]))
        cold = dt._threshold(group, np.asarray([0.0]))
        assert hot == pytest.approx(0.1 * 10.0)
        assert cold == pytest.approx(0.4 * 10.0)

    def test_inflection_midpoint(self):
        dt = DTPartitioner(tau_min=0.1, tau_max=0.4, p_inflection=0.5)
        group = self._group(np.linspace(0, 10, 11))
        at_midpoint = dt._threshold(group, np.asarray([5.0]))
        assert at_midpoint == pytest.approx(0.4 * 10.0)

    def test_constant_influences_zero_threshold(self):
        dt = DTPartitioner()
        group = self._group(np.full(5, 3.0))
        assert dt._threshold(group, np.asarray([3.0])) == 0.0


class TestSampling:
    def test_initial_rate_formula(self):
        dt = DTPartitioner(epsilon=0.005, min_sample_size=1)
        rate = dt._initial_sample_rate(2000)
        # 1 − (1 − ε)^(rate·n) ≥ 0.95
        assert 1 - (1 - 0.005) ** (rate * 2000) >= 0.95 - 1e-9
        # And it is minimal up to rounding.
        assert 1 - (1 - 0.005) ** ((rate * 0.95) * 2000) < 0.95

    def test_rate_clipped_to_one(self):
        dt = DTPartitioner(epsilon=0.005)
        assert dt._initial_sample_rate(10) == 1.0

    def test_sampling_disabled(self):
        dt = DTPartitioner(sampling=False)
        assert dt._initial_sample_rate(100000) == 1.0

    def test_min_sample_size_floor(self):
        dt = DTPartitioner(epsilon=0.5, min_sample_size=50)
        assert dt._initial_sample_rate(1000) >= 0.05


class TestPartitioning:
    def test_finds_planted_region(self):
        problem = avg_problem()
        result = DTPartitioner(seed=1).run(problem)
        assert result.candidates, "expected candidates"
        # The partitioner emits fine partitions (the Merger coarsens
        # them): its best-scoring fragment must lie inside the planted
        # x ∈ [40, 60] region …
        best = max(result.candidates, key=lambda c: c.score)
        clause = best.predicate.clause_for("x")
        assert clause is not None
        assert clause.lo >= 35 and clause.hi <= 65
        # … and the high-scoring fragments together must cover it.
        positives = [c.predicate.clause_for("x") for c in result.candidates
                     if c.score > best.score / 4]
        assert min(c.lo for c in positives) <= 42
        assert max(c.hi for c in positives) >= 58

    def test_candidate_stats_consistent(self):
        problem = avg_problem(n_per_group=150)
        scorer = InfluenceScorer(problem)
        result = DTPartitioner(seed=1).run(problem, scorer)
        for candidate in result.candidates:
            mask = candidate.predicate.mask(problem.table)
            total = 0
            for ctx in scorer.outlier_contexts:
                matched = int(mask[ctx.indices].sum())
                stats = (candidate.group_stats or {}).get(ctx.key)
                if stats is None:
                    assert matched == 0
                else:
                    assert stats.count == matched
                total += matched
            assert total > 0, "candidates must match at least one outlier row"

    def test_partitions_have_homogeneous_influence(self):
        problem = avg_problem(n_per_group=400, with_holdouts=False)
        scorer = InfluenceScorer(problem)
        dt = DTPartitioner(seed=0, max_leaves=64)
        dt._query = problem
        dt._scorer = scorer
        dt._rng = np.random.default_rng(0)
        groups = [dt._prepare_group(scorer, ctx) for ctx in scorer.outlier_contexts]
        partitions = dt._partition(groups)
        assert len(partitions) > 1
        # Hot and cold tuples should not share the influential partitions.
        # Leaves hold pooled ids: row r of group g is offsets[g] + r.
        offsets = np.cumsum([0] + [group.size for group in groups])
        spreads = []
        for partition in partitions:
            for group, lo, hi in zip(groups, offsets[:-1], offsets[1:]):
                rows = partition.rows[(partition.rows >= lo) & (partition.rows < hi)] - lo
                if len(rows) >= 2:
                    spreads.append(np.ptp(group.influences[rows]))
        global_spread = max(g.inf_hi - g.inf_lo for g in groups)
        assert min(spreads) < global_spread / 4

    def test_max_leaves_cap(self):
        problem = avg_problem(n_per_group=400)
        result = DTPartitioner(max_leaves=8, seed=0).run(problem)
        # Leaves per tree bounded; combination may split further.
        assert len(result.candidates) <= 8 * 16

    def test_deterministic_given_seed(self):
        problem = avg_problem()
        a = DTPartitioner(seed=7).run(problem)
        b = DTPartitioner(seed=7).run(problem)
        assert [c.predicate for c in a.candidates] == [c.predicate for c in b.candidates]

    def test_no_holdouts_skips_combination(self):
        problem = avg_problem(with_holdouts=False)
        result = DTPartitioner(seed=1).run(problem)
        assert result.candidates

    def test_holdout_combination_produces_pieces(self):
        problem = avg_problem()
        with_h = DTPartitioner(seed=1).run(problem)
        assert with_h.candidates
        # All candidate predicates constrain only A_rest attributes.
        for candidate in with_h.candidates:
            assert set(candidate.predicate.attributes) <= set(problem.attributes)


class TestEndToEnd:
    def test_kept_partitioner_releases_the_problem(self):
        # A caller that keeps the partitioner (and its Scorpion) must not
        # keep the last problem's table or scorer alive.  No DT cache:
        # it holds its table on purpose.
        import gc
        import weakref

        from repro.core.scorpion import Scorpion

        dt = DTPartitioner(seed=0)
        scorpion = Scorpion(partitioner=dt, use_cache=False)
        problem = avg_problem(n_per_group=100)
        table = weakref.ref(problem.raw_table)
        assert scorpion.explain(problem).explanations
        del problem
        gc.collect()
        assert table() is None

    def test_paper_example_with_tiny_params(self, paper_problem):
        result = DTPartitioner(min_leaf_size=2, seed=0).run(paper_problem)
        assert result.candidates
        best = max(result.candidates, key=lambda c: c.score)
        mask = best.predicate.mask(paper_problem.table)
        # The top partition must isolate the sensor-3 anomalies.
        assert mask[5] and mask[8]

    def test_black_box_independent_aggregate_supported(self, sensors_table):
        # A user-defined independent aggregate without incremental removal
        # exercises the sampled O(n²) influence path.
        class SlowAvg(Avg):
            name = "slowavg"
            is_incrementally_removable = False

            def compute(self, values):
                values = np.asarray(values, dtype=np.float64)
                if len(values) == 0:
                    raise PartitionerError("undefined")
                return float(np.mean(values))

            def state(self, values):  # pragma: no cover - defensive
                raise AssertionError("state must not be used")

            def tuple_states(self, values):
                raise AssertionError("tuple_states must not be used")

        query = GroupByQuery("time", SlowAvg(), "temp")
        problem = ScorpionQuery(sensors_table, query, outliers=["12PM"],
                                error_vectors=+1.0)
        scorer = InfluenceScorer(problem)
        assert not scorer.uses_incremental
        result = DTPartitioner(min_leaf_size=2, seed=0).run(problem, scorer)
        assert result.candidates
