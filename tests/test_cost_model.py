"""The planner's cost model (:mod:`repro.index.cost`).

Three layers of lock-down:

* **properties** — the route formulas are monotone in every size
  parameter (a bigger workload never gets cheaper), so a wrong constant
  can shift a routing threshold but never invert the ordering within
  one route;
* **argmin** — the planner's routing decision always agrees with the
  priced comparison it claims to make: a predicate lands on a tier iff
  that tier's estimate is no worse than the mask kernel's (no dominated
  route is ever selected);
* **regression** — the shipped :data:`DEFAULT_CONSTANTS` make the
  decisions the benchmarks rely on at the ``BENCH_scorer.json`` shape
  (10 groups x 500 rows): singles on the index, narrow conjunction
  probes on the conjunction tier, full-domain probes on the mask
  kernel.

The process default routes from exactly those constants: a fresh
scorer prices with :data:`DEFAULT_CONSTANTS`, so routing never depends
on machine speed.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.influence import InfluenceScorer
from repro.core.scorpion import Scorpion
from repro.index import (
    DEFAULT_CONSTANTS,
    CostModel,
    IndexPlanner,
    PrefixAggregateIndex,
    force_index_model,
    force_mask_model,
)
from repro.index import cost
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate

BENCH_GROUPS, BENCH_GROUP_SIZE = 10, 500


def build_index(n_groups: int, group_size: int,
                seed: int = 7) -> PrefixAggregateIndex:
    """A synthetic exactly-summable index: two continuous attributes
    and one 16-code discrete attribute, integer per-row weights."""
    rng = np.random.default_rng(seed)
    n = n_groups * group_size
    slices = [(g * group_size, (g + 1) * group_size)
              for g in range(n_groups)]
    states = np.stack([rng.integers(1, 50, n).astype(np.float64),
                       np.ones(n)], axis=1)
    codes = rng.integers(0, 16, n).astype(np.int64)
    index = PrefixAggregateIndex(
        {"a": rng.uniform(0.0, 100.0, n),
         "b": rng.uniform(0.0, 100.0, n)},
        slices,
        [states[lo:hi] for lo, hi in slices],
        codes_by_attr={"d": codes},
        code_tables={"d": {value: value for value in range(16)}},
    )
    index.ensure("a")
    index.ensure("b")
    index.ensure_discrete("d")
    return index


@pytest.fixture(scope="module")
def bench_index() -> PrefixAggregateIndex:
    return build_index(BENCH_GROUPS, BENCH_GROUP_SIZE)


def planner_for(index: PrefixAggregateIndex) -> IndexPlanner:
    """A fresh planner pinned to the shipped constants (independent of
    any model a test installs process-wide)."""
    return IndexPlanner(index, CostModel(DEFAULT_CONSTANTS))


# ----------------------------------------------------------------------
# Formula properties
# ----------------------------------------------------------------------
class TestCostMonotonicity:
    """Every route estimate is non-decreasing in every size parameter
    and strictly positive — the orderings routing relies on."""

    model = CostModel(DEFAULT_CONSTANTS)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 1_000_000), k=st.integers(0, 1_000_000),
           dn=st.integers(0, 1_000_000), dk=st.integers(0, 1_000_000),
           q_r=st.integers(0, 4), q_s=st.integers(0, 4))
    def test_mask_cost(self, n, k, dn, dk, q_r, q_s):
        k = min(k, n)
        base = self.model.mask_cost(n, k, q_r, q_s)
        assert base > 0
        assert self.model.mask_cost(n + dn, k, q_r, q_s) >= base
        assert self.model.mask_cost(n, k + dk, q_r, q_s) >= base
        assert self.model.mask_cost(n, k, q_r + 1, q_s) >= base
        assert self.model.mask_cost(n, k, q_r, q_s + 1) >= base

    @settings(max_examples=80, deadline=None)
    @given(groups=st.integers(1, 100_000), k=st.integers(0, 1_000_000),
           dg=st.integers(0, 100_000), dk=st.integers(0, 1_000_000),
           exact=st.booleans())
    def test_range_cost(self, groups, k, dg, dk, exact):
        base = self.model.range_cost(groups, k, exact)
        assert base > 0
        assert self.model.range_cost(groups + dg, k, exact) >= base
        assert self.model.range_cost(groups, k + dk, exact) >= base
        # The all-exact prefix tier never costs more than gathering.
        assert self.model.range_cost(groups, k, True) <= base

    @settings(max_examples=80, deadline=None)
    @given(groups=st.integers(1, 100_000), codes=st.integers(0, 4096),
           k=st.integers(0, 1_000_000), dg=st.integers(0, 100_000),
           dc=st.integers(0, 4096), dk=st.integers(0, 1_000_000),
           exact=st.booleans())
    def test_set_cost(self, groups, codes, k, dg, dc, dk, exact):
        base = self.model.set_cost(groups, codes, k, exact)
        assert base > 0
        assert self.model.set_cost(groups + dg, codes, k, exact) >= base
        assert self.model.set_cost(groups, codes + dc, k, exact) >= base
        assert self.model.set_cost(groups, codes, k + dk, exact) >= base
        assert self.model.set_cost(groups, codes, k, True) <= base

    @settings(max_examples=80, deadline=None)
    @given(groups=st.integers(1, 100_000), k=st.integers(0, 1_000_000),
           codes=st.integers(0, 4096), dg=st.integers(0, 100_000),
           dk=st.integers(0, 1_000_000), dc=st.integers(0, 4096))
    def test_conjunction_cost(self, groups, k, codes, dg, dk, dc):
        base = self.model.conjunction_cost(groups, k, True, codes)
        assert base > 0
        assert self.model.conjunction_cost(groups + dg, k, True,
                                           codes) >= base
        assert self.model.conjunction_cost(groups, k + dk, True,
                                           codes) >= base
        assert self.model.conjunction_cost(groups, k, True,
                                           codes + dc) >= base
        # A range probe is a set probe minus the per-code lookups.
        assert self.model.conjunction_cost(groups, k, False) <= base

    def test_equal_constants_price_identically(self):
        other = CostModel(dataclasses.replace(DEFAULT_CONSTANTS))
        assert other.mask_cost(5000, 250) == self.model.mask_cost(5000, 250)
        assert other.conjunction_cost(10, 100, True, 4) == \
            self.model.conjunction_cost(10, 100, True, 4)


class TestChooseShardSize:
    """The parallel shard size is deterministic pure arithmetic with
    sane bounds — the parallel executor's serial-equality proof leans
    on every process computing the same answer."""

    model = CostModel(DEFAULT_CONSTANTS)

    def test_degenerate_shapes_decline(self):
        assert self.model.choose_shard_size(0, 10_000, 4, 8) == 8
        assert self.model.choose_shard_size(16, 10_000, 1, 8) == 8
        assert self.model.choose_shard_size(16, 0, 4, 8) == 8

    def test_saturated_predicate_axis_declines(self):
        # 64 predicates / chunk 8 = 8 shards >= 2 x 4 workers.
        assert self.model.choose_shard_size(64, 100_000, 4, 8) == 8

    def test_tiny_shards_decline(self):
        # Almost no rows: a shard's work would be dwarfed by pool
        # dispatch overhead.
        assert self.model.choose_shard_size(4, 64, 4, 8) == 8

    def test_few_predicates_many_rows_splits(self):
        size = self.model.choose_shard_size(4, 1_000_000, 4, 8)
        assert 1 <= size < 8

    @settings(max_examples=100, deadline=None)
    @given(n_predicates=st.integers(0, 512),
           n_rows=st.integers(0, 2_000_000), workers=st.integers(1, 16),
           batch_chunk=st.integers(1, 1024))
    def test_deterministic_and_bounded(self, n_predicates, n_rows,
                                       workers, batch_chunk):
        first = self.model.choose_shard_size(n_predicates, n_rows,
                                             workers, batch_chunk)
        again = self.model.choose_shard_size(n_predicates, n_rows,
                                             workers, batch_chunk)
        assert first == again
        assert 1 <= first <= batch_chunk
        if first < batch_chunk:
            # A split never cuts more than 2 x workers shards.
            assert -(-n_predicates // first) <= 2 * workers


# ----------------------------------------------------------------------
# Argmin: routing always matches the priced comparison
# ----------------------------------------------------------------------
class TestArgminNeverDominated:
    @settings(max_examples=60, deadline=None)
    @given(lo1=st.floats(0.0, 95.0), w1=st.floats(0.1, 100.0),
           lo2=st.floats(0.0, 95.0), w2=st.floats(0.1, 100.0))
    def test_conjunction_routing_matches_prices(self, bench_index,
                                                lo1, w1, lo2, w2):
        predicate = Predicate([
            RangeClause("a", lo1, min(lo1 + w1, 100.0)),
            RangeClause("b", lo2, min(lo2 + w2, 100.0)),
        ])
        planner = planner_for(bench_index)
        route = planner.partition([predicate])
        model = planner.cost_model
        k_probe = min(bench_index.estimate_clause_count(c)
                      for c in predicate.clauses)
        tier = model.conjunction_cost(bench_index.n_groups, k_probe, False)
        mask = model.mask_cost(bench_index.n_labeled_rows, k_probe / 2,
                               n_range_clauses=2)
        if tier <= mask:
            assert [p for p, _ in route.conjunctions] == [predicate]
            assert route.cost_routed_conj == 1
            assert route.conjunction_fallbacks == 0
        else:
            assert route.masked == [predicate]
            assert route.cost_routed_mask == 1
            assert route.conjunction_fallbacks == 1

    def test_probe_is_the_rarer_side(self, bench_index):
        rare = RangeClause("a", 10.0, 11.0)
        common = RangeClause("b", 0.0, 100.0)
        planner = planner_for(bench_index)
        plan = planner.plan_conjunction(Predicate([common, rare]))
        assert plan is not None
        assert plan.probe == rare
        assert plan.other == common
        assert plan.probe_count == bench_index.estimate_clause_count(rare)

    def test_single_decisions_match_prices(self, bench_index):
        planner = planner_for(bench_index)
        model = planner.cost_model
        n = bench_index.n_labeled_rows
        groups = bench_index.n_groups
        exact = bench_index.all_exact
        assert planner.single_range_decision() == (
            model.range_cost(groups, n, exact)
            <= model.mask_cost(n, n, n_range_clauses=1))
        assert planner.single_set_decision(4) == (
            model.set_cost(groups, 4, n, exact)
            <= model.mask_cost(n, n, n_range_clauses=0, n_set_clauses=1))


# ----------------------------------------------------------------------
# Regression: shipped constants at the benchmark shape
# ----------------------------------------------------------------------
class TestDefaultRoutingRegression:
    """Pin the decisions ``BENCH_scorer.json`` depends on.  If a
    constants change flips one of these, the benchmark bars move — this
    failure names the decision that did it."""

    def test_singles_route_to_index(self, bench_index):
        planner = planner_for(bench_index)
        route = planner.partition([
            Predicate([RangeClause("a", 20.0, 30.0)]),
            Predicate([SetClause("d", [1, 2, 3])]),
        ])
        assert len(route.ranges) == 1
        assert len(route.sets) == 1
        assert route.cost_routed_prefix == 1
        assert route.cost_routed_bucket == 1
        assert route.cost_routed_mask == 0

    def test_narrow_conjunction_routes_to_conj_tier(self, bench_index):
        planner = planner_for(bench_index)
        narrow = Predicate([RangeClause("a", 40.0, 44.0),
                            RangeClause("b", 0.0, 100.0)])
        route = planner.partition([narrow])
        assert route.cost_routed_conj == 1
        assert route.conjunction_fallbacks == 0

    def test_full_domain_conjunction_routes_to_mask(self, bench_index):
        planner = planner_for(bench_index)
        wide = Predicate([RangeClause("a", 0.0, 100.0),
                          RangeClause("b", 0.0, 100.0)])
        route = planner.partition([wide])
        assert route.masked == [wide]
        assert route.cost_routed_mask == 1
        assert route.conjunction_fallbacks == 1

    def test_small_fixture_conjunctions_prefer_mask(self):
        """At the golden-test shape (4 groups x 120 rows) even narrow
        conjunction probes stay on the mask kernel — the reason
        tier-engagement tests pin :func:`force_index_model`."""
        small = build_index(4, 120)
        planner = planner_for(small)
        narrow = Predicate([RangeClause("a", 40.0, 44.0),
                            RangeClause("b", 0.0, 100.0)])
        route = planner.partition([narrow])
        assert route.masked == [narrow]
        assert route.cost_routed_mask == 1

    def test_forced_models_override_economics(self, bench_index):
        wide = Predicate([RangeClause("a", 0.0, 100.0),
                          RangeClause("b", 0.0, 100.0)])
        single = Predicate([RangeClause("a", 20.0, 30.0)])
        forced_index = IndexPlanner(bench_index, force_index_model())
        route = forced_index.partition([wide, single])
        assert route.cost_routed_conj == 1
        assert len(route.ranges) == 1
        forced_mask = IndexPlanner(bench_index, force_mask_model())
        route = forced_mask.partition([wide, single])
        assert route.indexed_total == 0
        assert route.cost_routed_mask == 2


# ----------------------------------------------------------------------
# Active-group restriction: the tier kernels under outlier-only scoring
# ----------------------------------------------------------------------
class TestActiveGroupsRestriction:
    """``active_groups=N`` — the scorer's outlier-only scoring — must
    return full-width arrays that equal the unrestricted answer in the
    first ``N`` groups and zero after them.  Asserted directly here on
    every tier kernel."""

    ACTIVE = 7

    def assert_restricted(self, full, restricted):
        n = self.ACTIVE
        for whole, part in zip(full, restricted):
            assert part.shape == whole.shape
            np.testing.assert_array_equal(part[:, :n], whole[:, :n])
            assert not part[:, n:].any()

    def test_range_tier(self, bench_index):
        los, his = np.asarray([10.0, 0.0]), np.asarray([30.0, 100.0])
        closed = np.asarray([True, False])
        self.assert_restricted(
            bench_index.range_group_stats("a", los, his, closed),
            bench_index.range_group_stats("a", los, his, closed,
                                          active_groups=self.ACTIVE))

    def test_set_tier(self, bench_index):
        wanted = [np.asarray([1, 5], dtype=np.int64),
                  np.asarray([0], dtype=np.int64)]
        self.assert_restricted(
            bench_index.set_group_stats("d", wanted),
            bench_index.set_group_stats("d", wanted,
                                        active_groups=self.ACTIVE))

    def test_conjunction_tier(self, bench_index):
        plans = [(RangeClause("a", 40.0, 44.0),
                  RangeClause("b", 0.0, 50.0))]
        self.assert_restricted(
            bench_index.conjunction_group_stats(plans),
            bench_index.conjunction_group_stats(plans,
                                                active_groups=self.ACTIVE))

    def test_oversized_count_clips(self, bench_index):
        los, his = np.asarray([10.0]), np.asarray([30.0])
        closed = np.asarray([True])
        full = bench_index.range_group_stats("a", los, his, closed)
        clipped = bench_index.range_group_stats(
            "a", los, his, closed, active_groups=bench_index.n_groups + 5)
        for whole, part in zip(full, clipped):
            np.testing.assert_array_equal(part, whole)


# ----------------------------------------------------------------------
# The process default
# ----------------------------------------------------------------------
class TestSharedModel:
    def test_scorers_route_from_the_shipped_constants(self, sum_problem,
                                                      monkeypatch):
        """With no ``SCORPION_*`` variable set, every scorer prices from
        :data:`DEFAULT_CONSTANTS` and an explain spends no time in the
        cost model: it records no span of its own."""
        for name in [n for n in os.environ if n.startswith("SCORPION_")]:
            monkeypatch.delenv(name)
        cost.set_shared(None)  # drop any model an earlier test installed
        result = Scorpion(algorithm="mc", trace=True).explain(sum_problem)
        assert sum(value for key, value in result.scorer_stats.items()
                   if key.startswith("cost_routed_")) > 0
        names = {sp["name"] for sp in result.trace}
        assert not [n for n in names if n.startswith("cost")], names

        scorer = InfluenceScorer(sum_problem)
        scorer.score_batch([Predicate([RangeClause("a1", 40.0, 60.0)])])
        assert scorer.planner.cost_model.constants == DEFAULT_CONSTANTS
        assert scorer.planner.cost_model is CostModel.shared()
