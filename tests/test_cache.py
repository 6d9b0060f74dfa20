"""Unit tests for DT partition caching across ``c`` (paper Section
8.3.3).

A cached DT explain must equal an uncached one, whatever the cache has
served before: only partitions are reused, and only for the same
problem and the same partitioner parameters.
"""

import copy
import gc

import numpy as np

from repro.aggregates import Sum
from repro.core import cache as cache_module
from repro.core.cache import DTCache, query_signature
from repro.core.dt import DTPartitioner
from repro.core.influence import InfluenceScorer
from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion
from repro.query.groupby import GroupByQuery
from repro.table import ColumnKind, ColumnSpec, Schema, Table

from tests.test_dt import avg_problem
from tests.test_service import explanation_image


class TestSignature:
    def test_signature_ignores_c(self):
        problem = avg_problem(n_per_group=60)
        assert query_signature(problem) == query_signature(problem.with_c(0.1))

    def test_signature_sees_lambda(self):
        problem = avg_problem(n_per_group=60)
        assert query_signature(problem) != \
            query_signature(problem.with_params(lam=0.9))

    def test_signature_sees_perturbation(self):
        problem = avg_problem(n_per_group=60)
        other = copy.copy(problem)
        other.perturbation = "mean"
        assert query_signature(problem) != query_signature(other)


class TestDTCache:
    def test_partitions_computed_once(self):
        problem = avg_problem(n_per_group=120)
        cache = DTCache()
        partitioner = DTPartitioner(seed=0)
        scorer = InfluenceScorer(problem)
        first, cold_elapsed = cache.candidates(problem, partitioner, scorer)
        second, warm_elapsed = cache.candidates(
            problem.with_c(0.1), partitioner,
            InfluenceScorer(problem.with_c(0.1)))
        assert cache.partition_misses == 1
        assert cache.partition_hits == 1
        assert [c.predicate for c in first] == [c.predicate for c in second]
        assert cold_elapsed > 0.0
        assert warm_elapsed == 0.0

    def test_clear(self):
        problem = avg_problem(n_per_group=60)
        cache = DTCache()
        cache.candidates(problem, DTPartitioner(seed=0), InfluenceScorer(problem))
        cache.clear()
        assert cache.partition_misses == 0
        cache.candidates(problem, DTPartitioner(seed=0), InfluenceScorer(problem))
        assert cache.partition_misses == 1


class TestDTCacheBounds:
    """The cache is an LRU of :data:`~repro.core.cache.MAX_ENTRIES` keys
    (a resident service would otherwise grow it forever)."""

    def _fill(self, cache, n):
        """Insert ``n`` distinct-signature entries (distinct tables →
        distinct ``id(raw_table)``), returning the problems."""
        problems = [avg_problem(n_per_group=60) for _ in range(n)]
        for problem in problems:
            cache.candidates(problem, DTPartitioner(seed=0),
                             InfluenceScorer(problem))
        return problems

    def test_entry_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 2)
        cache = DTCache()
        first, second, third = self._fill(cache, 3)
        assert len(cache) == 2
        assert cache.entry_evictions == 1
        # The oldest signature was dropped; re-inserting it misses.
        cache.candidates(first, DTPartitioner(seed=0),
                         InfluenceScorer(first))
        assert cache.partition_misses == 4
        # The newer two survived.
        cache.candidates(third, DTPartitioner(seed=0),
                         InfluenceScorer(third))
        assert cache.partition_hits == 1

    def test_hit_refreshes_lru_position(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 2)
        cache = DTCache()
        first, second = self._fill(cache, 2)
        cache.candidates(first, DTPartitioner(seed=0),
                         InfluenceScorer(first))  # first is now MRU
        self._fill(cache, 1)  # evicts second, not first
        cache.candidates(first, DTPartitioner(seed=0),
                         InfluenceScorer(first))
        assert cache.partition_hits == 2
        cache.candidates(second, DTPartitioner(seed=0),
                         InfluenceScorer(second))
        assert cache.partition_misses == 4

    def test_window_stats_report_deltas(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 1)
        cache = DTCache()
        snapshot = cache.counter_snapshot()
        first, second = self._fill(cache, 2)
        window = cache.window_stats(snapshot)
        assert window["dtcache_partition_misses"] == 2
        assert window["dtcache_partition_hits"] == 0
        assert window["dtcache_entry_evictions"] == 1
        assert window["dtcache_entries"] == 1
        # A later window starts from a fresh snapshot.
        snapshot = cache.counter_snapshot()
        cache.candidates(second, DTPartitioner(seed=0),
                         InfluenceScorer(second))
        window = cache.window_stats(snapshot)
        assert window["dtcache_partition_hits"] == 1
        assert window["dtcache_partition_misses"] == 0


class TestScorpionCaching:
    def test_c_sweep_with_cache_matches_without(self):
        problem = avg_problem(n_per_group=200)
        cached = Scorpion(algorithm="dt", use_cache=True)
        uncached = Scorpion(algorithm="dt", use_cache=False)
        for c in (0.5, 0.2, 0.0):
            with_cache = cached.explain(problem.with_c(c))
            without = uncached.explain(problem.with_c(c))
            assert with_cache.best is not None
            assert explanation_image(with_cache) == explanation_image(without)
        assert cached.cache.partition_hits == 2

    def test_cached_sweep_reuses_partitions(self):
        problem = avg_problem(n_per_group=120)
        scorpion = Scorpion(algorithm="dt", use_cache=True)
        scorpion.explain(problem.with_c(0.5))
        scorpion.explain(problem.with_c(0.1))
        assert scorpion.cache.partition_hits == 1
        assert scorpion.cache.partition_misses == 1


def noisy_box_problem() -> ScorpionQuery:
    """SUM over six groups of 400 rows with noisy values and a box
    ``x in [40, 60] & y in [20, 50]`` planted in the outlier groups
    g0/g1, so the perturbation shapes DT's partitions."""
    rng = np.random.default_rng(2)
    groups = np.repeat([f"g{i}" for i in range(6)], 400)
    x = rng.uniform(0.0, 100.0, groups.size)
    y = rng.uniform(0.0, 100.0, groups.size)
    value = rng.normal(10.0, 1.0, groups.size)
    value[np.isin(groups, ["g0", "g1"]) & (x >= 40) & (x <= 60)
          & (y >= 20) & (y <= 50)] += 80.0
    schema = Schema([ColumnSpec("g", ColumnKind.DISCRETE),
                     ColumnSpec("x", ColumnKind.CONTINUOUS),
                     ColumnSpec("y", ColumnKind.CONTINUOUS),
                     ColumnSpec("v", ColumnKind.CONTINUOUS)])
    table = Table.from_columns(schema, {"g": groups, "x": x, "y": y,
                                        "v": value})
    return ScorpionQuery(table, GroupByQuery("g", Sum(), "v"),
                         outliers=["g0", "g1"],
                         holdouts=[f"g{i}" for i in range(2, 6)],
                         error_vectors=+1.0, c=0.5)


class TestCacheKey:
    """A reused Scorpion answers as a fresh one does when the problem's
    perturbation or the partitioner's parameters change."""

    def test_reused_scorpion_repartitions_for_another_perturbation(self):
        delete = noisy_box_problem()
        # The same table, so only the perturbation tells them apart.
        mean = ScorpionQuery(delete.raw_table, delete.query,
                             delete.outlier_keys, delete.holdout_keys,
                             +1.0, c=0.5, perturbation="mean")
        scorpion = Scorpion(algorithm="dt")
        scorpion.explain(delete)
        reused = scorpion.explain(mean)
        fresh = Scorpion(algorithm="dt").explain(mean)
        assert explanation_image(reused) == explanation_image(fresh)
        assert reused.n_candidates == fresh.n_candidates
        assert reused.scorer_stats["dtcache_partition_hits"] == 0

    def test_reused_scorpion_repartitions_for_another_partitioner(self):
        problem = noisy_box_problem()
        scorpion = Scorpion(algorithm="dt")
        scorpion.explain(problem)
        scorpion.partitioner = DTPartitioner(max_leaves=4)
        reused = scorpion.explain(problem)
        fresh = Scorpion(partitioner=DTPartitioner(max_leaves=4)).explain(
            problem)
        assert explanation_image(reused) == explanation_image(fresh)
        assert reused.n_candidates == fresh.n_candidates
        assert reused.scorer_stats["dtcache_partition_hits"] == 0


def cluster_table(lo: float) -> Table:
    """400 rows over groups g0..g3 whose outlier groups g0/g1 carry
    value 50 on rows with ``a`` in ``[lo, lo + 10)``; every call builds
    a new table with the same schema, rows and groups apart from the
    cluster."""
    rng = np.random.default_rng(0)
    groups = np.repeat(["g0", "g1", "g2", "g3"], 100)
    a = rng.uniform(0.0, 100.0, 400)
    value = np.ones(400)
    value[np.isin(groups, ["g0", "g1"]) & (a >= lo) & (a < lo + 10.0)] = 50.0
    schema = Schema([ColumnSpec("g", ColumnKind.DISCRETE),
                     ColumnSpec("a", ColumnKind.CONTINUOUS),
                     ColumnSpec("value", ColumnKind.CONTINUOUS)])
    return Table.from_columns(schema, {"g": groups, "a": a, "value": value})


def cluster_problem(table: Table) -> ScorpionQuery:
    return ScorpionQuery(table, GroupByQuery("g", Sum(), "value"),
                         outliers=["g0", "g1"], holdouts=["g2", "g3"],
                         error_vectors=+1.0, c=0.5)


class TestTableIdentity:
    def test_reused_scorpion_never_answers_from_a_freed_table(self):
        # Signatures key the table by id(), and CPython hands a freed
        # object's memory to a later one.  Free the first table, then
        # allocate tables until one takes its id (none can while the
        # cache entry holds the table) and fill that one with the
        # cluster moved: the reused Scorpion must answer it as a fresh
        # Scorpion does.
        scorpion = Scorpion(algorithm="dt")
        first = cluster_problem(cluster_table(20.0))
        scorpion.explain(first)
        freed_id = id(first.raw_table)
        columns = [cluster_table(70.0).column(name)
                   for name in ("g", "a", "value")]
        del first
        gc.collect()
        spares = []
        table = Table.__new__(Table)
        while id(table) != freed_id and len(spares) < 100_000:
            spares.append(table)
            table = Table.__new__(Table)
        table.__init__(columns)
        problem = cluster_problem(table)
        reused = scorpion.explain(problem)
        fresh = Scorpion(algorithm="dt").explain(problem)
        assert [(e.predicate, e.influence) for e in reused.explanations] == \
            [(e.predicate, e.influence) for e in fresh.explanations]
