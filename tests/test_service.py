"""Unit and differential tests for the resident ExplainService.

The load-bearing contract: a warm (cache-hit) ``ExplainService.explain``
returns a result bit-for-bit equal to a cold one-shot
``Scorpion.explain`` of the same problem — explanations, influences,
matched rows, updated outputs, and every scorer counter outside
:data:`repro.service.CACHE_STAT_KEYS`.  The oracle legs run MC, NAIVE
and DT without its partition cache.  DT *with* the cache returns the
same explanations, in any request order, but a partition hit skips
DT's scoring, so its scorer counters are checked separately.
"""

import asyncio
import random
import time
import warnings

import numpy as np
import pytest

from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion
from repro.errors import PartitionerError, ScorpionError
from repro.query.groupby import GroupByQuery
from repro.aggregates import Avg, Sum
from repro.service import (
    CACHE_STAT_KEYS,
    ExplainService,
    invalidate_fingerprint,
    problem_key,
    request_key,
    table_fingerprint,
)
from repro.service.service import _resolve_timeout
from repro.table import ColumnKind, ColumnSpec, Schema, Table

from repro.obs.metrics import MetricsRegistry

from tests.conftest import planted_sum_table, replace_calls


def make_sum_problem(c: float = 0.5, **table_kwargs) -> ScorpionQuery:
    table, outliers, holdouts = planted_sum_table(**table_kwargs)
    return ScorpionQuery(
        table=table,
        query=GroupByQuery("g", Sum(), "value"),
        outliers=outliers,
        holdouts=holdouts,
        error_vectors=+1.0,
        c=c,
    )


def explanation_image(result):
    """Everything the bit-for-bit contract covers about explanations."""
    return [(e.predicate, e.influence, e.n_matched,
             e.updated_outliers, e.updated_holdouts)
            for e in result.explanations]


def assert_warm_equals_cold(warm, cold):
    """The differential oracle: identical explanations AND identical
    scorer counters, excluding exactly the documented cache-effect and
    timing keys."""
    assert explanation_image(warm) == explanation_image(cold)
    assert warm.algorithm == cold.algorithm
    assert warm.n_candidates == cold.n_candidates
    keys = set(warm.scorer_stats) | set(cold.scorer_stats)
    diverging = {
        k for k in keys - CACHE_STAT_KEYS
        if warm.scorer_stats.get(k) != cold.scorer_stats.get(k)
        # *_seconds keys are wall-clock; everything else must match.
        and not k.endswith("_seconds")
    }
    assert not diverging, f"counters diverge outside CACHE_STAT_KEYS: {sorted(diverging)}"


class TestDifferentialOracle:
    @pytest.mark.parametrize("kwargs", [
        {"algorithm": "mc"},
        {"algorithm": "dt", "use_cache": False},
        {"algorithm": "naive"},
    ], ids=["mc", "dt-nocache", "naive"])
    def test_warm_call_is_bit_for_bit_cold(self, kwargs):
        problem = make_sum_problem()
        cold = Scorpion(**kwargs).explain(problem)
        with ExplainService(**kwargs) as service:
            first = service.explain(problem)
            warm = service.explain(problem)
        assert not first.scorer_stats["service_cache_hit"]
        assert warm.scorer_stats["service_cache_hit"]
        assert_warm_equals_cold(first, cold)
        assert_warm_equals_cold(warm, cold)

    def test_warm_c_sweep_matches_with_c_rebuilds(self):
        problem = make_sum_problem(c=0.5)
        with ExplainService(algorithm="mc") as service:
            service.explain(problem)
            for c in (0.3, 0.1, 0.0, 0.5):
                warm = service.explain(problem, c=c)
                cold = Scorpion(algorithm="mc").explain(problem.with_c(c))
                assert warm.scorer_stats["service_cache_hit"]
                assert_warm_equals_cold(warm, cold)

    def test_lam_rebinds_against_cached_image(self):
        problem = make_sum_problem()
        with ExplainService(algorithm="mc") as service:
            service.explain(problem)
            warm = service.explain(problem, lam=0.8)
        rebound = problem.with_params(lam=0.8)
        cold = Scorpion(algorithm="mc").explain(rebound)
        assert_warm_equals_cold(warm, cold)

    def test_dt_with_cache_returns_the_cold_answer(self):
        problem = make_sum_problem(c=0.5)
        with ExplainService(algorithm="dt") as service:
            service.explain(problem)
            for c in (0.3, 0.1):
                warm = service.explain(problem, c=c)
                cold = Scorpion(algorithm="dt",
                                use_cache=False).explain(problem.with_c(c))
                assert warm.best is not None
                assert explanation_image(warm) == explanation_image(cold)
            # Warm DT runs reuse the entry's partition cache.
            assert warm.scorer_stats["dtcache_partition_hits"] == 1
            assert warm.scorer_stats["dtcache_partition_misses"] == 0

    def test_request_entry_point_shares_the_entry(self):
        table, outliers, holdouts = planted_sum_table()
        query = GroupByQuery("g", Sum(), "value")
        problem = ScorpionQuery(table, query, outliers, holdouts, +1.0, c=0.5)
        cold = Scorpion(algorithm="mc").explain(problem)
        with ExplainService(algorithm="mc") as service:
            service.explain(problem)
            via_request = service.explain_request(
                table, query, outliers, holdouts, +1.0, c=0.5)
        assert via_request.scorer_stats["service_cache_hit"]
        assert_warm_equals_cold(via_request, cold)


def planted_avg_problem() -> ScorpionQuery:
    """AVG over 12 groups of 400 rows whose outlier groups g0/g1 carry
    hot values on rows with ``x`` in [40, 60]; hold-outs g2/g3."""
    rng = np.random.default_rng(0)
    n = 12 * 400
    groups = np.repeat([f"g{i}" for i in range(12)], 400)
    x = rng.uniform(0, 100, n)
    y = rng.uniform(0, 100, n)
    value = rng.normal(10, 1, n)
    value[np.isin(groups, ["g0", "g1"]) & (x >= 40) & (x <= 60)] += 80.0
    table = Table.from_columns(
        Schema([ColumnSpec("g", ColumnKind.DISCRETE),
                ColumnSpec("x", ColumnKind.CONTINUOUS),
                ColumnSpec("y", ColumnKind.CONTINUOUS),
                ColumnSpec("v", ColumnKind.CONTINUOUS)]),
        {"g": groups, "x": x, "y": y, "v": value})
    return ScorpionQuery(table, GroupByQuery("g", Avg(), "v"),
                         outliers=["g0", "g1"], holdouts=["g2", "g3"],
                         error_vectors=+1.0, c=1.0)


SWEEP = (1.0, 0.5, 0.3, 0.1, 0.0)


class TestRequestOrder:
    """One request, one answer: a cached DT sweep answers every ``c`` as
    a cold uncached run does, in any request order."""

    @pytest.fixture(scope="class")
    def cold(self):
        problem = planted_avg_problem()
        return problem, {
            c: explanation_image(Scorpion(algorithm="dt", use_cache=False)
                                 .explain(problem.with_c(c)))
            for c in SWEEP}

    @pytest.mark.parametrize("order", [
        SWEEP, SWEEP[::-1], tuple(random.Random(0).sample(SWEEP, len(SWEEP))),
    ], ids=["descending", "ascending", "shuffled"])
    def test_c_sweep_answers_equal_cold_runs(self, cold, order):
        problem, expected = cold
        with ExplainService(algorithm="dt") as service:
            results = [service.explain(problem, c=c) for c in order]
        scorpion = Scorpion(algorithm="dt")
        results += [scorpion.explain(problem.with_c(c)) for c in order]
        for c, result in zip(order * 2, results):
            assert explanation_image(result) == expected[c], c
        # Every request after each leg's first reused its partitions.
        assert sum(r.scorer_stats["dtcache_partition_hits"]
                   for r in results) == 2 * (len(order) - 1)


class TestContentKey:
    def test_fingerprint_is_content_not_identity(self):
        a, _, _ = planted_sum_table()
        b, _, _ = planted_sum_table()
        assert a is not b
        assert table_fingerprint(a) == table_fingerprint(b)
        c, _, _ = planted_sum_table(seed=1)
        assert table_fingerprint(a) != table_fingerprint(c)

    def test_reconstructed_equal_table_hits(self):
        first = make_sum_problem()
        second = make_sum_problem()  # new Table object, same content
        assert first.raw_table is not second.raw_table
        with ExplainService(algorithm="mc") as service:
            service.explain(first)
            warm = service.explain(second)
        assert warm.scorer_stats["service_cache_hit"]

    def test_key_excludes_c_and_lam(self):
        problem = make_sum_problem(c=0.5)
        assert problem_key(problem) == problem_key(problem.with_c(0.1))
        assert problem_key(problem) == problem_key(
            problem.with_params(lam=0.9))

    def test_key_sees_labels_attributes_and_data(self):
        base = make_sum_problem()
        table, outliers, holdouts = planted_sum_table()
        query = GroupByQuery("g", Sum(), "value")
        swapped = ScorpionQuery(table, query, outliers, holdouts[:1], +1.0)
        assert problem_key(base) != problem_key(swapped)
        narrowed = ScorpionQuery(table, query, outliers, holdouts, +1.0,
                                 attributes=("a1",))
        assert problem_key(base) != problem_key(narrowed)
        other_data = make_sum_problem(seed=1)
        assert problem_key(base) != problem_key(other_data)

    def test_request_key_matches_problem_key(self):
        table, outliers, holdouts = planted_sum_table()
        query = GroupByQuery("g", Sum(), "value")
        problem = ScorpionQuery(table, query, outliers, holdouts, +1.0, c=0.5)
        assert request_key(table, query, outliers, holdouts, +1.0) == \
            problem_key(problem)
        # Normalization: label order and scalar-vs-mapping error vectors.
        assert request_key(table, query, list(reversed(outliers)),
                           list(reversed(holdouts)),
                           {k: 1.0 for k in outliers}) == problem_key(problem)
        narrowed = ScorpionQuery(table, query, outliers, holdouts, +1.0,
                                 attributes=("a1",))
        assert request_key(table, query, outliers, holdouts, +1.0,
                           attributes=("a1",)) == problem_key(narrowed)


class TestEvictionAndMemory:
    def test_entries_report_resident_bytes(self):
        with ExplainService(algorithm="mc") as service:
            result = service.explain(make_sum_problem())
        assert result.scorer_stats["service_cached_bytes"] > 0
        assert result.scorer_stats["service_entries"] == 1

    def test_zero_capacity_keeps_nothing_resident(self):
        problem = make_sum_problem()
        with ExplainService(cache_bytes=0, algorithm="mc") as service:
            service.explain(problem)
            again = service.explain(problem)
            stats = service.stats()
        assert not again.scorer_stats["service_cache_hit"]
        assert stats["service_misses"] == 2
        assert stats["service_evictions"] == 2
        assert stats["service_entries"] == 0
        assert stats["service_cached_bytes"] == 0

    def test_lru_eviction_under_pressure(self):
        small = make_sum_problem(n_per_group=80)
        other = make_sum_problem(n_per_group=50)
        # Measure each entry's resident footprint, then size the
        # capacity so either fits alone but not both together.
        with ExplainService(algorithm="mc") as probe:
            small_bytes = probe.explain(small).scorer_stats[
                "service_cached_bytes"]
        with ExplainService(algorithm="mc") as probe:
            other_bytes = probe.explain(other).scorer_stats[
                "service_cached_bytes"]
        with ExplainService(cache_bytes=small_bytes + other_bytes - 1,
                            algorithm="mc") as service:
            service.explain(small)
            service.explain(other)  # evicts `small` (LRU, over capacity)
            stats = service.stats()
            assert stats["service_evictions"] == 1
            assert stats["service_entries"] == 1
            revisit = service.explain(small)
        assert not revisit.scorer_stats["service_cache_hit"]

    def test_eviction_preserves_results(self):
        problem = make_sum_problem()
        cold = Scorpion(algorithm="mc").explain(problem)
        with ExplainService(cache_bytes=0, algorithm="mc") as service:
            for _ in range(3):
                assert_warm_equals_cold(service.explain(problem), cold)

    def test_env_capacity(self, monkeypatch):
        monkeypatch.setenv("SCORPION_CACHE_BYTES", "12345")
        assert ExplainService().cache_bytes == 12345
        monkeypatch.delenv("SCORPION_CACHE_BYTES")
        from repro.service import DEFAULT_CACHE_BYTES
        assert ExplainService().cache_bytes == DEFAULT_CACHE_BYTES
        with pytest.raises(ScorpionError):
            ExplainService(cache_bytes=-1)


class TestConcurrency:
    def test_concurrent_same_key_requests_build_once(self):
        problem = make_sum_problem()
        cold = Scorpion(algorithm="mc").explain(problem)
        with ExplainService(algorithm="mc") as service:
            async def fanout():
                return await asyncio.gather(*[
                    service.explain_async(problem) for _ in range(4)])
            results = asyncio.run(fanout())
            stats = service.stats()
        assert stats["service_misses"] == 1
        assert stats["service_hits"] == 3
        for result in results:
            assert explanation_image(result) == explanation_image(cold)

    def test_deadline_expiry_raises(self):
        problem = make_sum_problem()
        with ExplainService(algorithm="mc") as service:
            def slow_explain(*args, **kwargs):
                time.sleep(0.5)
                raise AssertionError("deadline should fire first")
            service.explain = slow_explain
            with pytest.raises(asyncio.TimeoutError):
                asyncio.run(service.explain_async(problem, deadline=0.05))

    def test_default_deadline_resolves_from_task_timeout_env(
            self, monkeypatch):
        problem = make_sum_problem()
        monkeypatch.setenv("SCORPION_TASK_TIMEOUT", "0.05")
        with ExplainService(algorithm="mc") as service:
            def slow_explain(*args, **kwargs):
                time.sleep(0.5)
                raise AssertionError("deadline should fire first")
            service.explain = slow_explain
            with pytest.raises(asyncio.TimeoutError):
                asyncio.run(service.explain_async(problem))

    def test_zero_deadline_means_no_timeout(self):
        problem = make_sum_problem()
        with ExplainService(algorithm="mc") as service:
            result = asyncio.run(service.explain_async(problem, deadline=0))
        assert result.explanations


class TestResolveTimeout:
    def test_legacy_env_alias_warns(self, monkeypatch):
        monkeypatch.delenv("SCORPION_TASK_TIMEOUT", raising=False)
        monkeypatch.setenv("SCORPION_WORKER_TIMEOUT", "12")
        with pytest.warns(DeprecationWarning,
                          match="SCORPION_WORKER_TIMEOUT is deprecated"):
            assert _resolve_timeout(None) == 12.0

    def test_current_env_does_not_warn(self, monkeypatch):
        monkeypatch.setenv("SCORPION_TASK_TIMEOUT", "34")
        monkeypatch.setenv("SCORPION_WORKER_TIMEOUT", "12")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _resolve_timeout(None) == 34.0

    def test_explicit_timeout_does_not_warn(self, monkeypatch):
        monkeypatch.setenv("SCORPION_WORKER_TIMEOUT", "12")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _resolve_timeout(7.5) == 7.5


class TestHitAccounting:
    def test_failed_build_then_success_counts_two_misses(self,
                                                         monkeypatch):
        # A hit is a request that finds its entry built: the request
        # after a failed build pays the build, so it is a miss.
        problem = make_sum_problem()
        registry = MetricsRegistry()
        with ExplainService(algorithm="dt", registry=registry) as service:
            replace_calls(monkeypatch, Scorpion, "build_scorer",
                          RuntimeError("build failed"))
            with pytest.raises(RuntimeError, match="build failed"):
                service.explain(problem)
            second = service.explain(problem).scorer_stats
            assert second["service_cache_hit"] is False
            assert (second["service_misses"], second["service_hits"]) == \
                (2, 0)
            assert registry.get("scorpion_cache_misses_total").value == 2
            assert registry.get("scorpion_cache_hits_total").value == 0
            third = service.explain(problem).scorer_stats
            assert third["service_cache_hit"] is True
            assert (third["service_misses"], third["service_hits"]) == \
                (2, 1)

    def test_failed_build_keeps_no_entry(self, monkeypatch):
        # The last request to let go of an entry whose build failed
        # drops it: nothing of the failed key stays cached.
        problem = make_sum_problem()
        with ExplainService(algorithm="dt") as service:
            replace_calls(monkeypatch, Scorpion, "build_scorer",
                          RuntimeError("build failed"))
            with pytest.raises(RuntimeError, match="build failed"):
                service.explain(problem)
            assert len(service) == 0
            assert service.stats()["service_entries"] == 0
            assert service.health()["cache_entries"] == 0
            assert service.explain(problem).explanations
            assert len(service) == 1

    def test_failed_build_leaves_a_pinned_entry_to_the_next_request(
            self, monkeypatch):
        # Request A's build fails while request B holds a pin on the same
        # entry, waiting for its lock: B keeps the entry and builds it.
        import threading
        problem = make_sum_problem()
        service = ExplainService(algorithm="dt")

        def fail_once_both_pinned():
            entry = next(iter(service._entries.values()))
            deadline = time.monotonic() + 10
            while entry.pins < 2:
                assert time.monotonic() < deadline, "second pin never arrived"
                time.sleep(0.01)
            raise RuntimeError("build failed")

        replace_calls(monkeypatch, Scorpion, "build_scorer",
                      fail_once_both_pinned)
        boxes: list[dict] = [{}, {}]

        def request(box):
            try:
                box["result"] = service.explain(problem)
            except RuntimeError as exc:
                box["error"] = exc

        threads = [threading.Thread(target=request, args=(box,))
                   for box in boxes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        outcomes = sorted(boxes, key=lambda box: "error" in box)
        assert outcomes[0]["result"].explanations
        assert str(outcomes[1]["error"]) == "build failed"
        assert len(service) == 1
        assert service.stats()["service_misses"] == 2
        service.close()


class TestConfiguration:
    @pytest.mark.parametrize("kwargs, error", [
        ({"algorithm": "bogus"}, PartitionerError),
        ({"top_k": 0}, PartitionerError),
        ({"nonsense": 1}, TypeError),
        ({"workers": 2}, TypeError),
    ], ids=["algorithm", "top_k", "unknown", "workers"])
    def test_bad_scorpion_configuration_fails_at_construction(
            self, kwargs, error):
        with pytest.raises(error):
            ExplainService(**kwargs)


class TestReleaseRaces:
    """The refcounted-release contract under adversarial interleavings:
    an entry is released exactly when its last pin drops, never under a
    running request — whether it died by ``close()``, by capacity
    eviction, or while its async caller's deadline had already expired
    and abandoned it."""

    @staticmethod
    def _block_first_run(service):
        """Patch ``service._run`` so only the *first* call blocks on the
        returned ``resume`` event (later calls run straight through),
        signalling ``entered`` once it is inside the scorer."""
        import threading
        entered, resume = threading.Event(), threading.Event()
        inner_run = service._run
        state = {"blocked": False}

        def blocking_run(entry, *args, **kwargs):
            if not state["blocked"]:
                state["blocked"] = True
                entered.set()
                assert resume.wait(30)
            return inner_run(entry, *args, **kwargs)

        service._run = blocking_run
        return entered, resume

    def test_deadline_expiry_abandons_request_then_eviction_defers(self):
        """An ``explain_async`` deadline fires while the entry is being
        evicted (service close): the caller is long gone, but the
        abandoned worker thread still holds a pin, so the dead entry's
        scorer must survive until that thread's unpin — which then
        releases it."""
        import threading
        problem = make_sum_problem()
        service = ExplainService(algorithm="mc")
        entered, resume = self._block_first_run(service)

        async def drive():
            with pytest.raises(asyncio.TimeoutError):
                await service.explain_async(problem, deadline=0.05)
            # Caller abandoned; the worker thread is still pinned inside
            # _run.  Evict the entry out from under it.
            assert entered.is_set()
            entry = next(iter(service._entries.values()))
            service.close()
            assert entry.dead and entry.pins == 1
            assert entry.scorer is not None  # NOT released mid-run
            resume.set()

        # asyncio.run joins the abandoned to_thread worker when it
        # shuts the default executor down, so returning at all proves
        # the abandoned request finished rather than wedging.
        asyncio.run(drive())
        assert len(service) == 0
        assert service.stats()["service_cached_bytes"] == 0

    def test_concurrent_same_key_requests_release_once_after_close(self):
        """Two pins on one entry, service closed mid-flight: the first
        unpin must leave the scorer alive for the second request (which
        must still answer bit-for-bit), and only the second unpin
        releases."""
        import threading
        problem = make_sum_problem()
        cold = Scorpion(algorithm="mc").explain(problem)
        service = ExplainService(algorithm="mc")
        entered, resume = self._block_first_run(service)
        boxes: list[dict] = [{}, {}]
        threads = [
            threading.Thread(
                target=lambda box=box: box.setdefault(
                    "r", service.explain(problem)))
            for box in boxes
        ]
        threads[0].start()
        assert entered.wait(10)
        entry = next(iter(service._entries.values()))
        threads[1].start()
        # Second request: pinned, queued on the entry lock behind the
        # blocked first request.
        deadline = time.monotonic() + 10
        while entry.pins < 2:
            assert time.monotonic() < deadline, "second pin never arrived"
            time.sleep(0.01)
        service.close()
        assert entry.dead
        resume.set()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        for box in boxes:
            assert_warm_equals_cold(box["r"], cold)
        assert entry.pins == 0
        assert len(service) == 0

    def test_capacity_eviction_skips_pinned_running_entry(self):
        """A zero-capacity eviction pass triggered by another request's
        unpin must skip the pinned in-flight entry; the entry is evicted
        by its own unpin afterwards."""
        import threading
        problem = make_sum_problem()
        other = make_sum_problem(n_per_group=50)
        service = ExplainService(algorithm="mc", cache_bytes=0)
        entered, resume = self._block_first_run(service)
        box: dict = {}
        worker = threading.Thread(
            target=lambda: box.setdefault("r", service.explain(problem)))
        worker.start()
        assert entered.wait(10)
        entry = next(iter(service._entries.values()))
        # This request's unpin runs a full over-capacity eviction pass
        # while `entry` is pinned and mid-run.
        assert service.explain(other).explanations
        assert not entry.dead, "pinned entry evicted under a running request"
        assert entry.scorer is not None
        resume.set()
        worker.join(30)
        assert not worker.is_alive()
        assert box["r"].explanations
        # Its own unpin then enforced the zero-byte capacity.
        assert len(service) == 0
        assert service.stats()["service_cached_bytes"] == 0
        service.close()


class TestLifecycle:
    def test_close_with_inflight_request_defers_release(self):
        import threading
        problem = make_sum_problem()
        service = ExplainService(algorithm="mc")
        entered, resume = threading.Event(), threading.Event()
        inner_run = service._run

        def blocking_run(entry, *args, **kwargs):
            entered.set()
            assert resume.wait(10)
            return inner_run(entry, *args, **kwargs)

        service._run = blocking_run
        box = {}
        worker = threading.Thread(
            target=lambda: box.setdefault("r", service.explain(problem)))
        worker.start()
        assert entered.wait(10)
        # The entry is pinned by the in-flight request: close() marks it
        # dead but must not tear down the scorer under the request.
        service.close()
        resume.set()
        worker.join(30)
        assert not worker.is_alive()
        assert box["r"].explanations
        # The last unpin released the dead entry.
        assert len(service) == 0
        assert service.stats()["service_cached_bytes"] == 0

    def test_close_rejects_further_requests(self):
        problem = make_sum_problem()
        service = ExplainService(algorithm="mc")
        service.explain(problem)
        service.close()
        with pytest.raises(ScorpionError, match="closed"):
            service.explain(problem)
        assert len(service) == 0


class TestFingerprintInvalidation:
    """The memoized table fingerprint must be explicitly invalidatable
    (tables are immutable by convention, not by enforcement)."""

    def test_fingerprint_is_memoized(self, sensors_table):
        first = table_fingerprint(sensors_table)
        assert table_fingerprint(sensors_table) == first

    def test_invalidate_forces_recompute_after_mutation(self, sensors_table):
        stale = table_fingerprint(sensors_table)
        # In-place mutation behind the memo's back (the documented
        # convention violation the hook exists for; columns are
        # read-only, so the violator flips the write flag too).
        values = sensors_table.column("temp").values
        values.setflags(write=True)
        try:
            values[0] = 999.0
        finally:
            values.setflags(write=False)
        assert table_fingerprint(sensors_table) == stale  # memo is stale
        invalidate_fingerprint(sensors_table)
        fresh = table_fingerprint(sensors_table)
        assert fresh != stale

    def test_invalidate_without_fingerprint_is_noop(self, sensors_table):
        invalidate_fingerprint(sensors_table)  # nothing memoized yet
        assert table_fingerprint(sensors_table)
