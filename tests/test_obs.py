"""Tests for the observability layer: span tracer, metrics registry,
structured logs — and the load-bearing contract that tracing is
bit-for-bit invisible to explain results.

The invisibility oracle mirrors ``tests/test_service.py``'s
warm-equals-cold check: a traced run must match an untraced run on
explanations AND every scorer counter (timing keys exempt).  Span-tree
shape must also be execution-mode independent — a serial run and a
``workers=2`` run record the same non-shard span-name sequence.
"""

import io
import json

import pytest

from repro.core.scorpion import Scorpion
from repro.obs import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    JsonLogger,
    MetricsRegistry,
    Tracer,
    current_tracer,
    new_trace_id,
    phase_totals,
    render_profile,
    span,
    tracing_enabled,
)
from repro.service import ExplainService

from tests.test_service import (
    assert_warm_equals_cold,
    explanation_image,
    make_sum_problem,
)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_without_tracer_is_falsy_noop(self):
        assert current_tracer() is None
        with span("anything") as sp:
            assert not sp
            sp.annotate(ignored=1)  # must not raise

    def test_nesting_and_export(self):
        tracer = Tracer().activate()
        try:
            with span("outer") as outer:
                outer.annotate(kind="test")
                with span("inner"):
                    pass
                with span("inner"):
                    pass
        finally:
            tracer.deactivate()
        spans = tracer.export()
        assert [sp["name"] for sp in spans] == ["outer", "inner", "inner"]
        root = spans[0]
        assert root["parent"] is None
        assert root["attrs"] == {"kind": "test"}
        for child in spans[1:]:
            assert child["parent"] == root["id"]
            assert child["start_ns"] >= root["start_ns"]
            assert child["dur_ns"] >= 0
        # The root wraps its children.
        assert root["dur_ns"] >= max(
            c["start_ns"] + c["dur_ns"] for c in spans[1:]) - root["start_ns"]

    def test_deactivate_restores_previous(self):
        outer = Tracer().activate()
        inner = Tracer().activate()
        assert current_tracer() is inner
        inner.deactivate()
        assert current_tracer() is outer
        outer.deactivate()
        assert current_tracer() is None

    def test_add_span_attaches_external_stamps(self):
        import time

        tracer = Tracer()
        t0 = time.perf_counter()
        t1 = t0 + 0.25
        with tracer.begin("parent"):
            tracer.add_span("shard", t0, t1, {"items": 3})
        spans = tracer.export()
        shard = spans[1]
        assert shard["name"] == "shard"
        assert shard["parent"] == spans[0]["id"]
        assert shard["attrs"] == {"items": 3}
        assert shard["dur_ns"] == pytest.approx(0.25e9, rel=1e-3)
        # Stamps earlier than the trace origin clamp to zero rather
        # than exporting negative offsets.
        early = tracer.add_span("early", t0 - 1e6, t0 - 1e6 + 0.1)
        assert early.start_ns == 0

    def test_render_profile_and_phase_totals(self):
        spans = [
            {"id": 0, "parent": None, "name": "explain", "start_ns": 0,
             "dur_ns": 3_000_000},
            {"id": 1, "parent": 0, "name": "score_batch", "start_ns": 100,
             "dur_ns": 1_000_000, "attrs": {"predicates": 4}},
            {"id": 2, "parent": 0, "name": "score_batch", "start_ns": 2000,
             "dur_ns": 500_000},
        ]
        text = render_profile(spans)
        lines = text.splitlines()
        assert lines[0].startswith("explain")
        assert lines[1].startswith("  score_batch")
        assert "predicates=4" in lines[1]
        totals = phase_totals(spans)
        assert totals["explain"] == pytest.approx(3e-3)
        assert totals["score_batch"] == pytest.approx(1.5e-3)

    def test_tracing_enabled_env(self, monkeypatch):
        monkeypatch.delenv("SCORPION_TRACE", raising=False)
        assert not tracing_enabled()
        for raw in ("1", "true", "ON", " yes "):
            monkeypatch.setenv("SCORPION_TRACE", raw)
            assert tracing_enabled(), raw
        for raw in ("0", "off", "", "no"):
            monkeypatch.setenv("SCORPION_TRACE", raw)
            assert not tracing_enabled(), raw


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_monotonic(self):
        c = Counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("g")
        g.set(10)
        g.dec(3)
        g.inc(1)
        assert g.value == 8.0

    def test_histogram_buckets_cumulative(self):
        h = Histogram("h_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(6.05)
        assert snap["buckets"] == {"0.1": 1, "1": 3, "+Inf": 4}
        # JSON-clean: the snapshot must round-trip through json.dumps.
        json.dumps(snap)
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(1.0, 0.1))

    def test_registry_get_or_create_and_kind_mismatch(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "first help")
        b = reg.counter("x_total", "second help")
        assert a is b
        assert a.help == "first help"
        with pytest.raises(ValueError):
            reg.gauge("x_total")
        with pytest.raises(ValueError):
            reg.counter("bad name")
        assert reg.get("x_total") is a
        assert reg.get("missing") is None
        reg.reset()
        assert reg.get("x_total") is None

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "Requests").inc(3)
        reg.gauge("entries").set(2)
        h = reg.histogram("lat_seconds", "Latency", buckets=(0.5, 1.0))
        h.observe(0.25)
        h.observe(2.0)
        text = reg.render_prometheus()
        assert "# HELP req_total Requests" in text
        assert "# TYPE req_total counter" in text
        assert "req_total 3" in text
        assert "# TYPE entries gauge" in text
        assert "entries 2" in text
        assert 'lat_seconds_bucket{le="0.5"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_sum 2.25" in text
        assert "lat_seconds_count 2" in text
        assert text.endswith("\n")


# ----------------------------------------------------------------------
# Structured logs
# ----------------------------------------------------------------------
class TestJsonLogger:
    def test_one_json_object_per_line(self, monkeypatch):
        monkeypatch.delenv("SCORPION_SLOW_MS", raising=False)
        out = io.StringIO()
        logger = JsonLogger(stream=out)
        logger.log("request_start", trace_id="t-1", op="explain")
        logger.log("request_finish", trace_id="t-1", elapsed_ms=12.5)
        lines = out.getvalue().splitlines()
        assert len(lines) == 2
        start = json.loads(lines[0])
        assert start["event"] == "request_start"
        assert start["trace_id"] == "t-1"
        assert start["op"] == "explain"
        assert "ts" in start

    def test_slow_flag(self):
        out = io.StringIO()
        logger = JsonLogger(stream=out, slow_ms=100.0)
        logger.log("request_finish", elapsed_ms=250.0)
        logger.log("request_finish", elapsed_ms=50.0)
        logger.log("request_start", elapsed_ms=250.0)  # wrong event: no flag
        slow, fast, start = map(json.loads, out.getvalue().splitlines())
        assert slow.get("slow") is True
        assert "slow" not in fast
        assert "slow" not in start

    def test_slow_threshold_from_env(self, monkeypatch):
        monkeypatch.setenv("SCORPION_SLOW_MS", "20")
        out = io.StringIO()
        JsonLogger(stream=out).log("request_finish", elapsed_ms=25.0)
        assert json.loads(out.getvalue())["slow"] is True
        monkeypatch.setenv("SCORPION_SLOW_MS", "not-a-number")
        assert JsonLogger(stream=out).slow_ms is None

    def test_trace_ids_unique(self):
        ids = {new_trace_id() for _ in range(100)}
        assert len(ids) == 100


# ----------------------------------------------------------------------
# Tracing invisibility + span-tree shape
# ----------------------------------------------------------------------
class TestTracedExplain:
    @pytest.mark.parametrize("kwargs", [
        {"algorithm": "mc"},
        {"algorithm": "dt", "use_cache": False},
        {"algorithm": "naive"},
    ], ids=["mc", "dt-nocache", "naive"])
    def test_traced_run_is_bit_for_bit_untraced(self, kwargs):
        problem = make_sum_problem()
        plain = Scorpion(trace=False, **kwargs).explain(problem)
        traced = Scorpion(trace=True, **kwargs).explain(problem)
        assert plain.trace is None
        assert traced.trace
        assert_warm_equals_cold(traced, plain)

    def test_trace_spans_cover_the_pipeline(self):
        result = Scorpion(algorithm="dt", use_cache=False,
                          trace=True).explain(make_sum_problem())
        names = {sp["name"] for sp in result.trace}
        assert {"explain", "build", "partition", "merge",
                "score_batch"} <= names
        root = result.trace[0]
        assert root["name"] == "explain"
        assert root["parent"] is None
        # Every other span descends from the explain root.
        ids = {sp["id"] for sp in result.trace}
        for sp in result.trace[1:]:
            assert sp["parent"] in ids
        batches = [sp for sp in result.trace if sp["name"] == "score_batch"]
        assert all("predicates" in sp["attrs"] for sp in batches)
        assert all("groups" in sp["attrs"] for sp in batches)

    def test_env_opt_in(self, monkeypatch):
        monkeypatch.setenv("SCORPION_TRACE", "1")
        result = Scorpion(algorithm="mc").explain(make_sum_problem())
        assert result.trace
        monkeypatch.delenv("SCORPION_TRACE")
        assert Scorpion(algorithm="mc").explain(make_sum_problem()).trace \
            is None

    def test_serial_and_parallel_trace_same_phases(self):
        problem = make_sum_problem()
        serial = Scorpion(algorithm="mc", trace=True).explain(problem)
        # One-shot explain builds and closes its own scorer (and pool).
        parallel = Scorpion(algorithm="mc", trace=True,
                            workers=2).explain(problem)
        assert explanation_image(parallel) == explanation_image(serial)
        # Shard spans exist only on the parallel side; every other
        # span-name sequence is execution-mode independent.
        def phases(result):
            return [sp["name"] for sp in result.trace
                    if sp["name"] != "shard"]
        assert phases(parallel) == phases(serial)
        shards = [sp for sp in parallel.trace if sp["name"] == "shard"]
        if parallel.scorer_stats.get("parallel_shards", 0) > 0:
            assert shards
            for sp in shards:
                assert sp["attrs"]["items"] > 0
                assert sp["attrs"]["queue_wait_ms"] >= 0
                assert sp["dur_ns"] > 0


# ----------------------------------------------------------------------
# Service metrics + stats snapshots
# ----------------------------------------------------------------------
class TestServiceMetrics:
    def test_stats_counters_monotonic_and_reconciled(self):
        problem = make_sum_problem()
        registry = MetricsRegistry()
        with ExplainService(algorithm="mc", registry=registry) as service:
            service.explain(problem)
            first = service.stats()
            service.explain(problem)
            second = service.stats()
        assert first["service_requests"] == 1
        assert second["service_requests"] == 2
        assert second["service_hits"] == 1
        assert second["service_misses"] == 1
        # Latency histogram count reconciles with started requests.
        hist = second["service_request_seconds"]
        assert hist["count"] == second["service_hits"] + \
            second["service_misses"]
        assert hist["sum"] > 0
        assert second["service_request_errors"] == 0
        # Registry totals mirror the service's own counters.
        snap = registry.snapshot()
        assert snap["scorpion_cache_hits_total"] == 1
        assert snap["scorpion_cache_misses_total"] == 1
        assert snap["scorpion_requests_total"] == 2
        assert snap["scorpion_cache_entries"] == 1
        assert snap["scorpion_cache_resident_bytes"] > 0

    def test_gauges_track_eviction(self):
        problem = make_sum_problem()
        registry = MetricsRegistry()
        with ExplainService(cache_bytes=0, algorithm="mc",
                            registry=registry) as service:
            service.explain(problem)
        snap = registry.snapshot()
        assert snap["scorpion_cache_evictions_total"] == 1
        assert snap["scorpion_cache_entries"] == 0
        assert snap["scorpion_cache_resident_bytes"] == 0

    def test_scorer_counters_publish_as_deltas(self):
        problem = make_sum_problem()
        registry = MetricsRegistry()
        with ExplainService(algorithm="mc", registry=registry) as service:
            first = service.explain(problem)
            service.explain(problem)
        snap = registry.snapshot()
        # Two requests with identical per-request counters: the
        # published total must be the sum of per-request deltas, not
        # the last request's cumulative value.
        per_request = first.scorer_stats["masked_predicates"]
        assert per_request > 0
        published = snap["scorpion_masked_predicates_total"]
        assert published == 2 * per_request

    def test_traced_service_attaches_trace_and_stays_bit_for_bit(self):
        problem = make_sum_problem()
        cold = Scorpion(algorithm="mc").explain(problem)
        with ExplainService(algorithm="mc", trace=True) as service:
            miss = service.explain(problem)
            hit = service.explain(problem)
        for result in (miss, hit):
            assert result.trace
            assert_warm_equals_cold(result, cold)
        names_miss = {sp["name"] for sp in miss.trace}
        assert "checkout" in names_miss
        assert "explain" in names_miss
        # The warm path skips the build but still records the checkout.
        checkout = next(sp for sp in hit.trace if sp["name"] == "checkout")
        assert checkout["attrs"]["hit"] is True

    def test_failed_request_counts_as_error(self, monkeypatch):
        registry = MetricsRegistry()
        with ExplainService(algorithm="mc", registry=registry) as service:
            def boom(*args, **kwargs):
                raise RuntimeError("scoring failed")
            monkeypatch.setattr(service, "_run", boom)
            with pytest.raises(RuntimeError):
                service.explain(make_sum_problem())
            stats = service.stats()
        assert stats["service_request_errors"] == 1
        # The request started (a miss) but never completed.
        assert stats["service_requests"] == 0
        assert stats["service_misses"] == 1
        assert registry.snapshot()["scorpion_request_errors_total"] == 1

    def test_pool_metrics_reach_global_registry(self):
        before = REGISTRY.get("scorpion_pool_starts_total")
        before_value = before.value if before is not None else 0
        result = Scorpion(algorithm="mc",
                          workers=2).explain(make_sum_problem())
        after = REGISTRY.get("scorpion_pool_starts_total")
        if result.scorer_stats.get("parallel_shards", 0) > 0:
            assert after is not None
            assert after.value >= before_value + 1
