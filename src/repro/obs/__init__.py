"""Observability layer: span tracing, metrics, structured logs.

Zero-dependency instrumentation for the resident explain pipeline:

* :mod:`repro.obs.trace` — a ``perf_counter_ns`` span tracer recording
  a per-explain span tree (build/checkout, partition phases, every
  ``score_batch`` with its cache hits and shards, merger rounds,
  parallel shard fan-out with worker-side wall time and queue wait).
  Off by default; opt in with ``SCORPION_TRACE=1`` or ``--trace``.
  Tracing is bit-for-bit invisible to results — the differential
  oracle runs a traced leg, and ``bench_obs_overhead.py`` pins the
  overhead.
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges, and histograms that the service and pool layers publish
  into, exported as a snapshot dict or Prometheus text exposition.
* :mod:`repro.obs.logs` — one-JSON-object-per-line structured logging
  with per-request trace IDs for the ``--serve`` loop
  (``SCORPION_SLOW_MS`` flags slow requests).
"""

from repro.obs.logs import JsonLogger, new_trace_id
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    Tracer,
    current_tracer,
    phase_totals,
    render_profile,
    span,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLogger",
    "MetricsRegistry",
    "REGISTRY",
    "Tracer",
    "current_tracer",
    "new_trace_id",
    "phase_totals",
    "render_profile",
    "span",
    "tracing_enabled",
]
