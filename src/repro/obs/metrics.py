"""Process-wide metrics registry (counters, gauges, histograms).

One global :data:`REGISTRY` instance collects what the per-request
``scorer_stats`` dicts cannot: monotonic totals across requests, the
cache's live size, OOM-shed retries — the process-level view a scraper
wants.  The service publishes into it on every request; tests pass a
fresh :class:`MetricsRegistry` for isolation.

Zero dependencies: :meth:`MetricsRegistry.render_prometheus` emits the
Prometheus text exposition format directly (``HELP``/``TYPE`` lines,
``_bucket{le=...}``/``_sum``/``_count`` for histograms) for the
``--metrics-file`` dump and the ``{"op": "metrics"}`` serve request,
and :meth:`MetricsRegistry.snapshot` returns plain dicts for
``ExplainService.stats()``.

All mutation is lock-guarded; the lock is per-registry and uncontended
in practice (one service thread, or short asyncio worker threads).
"""

from __future__ import annotations

import re
import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Request-latency buckets (seconds): sub-10ms warm hits through
#: multi-second cold builds.
DEFAULT_LATENCY_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                           1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


class Counter:
    """Monotonically increasing float total."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc({amount}))")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self):
        return self._value


class Gauge:
    """Point-in-time value (cache entries, resident bytes)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self):
        return self._value


class Histogram:
    """Cumulative-bucket histogram in the Prometheus style."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: tuple = DEFAULT_LATENCY_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name} needs ascending buckets")
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._total = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._total += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    @property
    def count(self) -> int:
        return self._total

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> dict:
        """``{"count", "sum", "buckets": {"le-label": cumulative}}``.

        Bucket keys are the Prometheus ``le`` labels as strings
        (``"+Inf"`` for the overflow bucket), so the snapshot is
        JSON-clean for ``ExplainService.stats()``.
        """
        with self._lock:
            out: dict = {"count": self._total, "sum": self._sum}
            cumulative = 0
            buckets = {}
            for bound, n in zip(self.buckets, self._counts):
                cumulative += n
                buckets[_fmt(bound)] = cumulative
            buckets["+Inf"] = self._total
            out["buckets"] = buckets
            return out


class MetricsRegistry:
    """Get-or-create home for named metrics.

    Re-requesting a name returns the existing metric (the first help
    string wins); re-requesting it as a different kind raises, so a
    counter can never silently shadow a gauge.
    """

    def __init__(self):
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}")
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str):
        """The registered metric, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> dict:
        """``{name: value-or-histogram-dict}`` for every metric."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {m.name: m.snapshot() for m in metrics}

    def reset(self) -> None:
        """Drop every registration (test isolation for the global)."""
        with self._lock:
            self._metrics.clear()

    def render_prometheus(self) -> str:
        """Prometheus text exposition format, one block per metric."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                snap = metric.snapshot()
                for le, cumulative in snap["buckets"].items():
                    lines.append(
                        f'{metric.name}_bucket{{le="{le}"}} {cumulative}')
                lines.append(f"{metric.name}_sum {_fmt(snap['sum'])}")
                lines.append(f"{metric.name}_count {snap['count']}")
            else:
                lines.append(f"{metric.name} {_fmt(metric.value)}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    """Integral floats as integers, everything else as repr."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


#: The process-wide default registry.
REGISTRY = MetricsRegistry()
