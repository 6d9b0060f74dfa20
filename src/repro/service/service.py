"""The resident :class:`ExplainService` — cross-call caching of the
expensive per-problem artifacts behind a content key.

A one-shot ``Scorpion.explain`` pays, on every call, for work that is
pure function of the *problem* rather than of the Section 7 knobs: the
group-by execution and provenance (the problem image), the labeled
evaluator's factorized comparison arrays and the DT partitions.  An
interactive session (the paper's ``c``-slider UI, Section 8.3.3) or an
eval sweep repeats the same problem dozens of times with only
scalar-knob changes, so a resident process should pay once.

:class:`ExplainService` holds an LRU of cache entries keyed by
:func:`~repro.service.keys.problem_key` / ``request_key`` — dataset
fingerprint × group-by query × labeled sets × error vectors × attribute
set × perturbation, deliberately excluding ``c`` / ``c_holdout`` / ``λ``
which rebind in O(1).  Each entry owns a narrowed problem, a dedicated
:class:`~repro.core.scorpion.Scorpion` (its own bounded DT cache), and
the live :class:`~repro.core.influence.InfluenceScorer` carrying the
contexts and the batch kernel.

**Equivalence contract.**  A warm ``explain`` returns a result
bit-for-bit equal to a cold ``Scorpion.explain`` of the same problem —
same explanations, influences, and scorer counters — except for keys in
:data:`CACHE_STAT_KEYS`, which report exactly the cache effects (what
was *not* rebuilt) and wall-clock timings.  The service enforces this by
resetting scorer statistics and dropping the predicate-score memo at
every checkout, so warm scoring replays the cold call's operations; the
per-tuple delta memo is kept because tuple deltas are independent of
every knob the key excludes.  With DT's partition cache on (the
default), a request whose partitions are reused skips DT's scoring, so
its scorer counters differ from a cold call's; its explanations do not.

**Memory accounting.**  Every entry is billed its scorer's resident
bytes when it is built — context index/state arrays, the stacked state
matrix and evaluator comparison arrays.  Eviction walks LRU order while
over ``cache_bytes``
(constructor > ``SCORPION_CACHE_BYTES`` > 512 MiB), skipping pinned
(in-flight) entries; a released entry frees its DT cache.

Thread-safe: a service-level lock guards the LRU and counters, a
per-entry lock serializes requests that share an entry (scorers are
stateful), and distinct entries execute concurrently.  The asyncio
front end (:meth:`ExplainService.explain_async`) runs requests on
worker threads with a per-request deadline defaulting to
``SCORPION_TASK_TIMEOUT`` (:data:`DEFAULT_TASK_TIMEOUT` seconds when
unset).
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
import warnings
from collections import OrderedDict
from typing import Callable, Iterable, Mapping

from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion, ScorpionResult
from repro.errors import ResourceExhausted, ScorpionError
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import Tracer, current_tracer, span, tracing_enabled
from repro.query.groupby import GroupByQuery
from repro.service.keys import problem_key, request_key
from repro.table.table import Table

#: Default cache capacity when neither the constructor nor
#: ``SCORPION_CACHE_BYTES`` specifies one.
DEFAULT_CACHE_BYTES = 512 * 1024 * 1024

#: Default :meth:`ExplainService.explain_async` deadline in seconds
#: (override via ``SCORPION_TASK_TIMEOUT``, or the deprecated
#: ``SCORPION_WORKER_TIMEOUT`` alias; ``0`` disables).
DEFAULT_TASK_TIMEOUT = 300.0

#: ``scorer_stats`` keys that legitimately differ between a cold
#: ``Scorpion.explain`` and a warm service call for the same problem:
#: the service/DT-cache counters themselves and wall-clock timings.
#: Everything *outside* this set is covered by the bit-for-bit
#: warm-equals-cold contract (the differential oracle in
#: ``tests/test_service.py`` asserts exactly that).
CACHE_STAT_KEYS = frozenset({
    "service_cache_hit", "service_hits", "service_misses",
    "service_evictions", "service_entries", "service_cached_bytes",
    "dtcache_partition_hits", "dtcache_partition_misses",
    "dtcache_entry_evictions", "dtcache_entries",
    "batch_seconds", "batch_throughput",
})


#: Per-request ``scorer_stats`` counters the service publishes into its
#: metrics registry as monotonic process totals after every request
#: (``(stats_key, metric_name, help)``).
_PUBLISHED_COUNTERS = (
    ("dtcache_partition_hits", "scorpion_dtcache_partition_hits_total",
     "DT-cache partition reuses across requests"),
    ("dtcache_partition_misses", "scorpion_dtcache_partition_misses_total",
     "DT partitionings actually run"),
    ("dtcache_entry_evictions", "scorpion_dtcache_entry_evictions_total",
     "DT-cache signature entries evicted"),
    ("masked_predicates", "scorpion_masked_predicates_total",
     "Predicates scored through the mask-matrix kernel"),
)


def _resolve_timeout(task_timeout: float | None) -> float | None:
    """A deadline in seconds, or None for no deadline: ``task_timeout``
    when given, else ``SCORPION_TASK_TIMEOUT``, else the deprecated
    ``SCORPION_WORKER_TIMEOUT``, else :data:`DEFAULT_TASK_TIMEOUT`;
    ``<= 0`` means none."""
    if task_timeout is None:
        raw = os.environ.get("SCORPION_TASK_TIMEOUT", "").strip()
        if not raw:
            # Legacy alias from before the knob was documented.
            raw = os.environ.get("SCORPION_WORKER_TIMEOUT", "").strip()
            if raw:
                warnings.warn(
                    "SCORPION_WORKER_TIMEOUT is deprecated and will be "
                    "removed in the release after 2026-12; set "
                    "SCORPION_TASK_TIMEOUT instead",
                    DeprecationWarning, stacklevel=3)
        task_timeout = float(raw) if raw else DEFAULT_TASK_TIMEOUT
    return task_timeout if task_timeout > 0 else None


def _resolve_cache_bytes(cache_bytes: int | None) -> int:
    if cache_bytes is None:
        raw = os.environ.get("SCORPION_CACHE_BYTES", "").strip()
        cache_bytes = int(raw) if raw else DEFAULT_CACHE_BYTES
    if cache_bytes < 0:
        raise ScorpionError(
            f"cache_bytes must be non-negative, got {cache_bytes}")
    return int(cache_bytes)


class _CacheEntry:
    """One cached problem: its narrowed query, its Scorpion, and the
    live scorer.  ``pins`` counts in-flight requests — pinned entries
    are never evicted, and an entry evicted while pinned (``dead``) is
    released by the last request to unpin it."""

    __slots__ = ("key", "problem", "scorpion", "scorer", "nbytes",
                 "pins", "dead", "lock")

    def __init__(self, key: tuple):
        self.key = key
        self.problem: ScorpionQuery | None = None
        self.scorpion: Scorpion | None = None
        self.scorer = None
        self.nbytes = 0
        self.pins = 0
        self.dead = False
        self.lock = threading.Lock()

    def release(self) -> None:
        """Free the entry's DT cache.  Idempotent."""
        if self.scorpion is not None:
            self.scorpion.cache.clear()


class ExplainService:
    """Long-lived explain front end with content-keyed artifact caching.

    Parameters
    ----------
    cache_bytes:
        Resident-byte capacity for cached problem artifacts (None →
        ``SCORPION_CACHE_BYTES``, else :data:`DEFAULT_CACHE_BYTES`;
        ``0`` keeps nothing resident between calls).
    registry:
        :class:`~repro.obs.metrics.MetricsRegistry` this service
        publishes into (None → the process-wide
        :data:`~repro.obs.metrics.REGISTRY`).
    logger:
        Optional :class:`~repro.obs.logs.JsonLogger`; when set, async
        deadline expiries are logged as ``deadline_expired`` events.
    **scorpion_kwargs:
        Forwarded to each entry's :class:`~repro.core.scorpion.Scorpion`
        (``algorithm``, ``top_k``, ``trace``, ...) and checked here, by
        constructing one, so a bad configuration fails at construction
        rather than on every request.  Content keys are derived from the
        problem alone, never from these kwargs.  When tracing is on (``trace=True`` or
        ``SCORPION_TRACE=1``) the service activates one tracer per
        request, so checkout/build spans and the inner explain tree
        share one trace on ``result.trace``.
    """

    def __init__(self, cache_bytes: int | None = None,
                 registry: MetricsRegistry | None = None,
                 logger=None, **scorpion_kwargs):
        Scorpion(**scorpion_kwargs)  # a bad configuration fails here
        self.cache_bytes = _resolve_cache_bytes(cache_bytes)
        self._scorpion_kwargs = dict(scorpion_kwargs)
        self._entries: OrderedDict[tuple, _CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self._closed = False
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.cached_bytes = 0
        trace = scorpion_kwargs.get("trace")
        self._trace = tracing_enabled() if trace is None else bool(trace)
        self.logger = logger
        self.registry = registry if registry is not None else REGISTRY
        reg = self.registry
        self._m_requests = reg.counter(
            "scorpion_requests_total", "Explain requests completed")
        self._m_errors = reg.counter(
            "scorpion_request_errors_total", "Explain requests that raised")
        self._m_latency = reg.histogram(
            "scorpion_request_seconds",
            "End-to-end explain request latency (seconds)")
        self._m_hits = reg.counter(
            "scorpion_cache_hits_total", "Content-key cache hits")
        self._m_misses = reg.counter(
            "scorpion_cache_misses_total", "Content-key cache misses")
        self._m_evictions = reg.counter(
            "scorpion_cache_evictions_total",
            "Cache entries evicted by the byte capacity")
        self._m_entries = reg.gauge(
            "scorpion_cache_entries", "Resident cache entries")
        self._m_bytes = reg.gauge(
            "scorpion_cache_resident_bytes",
            "Bytes billed to resident cache entries")
        self._m_dtcache_entries = reg.gauge(
            "scorpion_dtcache_entries",
            "DT-cache entries of the most recently served problem")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def explain(self, problem: ScorpionQuery, *, c: float | None = None,
                c_holdout: float | None = None,
                lam: float | None = None) -> ScorpionResult:
        """Explain an already-built problem, reusing a cached entry when
        one matches its content key.

        ``c`` / ``c_holdout`` / ``λ`` default to the problem's own
        values; passing them sweeps knobs against the cached image
        without constructing new :class:`ScorpionQuery` objects.
        """
        if c is None:
            # No c override: replay the problem's own (already resolved)
            # scalars exactly.
            c_eff = problem.c
            ch_eff = problem.c_holdout if c_holdout is None else float(c_holdout)
        else:
            # c override: an unspecified c_holdout follows c, matching
            # the ScorpionQuery constructor and with_c slider semantics.
            c_eff = float(c)
            ch_eff = None if c_holdout is None else float(c_holdout)
        return self._serve_request(
            problem_key(problem), lambda: problem, c=c_eff, c_holdout=ch_eff,
            lam=problem.lam if lam is None else float(lam))

    def explain_request(self, table: Table, query: GroupByQuery,
                        outliers: Iterable, holdouts: Iterable = (),
                        error_vectors: float | Mapping = 1.0, *,
                        lam: float = 0.5, c: float = 1.0,
                        c_holdout: float | None = None,
                        attributes: Iterable[str] | None = None,
                        ignore: Iterable[str] = (),
                        perturbation: str = "delete") -> ScorpionResult:
        """Explain from raw request inputs.

        The content key is computed *without* executing the group-by,
        so a cache hit skips the problem build entirely — the entry
        point serve mode uses.  Arguments mirror
        :class:`~repro.core.problem.ScorpionQuery`.
        """
        key = request_key(table, query, outliers, holdouts, error_vectors,
                          attributes, ignore, perturbation)

        def make_problem() -> ScorpionQuery:
            return ScorpionQuery(
                table, query, outliers, holdouts=holdouts,
                error_vectors=error_vectors, lam=lam, c=c,
                c_holdout=c_holdout, attributes=attributes,
                ignore=ignore, perturbation=perturbation)

        return self._serve_request(
            key, make_problem, c=float(c),
            c_holdout=None if c_holdout is None else float(c_holdout),
            lam=float(lam))

    def _serve_request(self, key: tuple,
                       make_problem: Callable[[], ScorpionQuery], *,
                       c: float, c_holdout: float | None,
                       lam: float) -> ScorpionResult:
        """Acquire → (build) → run, wrapped in the per-request
        observability envelope: one tracer per request when tracing is
        on (checkout/build spans plus the inner explain tree, exported
        onto ``result.trace``), the latency histogram, and the
        request/cache metric publications."""
        started = time.perf_counter()
        tracer = (Tracer().activate()
                  if self._trace and current_tracer() is None else None)
        try:
            with span("checkout") as csp:
                entry = self._acquire(key)
            try:
                with entry.lock:
                    hit = self._count_checkout(entry)
                    if csp:  # decided after the checkout span closed
                        csp.annotate(hit=hit)
                    if not hit:
                        self._build_with_shed(entry, make_problem)
                    result = self._run(entry, hit, c=c, c_holdout=c_holdout,
                                       lam=lam)
            finally:
                self._unpin(entry)
        except Exception:
            self._m_errors.inc()
            raise
        finally:
            if tracer is not None:
                tracer.deactivate()
        if tracer is not None:
            result.trace = tracer.export()
        self._observe(result, time.perf_counter() - started)
        return result

    def _observe(self, result: ScorpionResult, elapsed: float) -> None:
        """Publish one finished request into the metrics registry."""
        self._m_requests.inc()
        self._m_latency.observe(elapsed)
        with self._lock:
            entries = len(self._entries)
            cached = self.cached_bytes
        self._m_entries.set(entries)
        self._m_bytes.set(cached)
        stats = result.scorer_stats
        for stat_key, metric_name, help_text in _PUBLISHED_COUNTERS:
            value = stats.get(stat_key, 0)
            if value:
                self.registry.counter(metric_name, help_text).inc(value)
        if "dtcache_entries" in stats:
            self._m_dtcache_entries.set(stats["dtcache_entries"])

    async def explain_async(self, problem: ScorpionQuery, *,
                            c: float | None = None,
                            c_holdout: float | None = None,
                            lam: float | None = None,
                            deadline: float | None = None) -> ScorpionResult:
        """Queue an explain on a worker thread with a deadline.

        Concurrent calls for the same content key serialize on the
        entry (one build, N reuses); distinct keys run concurrently.
        ``deadline`` is seconds (None → ``SCORPION_TASK_TIMEOUT``, else
        :data:`DEFAULT_TASK_TIMEOUT`; ``<= 0`` waits forever); expiry
        raises :class:`asyncio.TimeoutError` via
        :func:`asyncio.wait_for`.
        """
        if deadline is None:
            deadline = _resolve_timeout(None)
        elif deadline <= 0:
            deadline = None
        coro = asyncio.to_thread(self.explain, problem, c=c,
                                 c_holdout=c_holdout, lam=lam)
        if deadline is None:
            return await coro
        try:
            return await asyncio.wait_for(coro, deadline)
        except asyncio.TimeoutError:
            if self.logger is not None:
                self.logger.log("deadline_expired", deadline_s=deadline,
                                c=c, lam=lam)
            raise

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Current service counters (the same numbers each result
        carries under ``service_*`` keys), plus the process-level view:
        completed-request count and error count, and the request-latency
        histogram snapshot.  The extra keys are registry-backed — ``service_requests`` counts
        requests that *completed* while ``service_hits + service_misses``
        counts requests that reached their cache entry, so the two only
        differ by in-flight or failed requests."""
        with self._lock:
            base = {
                "service_hits": self.hits,
                "service_misses": self.misses,
                "service_evictions": self.evictions,
                "service_entries": len(self._entries),
                "service_cached_bytes": self.cached_bytes,
            }
        latency = self._m_latency.snapshot()
        base["service_requests"] = latency["count"]
        base["service_request_errors"] = self._m_errors.value
        base["service_request_seconds"] = latency
        return base

    def health(self) -> dict:
        """Liveness summary for the serve ``health`` op: whether the
        service is open, cache occupancy and capacity, pinned entries,
        and the OOM-shed retries counted in this service's registry."""
        with self._lock:
            entries = list(self._entries.values())
            info: dict = {
                "ok": not self._closed,
                "cache_entries": len(entries),
                "cached_bytes": self.cached_bytes,
                "cache_capacity_bytes": self.cache_bytes,
                "pinned_entries": sum(1 for e in entries if e.pins > 0),
            }
        metric = self.registry.get("scorpion_oom_retries_total")
        info["oom_retries"] = int(metric.value) if metric is not None else 0
        return info

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def close(self) -> None:
        """Evict everything and refuse further requests.  Entries with
        requests in flight are released by their last request."""
        with self._lock:
            self._closed = True
            entries = list(self._entries.values())
            self._entries.clear()
            self.cached_bytes = 0
            for entry in entries:
                entry.dead = True
            to_release = [e for e in entries if e.pins == 0]
        for entry in to_release:
            entry.release()

    def __enter__(self) -> "ExplainService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _acquire(self, key: tuple) -> _CacheEntry:
        """Pin the entry for ``key``, inserting an unbuilt shell if there
        is none."""
        with self._lock:
            if self._closed:
                raise ScorpionError("ExplainService is closed")
            entry = self._entries.get(key)
            if entry is None:
                entry = _CacheEntry(key)
                self._entries[key] = entry
            else:
                self._entries.move_to_end(key)
            entry.pins += 1
        return entry

    def _count_checkout(self, entry: _CacheEntry) -> bool:
        """Count a hit or a miss for a request holding ``entry``'s lock.

        A hit is an entry that is already built, so concurrent same-key
        requests see one miss and N-1 hits, and a request after a failed
        build is a miss: it pays the build.
        """
        hit = entry.scorer is not None
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        # Mirror the decision into the registry outside the service lock
        # (counters carry their own locks) so registry totals always
        # reconcile with the service_hits / service_misses counters.
        (self._m_hits if hit else self._m_misses).inc()
        return hit

    def _unpin(self, entry: _CacheEntry) -> None:
        """Drop a request's pin.  The last pin releases a dead entry, and
        drops a live one that is still unbuilt (its build failed), so a
        key whose build failed keeps no shell in the cache."""
        release = False
        with self._lock:
            entry.pins -= 1
            if entry.dead:
                release = entry.pins == 0
            else:
                if entry.pins == 0 and entry.scorer is None:
                    del self._entries[entry.key]
                    entry.dead = True
                self._evict_over_capacity()
        if release:
            entry.release()

    def _build(self, entry: _CacheEntry, problem: ScorpionQuery) -> None:
        """Populate a shell entry (entry lock held): one Scorpion with
        its own bounded DT cache, plus the narrowed problem and scorer
        from the build half of the pipeline."""
        scorpion = Scorpion(**self._scorpion_kwargs)
        narrowed, scorer = scorpion.build_scorer(problem)
        entry.problem = narrowed
        entry.scorpion = scorpion
        entry.scorer = scorer
        self._reaccount(entry)

    def _build_with_shed(self, entry: _CacheEntry,
                         make_problem: Callable[[], ScorpionQuery]) -> None:
        """Build, and on :class:`MemoryError` shed every unpinned cache
        entry and retry once (entry lock held).

        A build is the service's one unbounded allocation (problem
        image + evaluator arrays scale with the dataset), so memory
        pressure is met by giving up residency, not by failing the
        request.  A second :class:`MemoryError` means the problem
        doesn't fit even in an empty cache: surface it as the
        structured :class:`~repro.errors.ResourceExhausted` (serve code
        ``oom_retry``).
        """
        try:
            self._build(entry, make_problem())
            return
        except MemoryError:
            shed = self._shed_bytes(exempt=entry)
        self.registry.counter(
            "scorpion_oom_retries_total",
            "Problem builds retried after MemoryError shed the cache").inc()
        if self.logger is not None:
            self.logger.log("oom_shed", shed_bytes=shed)
        try:
            self._build(entry, make_problem())
        except MemoryError as exc:
            raise ResourceExhausted(
                f"problem build out of memory even after shedding "
                f"{shed} cached bytes: {exc}") from exc

    def _shed_bytes(self, exempt: _CacheEntry | None = None) -> int:
        """Memory-pressure relief: drop every unpinned entry (LRU and
        hot alike) and return the bytes given back."""
        with self._lock:
            shed = 0
            for key, entry in list(self._entries.items()):
                if entry is exempt or entry.pins > 0:
                    continue
                del self._entries[key]
                entry.dead = True
                self.cached_bytes -= entry.nbytes
                shed += entry.nbytes
                self.evictions += 1
                self._m_evictions.inc()
                entry.release()
        return shed

    def _run(self, entry: _CacheEntry, hit: bool, *, c: float,
             c_holdout: float | None, lam: float) -> ScorpionResult:
        """Execute against the entry's scorer (entry lock held).

        Stats reset + memo drop first, so the scoring counters a warm
        call reports replay a cold call's exactly (the bit-for-bit
        contract); then rebind the knobs and run the execute half.
        """
        scorer = entry.scorer
        scorer.stats.reset()
        scorer.clear_memo()
        target = entry.problem.with_params(c=c, c_holdout=c_holdout, lam=lam)
        scorer.rebind(target)
        result = entry.scorpion.explain(target, scorer=scorer)
        result.scorer_stats.update(self._service_stats(hit))
        return result

    def _reaccount(self, entry: _CacheEntry) -> None:
        """Bill the entry's resident bytes and evict if now over
        capacity."""
        nbytes = entry.scorer.resident_bytes()
        with self._lock:
            if not entry.dead:
                self.cached_bytes += nbytes - entry.nbytes
                entry.nbytes = nbytes
                self._evict_over_capacity()

    def _evict_over_capacity(self) -> None:
        """Drop LRU entries until under capacity (service lock held).
        Pinned entries are skipped — an in-flight request may exceed
        capacity transiently rather than lose its scorer mid-run."""
        if self.cached_bytes <= self.cache_bytes:
            return
        for key, entry in list(self._entries.items()):
            if entry.pins > 0:
                continue
            del self._entries[key]
            entry.dead = True
            self.cached_bytes -= entry.nbytes
            self.evictions += 1
            self._m_evictions.inc()
            entry.release()
            if self.cached_bytes <= self.cache_bytes:
                return

    def _service_stats(self, hit: bool) -> dict:
        with self._lock:
            return {
                "service_cache_hit": bool(hit),
                "service_hits": self.hits,
                "service_misses": self.misses,
                "service_evictions": self.evictions,
                "service_entries": len(self._entries),
                "service_cached_bytes": self.cached_bytes,
            }
