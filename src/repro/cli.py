"""Command-line interface: Scorpion over a CSV file.

Example::

    python -m repro \
        --csv readings.csv \
        --query "SELECT avg(temp) FROM readings GROUP BY time" \
        --outliers 12PM,1PM --holdouts 11AM \
        --direction high --c 0.5 --top-k 3

The group keys in ``--outliers`` / ``--holdouts`` are matched against
the group-by column's values (numeric strings are coerced when the
column is numeric).  ``--explore-c`` sweeps the Section 7 knob instead
of solving a single instance and prints the predicate ladder.

``--serve`` starts the resident service instead: one JSON object per
stdin line describes a request (``{"outliers": [...], "holdouts":
[...], "c": 0.3, ...}``), one JSON line per request comes back, and the
expensive problem build is cached across requests behind a content key
(see :mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from repro.core.explore import CExplorer
from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion
from repro.errors import QueryError, ResourceExhausted, ScorpionError
from repro.faults import fault_point
from repro.obs.logs import JsonLogger, new_trace_id
from repro.obs.metrics import REGISTRY
from repro.obs.trace import render_profile
from repro.query.sql import parse_query
from repro.service.service import ExplainService
from repro.table.io import read_csv
from repro.table.table import Table

#: Concurrent in-flight explain requests --serve accepts before
#: answering ``overloaded`` (override via ``SCORPION_INFLIGHT_LIMIT``
#: or ``--inflight-limit``).
DEFAULT_INFLIGHT_LIMIT = 8


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scorpion: explain outliers in aggregate query results.",
    )
    parser.add_argument("--csv", required=True,
                        help="input CSV file (header row required)")
    parser.add_argument("--query", required=True,
                        help="SQL: SELECT <agg>(<col>) FROM <t> "
                             "[WHERE ...] GROUP BY <col>")
    parser.add_argument("--outliers", default="",
                        help="comma-separated group keys flagged as outliers "
                             "(required except with --serve, where each "
                             "request names its own)")
    parser.add_argument("--holdouts", default="",
                        help="comma-separated group keys flagged as normal")
    parser.add_argument("--direction", choices=["high", "low"], default="high",
                        help="are the outliers too high or too low? "
                             "(error vector; default: high)")
    parser.add_argument("--c", type=float, default=0.5,
                        help="selectivity knob, 0 = coarse, 1 = selective "
                             "(paper Section 7; default 0.5)")
    parser.add_argument("--lam", type=float, default=0.5,
                        help="outlier-vs-holdout weight λ (default 0.5)")
    parser.add_argument("--algorithm", choices=["auto", "dt", "mc", "naive"],
                        default="auto")
    parser.add_argument("--ignore", default="",
                        help="comma-separated attributes to exclude from "
                             "explanations")
    parser.add_argument("--top-k", type=int, default=3,
                        help="number of explanations to print (default 3)")
    parser.add_argument("--explore-c", action="store_true",
                        help="sweep c and print the predicate ladder "
                             "instead of solving one instance")
    parser.add_argument("--batch-chunk", type=int, default=None,
                        help="most predicates per vectorized scoring pass "
                             "(default: SCORPION_BATCH_CHUNK env var or "
                             "the built-in 1024; with --workers > 1 a "
                             "smaller batch is cut so every worker gets a "
                             "shard; results are unaffected)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for sharded batch scoring "
                             "(default: SCORPION_WORKERS env var or 1 = "
                             "serial; 0 = one per CPU; results are "
                             "bit-for-bit identical at any setting)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="per-shard worker deadline in seconds "
                             "(default: SCORPION_TASK_TIMEOUT env var or "
                             "300; <= 0 waits forever)")
    parser.add_argument("--serve", action="store_true",
                        help="resident service mode: read one JSON request "
                             "per stdin line, write one JSON response per "
                             "line, caching problem images and worker "
                             "pools across requests")
    parser.add_argument("--cache-bytes", type=int, default=None,
                        help="resident cache capacity in bytes for --serve "
                             "(default: SCORPION_CACHE_BYTES env var or "
                             "512 MiB)")
    parser.add_argument("--inflight-limit", type=int, default=None,
                        help="concurrent in-flight explain requests --serve "
                             "accepts before answering a structured "
                             "'overloaded' error (default: "
                             "SCORPION_INFLIGHT_LIMIT env var or 8)")
    parser.add_argument("--trace", action="store_true",
                        help="record a per-explain span tree (also "
                             "SCORPION_TRACE=1); results are bit-for-bit "
                             "unaffected.  In --serve mode each response "
                             "line carries its trace")
    parser.add_argument("--profile", action="store_true",
                        help="print an indented text profile of the explain "
                             "span tree after the explanations (implies "
                             "--trace; one-shot mode only)")
    parser.add_argument("--metrics-file", default=None,
                        help="write a Prometheus text-exposition dump of "
                             "the metrics registry to this path (rewritten "
                             "after every --serve request)")
    return parser


def _split_keys(raw: str) -> list[str]:
    return [key.strip() for key in raw.split(",") if key.strip()]


def _coerce_keys(keys: Sequence[str], table: Table, column: str) -> list:
    """Match CLI strings against the group-by column's value types."""
    spec = table.schema[column]
    if spec.is_continuous:
        return [float(key) for key in keys]
    sample = {type(v) for v in table.column(column).values[:100]}
    coerced: list = []
    for key in keys:
        if str in sample:
            coerced.append(key)
        elif int in sample:
            coerced.append(int(key))
        elif float in sample:
            coerced.append(float(key))
        else:
            coerced.append(key)
    return coerced


def _dump_metrics(path: str | None) -> None:
    """Rewrite the Prometheus text-exposition dump (no-op without a
    ``--metrics-file`` path)."""
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(REGISTRY.render_prometheus())


def _explain_op(service: ExplainService, request: dict, args, table: Table,
                query) -> dict:
    """One serve-mode explain: resolve the request against the CLI-flag
    defaults and run it through the resident service."""
    req_query = (parse_query(request["query"]).to_query()
                 if "query" in request else query)
    group_column = req_query.group_by[0]
    outliers = _coerce_keys(
        [str(k) for k in request["outliers"]], table, group_column)
    holdouts = _coerce_keys(
        [str(k) for k in request.get("holdouts", [])],
        table, group_column)
    direction = request.get("direction", args.direction)
    result = service.explain_request(
        table, req_query, outliers, holdouts,
        error_vectors=+1.0 if direction == "high" else -1.0,
        lam=float(request.get("lam", args.lam)),
        c=float(request.get("c", args.c)),
        ignore=_split_keys(args.ignore),
    )
    payload = {
        "ok": True,
        "algorithm": result.algorithm,
        "elapsed": result.elapsed,
        "cache_hit": bool(result.scorer_stats["service_cache_hit"]),
        "explanations": [
            {"predicate": str(e.predicate),
             "influence": float(e.influence),
             "rows": int(e.n_matched)}
            for e in result.explanations],
        "stats": {
            k: v for k, v in sorted(result.scorer_stats.items())
            if k.startswith(("service_", "dtcache_"))},
    }
    if result.trace is not None:
        payload["trace"] = result.trace
    return payload


def _resolve_inflight(limit: int | None) -> int:
    if limit is None:
        raw = os.environ.get("SCORPION_INFLIGHT_LIMIT", "").strip()
        limit = int(raw) if raw else DEFAULT_INFLIGHT_LIMIT
    limit = int(limit)
    if limit < 1:
        raise ScorpionError(f"inflight limit must be >= 1, got {limit}")
    return limit


def _guarded_explain(service: ExplainService, request: dict, args,
                     table: Table, query) -> dict:
    """One explain on a dispatch thread, mapped to a structured payload.

    Never raises: every failure becomes an ``"ok": false`` payload with
    an error ``code`` (``oom_retry`` for memory exhaustion even after
    cache shedding, ``bad_request`` for caller mistakes, ``internal``
    for anything else — injected faults included), so no request can
    kill the serve loop.  Successful payloads carry a sparse
    ``"degraded": true`` marker while any pool circuit is holding
    batches serial.
    """
    try:
        payload = _explain_op(service, request, args, table, query)
    except (ResourceExhausted, MemoryError) as exc:
        return {"ok": False, "error": str(exc), "code": "oom_retry"}
    except (ScorpionError, ValueError, KeyError, TypeError) as exc:
        return {"ok": False, "error": str(exc), "code": "bad_request"}
    except Exception as exc:  # noqa: BLE001 - the serve loop must survive
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                "code": "internal"}
    if service.health()["degraded"]:
        payload["degraded"] = True
    return payload


class _ShutdownSignal(BaseException):
    """Raised by the SIGINT/SIGTERM handler to break a blocked
    ``readline`` — BaseException so no request-level handler can
    swallow it."""


def _serve(args, table: Table, query, out, stdin, log=None) -> int:
    """JSON-lines request loop over a resident :class:`ExplainService`.

    Each request object accepts ``outliers`` (required), ``holdouts``,
    ``direction``, ``c``, ``lam``, and ``query`` (SQL overriding the
    startup query); omitted knobs fall back to the CLI flags.  Control
    operations bypass scoring: ``{"op": "stats"}`` answers with
    :meth:`ExplainService.stats`, ``{"op": "metrics"}`` with the
    Prometheus text dump, and ``{"op": "health"}`` with
    :meth:`ExplainService.health` (pool/cache/degradation state).  Each
    response line carries the request's ``trace_id`` — the same ID its
    structured log lines (on ``log``, default stderr) carry — and a
    malformed or unknown request yields a structured ``"ok": false``
    line with an error ``code`` (``bad_json`` / ``bad_request`` /
    ``unknown_op``) instead of ending the loop.

    **Concurrency and backpressure.**  Explains run on a dispatch
    thread pool sized by ``--inflight-limit`` /
    ``SCORPION_INFLIGHT_LIMIT`` and their responses are written in
    submission order; control ops drain in-flight explains first, so a
    ``stats`` line always reflects every request before it.  The one
    out-of-order response is backpressure itself: a request arriving
    with the pipeline full is answered immediately with code
    ``overloaded`` rather than queued unboundedly.

    **Shutdown.**  SIGINT/SIGTERM (and EOF) drain in-flight requests,
    write their responses, log one ``serve_shutdown`` event with the
    reason, release the service (its worker pools), and exit 0 —
    a deployed explainer is restartable without losing accepted work.
    """
    logger = JsonLogger(stream=log)
    inflight_limit = _resolve_inflight(args.inflight_limit)
    service = ExplainService(
        cache_bytes=args.cache_bytes, algorithm=args.algorithm,
        top_k=args.top_k,
        batch_chunk=args.batch_chunk, workers=args.workers,
        task_timeout=args.task_timeout, logger=logger,
        trace=True if args.trace else None)
    #: (trace_id, op, perf_counter at read, Future[payload]) per
    #: in-flight explain, in submission order.
    pending: deque = deque()
    shutdown_reason: str | None = None
    in_read = threading.Event()

    def _handle_signal(signum, frame) -> None:
        nonlocal shutdown_reason
        shutdown_reason = signal.Signals(signum).name
        if in_read.is_set():
            raise _ShutdownSignal()

    def _emit(payload: dict, trace_id: str, op: str,
              started: float) -> None:
        elapsed_ms = (time.perf_counter() - started) * 1e3
        if payload.get("ok"):
            finish_fields = {"op": op, "elapsed_ms": round(elapsed_ms, 3)}
            if "cache_hit" in payload:
                finish_fields["cache_hit"] = payload["cache_hit"]
            logger.log("request_finish", trace_id=trace_id, **finish_fields)
        else:
            logger.log("request_error", trace_id=trace_id,
                       code=payload.get("code", "bad_request"),
                       error=payload.get("error"))
        print(json.dumps(payload), file=out, flush=True)
        _dump_metrics(args.metrics_file)

    def _flush(block: bool) -> None:
        """Write completed in-flight responses in submission order
        (``block`` waits for all of them — the drain barrier)."""
        while pending:
            trace_id, op, started, future = pending[0]
            if not block and not future.done():
                return
            payload = future.result()  # _guarded_explain never raises
            pending.popleft()
            payload["trace_id"] = trace_id
            _emit(payload, trace_id, op, started)

    installed: list[tuple] = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            installed.append((sig, signal.signal(sig, _handle_signal)))
        except ValueError:  # not the main thread (tests, embedding)
            pass
    pool = ThreadPoolExecutor(max_workers=inflight_limit,
                              thread_name_prefix="serve")
    try:
        with service:
            while shutdown_reason is None:
                try:
                    in_read.set()
                    try:
                        fault_point("serve.read")
                        line = stdin.readline()
                    finally:
                        in_read.clear()
                except _ShutdownSignal:
                    break
                except OSError as exc:
                    logger.log("read_error", error=str(exc))
                    shutdown_reason = "read_error"
                    break
                if line == "":
                    shutdown_reason = "eof"
                    break
                line = line.strip()
                if not line:
                    continue
                trace_id = new_trace_id()
                started = time.perf_counter()
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as exc:
                    _flush(block=True)
                    logger.log("request_start", trace_id=trace_id,
                               op="explain")
                    _emit({"ok": False, "error": str(exc),
                           "code": "bad_json", "trace_id": trace_id},
                          trace_id, "explain", started)
                    continue
                op = (request.get("op", "explain")
                      if isinstance(request, dict) else "explain")
                logger.log("request_start", trace_id=trace_id, op=op)
                if isinstance(request, dict) and op == "explain":
                    _flush(block=False)
                    if len(pending) >= inflight_limit:
                        REGISTRY.counter(
                            "scorpion_overloaded_total",
                            "Requests rejected by the in-flight "
                            "limit").inc()
                        _emit({"ok": False,
                               "error": f"in-flight limit {inflight_limit} "
                                        "reached",
                               "code": "overloaded", "trace_id": trace_id},
                              trace_id, op, started)
                        continue
                    pending.append((trace_id, op, started, pool.submit(
                        _guarded_explain, service, request, args, table,
                        query)))
                    _flush(block=False)
                    continue
                # Control ops (and malformed requests) see the service
                # *after* everything already accepted: drain first.
                _flush(block=True)
                if not isinstance(request, dict):
                    payload = {"ok": False,
                               "error": "request must be a JSON object",
                               "code": "bad_request", "trace_id": trace_id}
                elif op == "stats":
                    payload = {"ok": True, "op": "stats",
                               "trace_id": trace_id,
                               "stats": service.stats()}
                elif op == "metrics":
                    payload = {"ok": True, "op": "metrics",
                               "trace_id": trace_id,
                               "metrics": REGISTRY.render_prometheus()}
                elif op == "health":
                    payload = {"ok": True, "op": "health",
                               "trace_id": trace_id,
                               "health": service.health()}
                else:
                    payload = {"ok": False, "error": f"unknown op {op!r}",
                               "code": "unknown_op", "trace_id": trace_id}
                _emit(payload, trace_id, op, started)
            # Graceful shutdown: drain accepted work, then release.
            _flush(block=True)
            logger.log("serve_shutdown",
                       reason=shutdown_reason or "signal",
                       requests=int(REGISTRY.counter(
                           "scorpion_requests_total",
                           "Explain requests completed").value))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        for sig, previous in installed:
            signal.signal(sig, previous)
    _dump_metrics(args.metrics_file)
    return 0


def run(argv: Sequence[str] | None = None, out=sys.stdout,
        stdin=sys.stdin, log=None) -> int:
    """Entry point; returns a process exit code (``stdin`` feeds
    ``--serve`` requests, ``log`` receives ``--serve`` structured JSON
    log lines — default stderr; both exist for tests)."""
    args = build_parser().parse_args(argv)
    try:
        table = read_csv(args.csv)
        parsed = parse_query(args.query)
        query = parsed.to_query()
        if args.serve:
            return _serve(args, table, query, out, stdin, log)
        group_column = query.group_by[0]
        outliers = _coerce_keys(_split_keys(args.outliers), table, group_column)
        holdouts = _coerce_keys(_split_keys(args.holdouts), table, group_column)
        if not outliers:
            raise QueryError("--outliers must name at least one group key")
        problem = ScorpionQuery(
            table=table,
            query=query,
            outliers=outliers,
            holdouts=holdouts,
            error_vectors=+1.0 if args.direction == "high" else -1.0,
            lam=args.lam,
            c=args.c,
            ignore=_split_keys(args.ignore),
        )
        scorpion = Scorpion(algorithm=args.algorithm, top_k=args.top_k,
                            batch_chunk=args.batch_chunk,
                            workers=args.workers,
                            task_timeout=args.task_timeout,
                            trace=(True if args.trace or args.profile
                                   else None))
        if args.explore_c:
            exploration = CExplorer(scorpion).explore(problem)
            print(exploration.to_string(), file=out)
            _dump_metrics(args.metrics_file)
            return 0
        result = scorpion.explain(problem)
        print(f"algorithm: {result.algorithm}  "
              f"({result.elapsed:.2f}s, {result.n_candidates} candidates)",
              file=out)
        if args.profile and result.trace:
            print(render_profile(result.trace), file=out)
        _dump_metrics(args.metrics_file)
        if not result.explanations:
            print("no influential predicate found", file=out)
            return 1
        for rank, explanation in enumerate(result.explanations, start=1):
            print(f"{rank}. {explanation}", file=out)
        best = result.best
        print("updated outputs with the top predicate's tuples removed:",
              file=out)
        for key, value in sorted(best.updated_outliers.items(), key=repr):
            original = problem.results.by_key(key).value
            print(f"  outlier  {key}: {original:.4g} -> {value:.4g}", file=out)
        for key, value in sorted(best.updated_holdouts.items(), key=repr):
            original = problem.results.by_key(key).value
            print(f"  hold-out {key}: {original:.4g} -> {value:.4g}", file=out)
        return 0
    except (ScorpionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run())
