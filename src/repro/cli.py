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
[...], "c": 0.3, ...}``), one JSON line per request comes back in
request order, and the expensive problem build is cached across
requests behind a content key (see :mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import traceback
from typing import Sequence

from repro.core.explore import CExplorer
from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion
from repro.errors import QueryError, ResourceExhausted, ScorpionError
from repro.obs.logs import JsonLogger, new_trace_id
from repro.obs.metrics import REGISTRY
from repro.obs.trace import render_profile
from repro.query.sql import parse_query
from repro.service.service import ExplainService
from repro.table.io import read_csv
from repro.table.table import Table


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
    parser.add_argument("--serve", action="store_true",
                        help="resident service mode: read one JSON request "
                             "per stdin line, write one JSON response per "
                             "line, caching problem images and scorers "
                             "across requests")
    parser.add_argument("--cache-bytes", type=int, default=None,
                        help="resident cache capacity in bytes for --serve "
                             "(default: SCORPION_CACHE_BYTES env var or "
                             "512 MiB)")
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


def _guarded_explain(service: ExplainService, request: dict, args,
                     table: Table, query) -> dict:
    """One explain, mapped to a structured payload.

    Never raises: every failure becomes an ``"ok": false`` payload with
    an error ``code`` (``oom_retry`` for memory exhaustion even after
    cache shedding, ``bad_request`` for caller mistakes, ``internal``
    for anything else), so no request can kill the serve loop.  An
    ``internal`` payload also carries the formatted ``traceback``,
    which the serve loop moves into its ``request_error`` log record.
    """
    try:
        payload = _explain_op(service, request, args, table, query)
    except (ResourceExhausted, MemoryError) as exc:
        return {"ok": False, "error": str(exc), "code": "oom_retry"}
    except (ScorpionError, ValueError, KeyError, TypeError) as exc:
        return {"ok": False, "error": str(exc), "code": "bad_request"}
    except Exception as exc:  # noqa: BLE001 - the serve loop must survive
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                "code": "internal", "traceback": traceback.format_exc()}
    return payload


class _ShutdownSignal(BaseException):
    """Raised by the SIGINT/SIGTERM handler to break a blocked
    ``readline`` — BaseException so no request-level handler can
    swallow it."""


def _answer(service: ExplainService, request, op: str, args,
            table: Table, query) -> dict:
    """The response payload for one decoded request line."""
    if not isinstance(request, dict):
        return {"ok": False, "error": "request must be a JSON object",
                "code": "bad_request"}
    if op == "explain":
        return _guarded_explain(service, request, args, table, query)
    if op == "stats":
        return {"ok": True, "op": "stats", "stats": service.stats()}
    if op == "metrics":
        return {"ok": True, "op": "metrics",
                "metrics": REGISTRY.render_prometheus()}
    if op == "health":
        return {"ok": True, "op": "health", "health": service.health()}
    return {"ok": False, "error": f"unknown op {op!r}",
            "code": "unknown_op"}


def _serve(args, table: Table, query, out, stdin, log=None) -> int:
    """JSON-lines request loop over a resident :class:`ExplainService`.

    Each request object accepts ``outliers`` (required), ``holdouts``,
    ``direction``, ``c``, ``lam``, and ``query`` (SQL overriding the
    startup query); omitted knobs fall back to the CLI flags.  Control
    operations bypass scoring: ``{"op": "stats"}`` answers with
    :meth:`ExplainService.stats`, ``{"op": "metrics"}`` with the
    Prometheus text dump, and ``{"op": "health"}`` with
    :meth:`ExplainService.health` (liveness and cache state).  Each
    response line carries the request's ``trace_id`` — the same ID its
    structured log lines (on ``log``, default stderr) carry — and a
    malformed or unknown request yields a structured ``"ok": false``
    line with an error ``code`` (``bad_json`` / ``bad_request`` /
    ``unknown_op``) instead of ending the loop.

    Requests are answered one at a time, in order: a line is read,
    answered on this thread and its response written before the next
    line is read, so a control answer reflects every request before it.

    **Shutdown.**  SIGINT/SIGTERM, EOF and a stdin read error end the
    loop.  A signal breaks a blocked read at once; one arriving
    mid-request lets that request finish and write its response first.
    The loop then logs one ``serve_shutdown`` event with the reason,
    releases the service, and exits 0 — a
    deployed explainer is restartable without losing accepted work.
    """
    logger = JsonLogger(stream=log)
    service = ExplainService(
        cache_bytes=args.cache_bytes, algorithm=args.algorithm,
        top_k=args.top_k, logger=logger,
        trace=True if args.trace else None)
    shutdown_reason: str | None = None
    in_read = False

    def _handle_signal(signum, frame) -> None:
        nonlocal shutdown_reason
        shutdown_reason = signal.Signals(signum).name
        if in_read:
            raise _ShutdownSignal()

    installed: list[tuple] = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            installed.append((sig, signal.signal(sig, _handle_signal)))
        except ValueError:  # not the main thread (tests, embedding)
            pass
    try:
        with service:
            while True:
                try:
                    in_read = True
                    # A signal that arrived mid-request stops the loop
                    # here; one arriving from now on breaks the read.
                    if shutdown_reason is not None:
                        break
                    line = stdin.readline()
                except _ShutdownSignal:
                    break
                except OSError as exc:
                    logger.log("read_error", error=str(exc))
                    shutdown_reason = "read_error"
                    break
                finally:
                    in_read = False
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
                    op = "explain"
                    logger.log("request_start", trace_id=trace_id, op=op)
                    payload = {"ok": False, "error": str(exc),
                               "code": "bad_json"}
                else:
                    op = (request.get("op", "explain")
                          if isinstance(request, dict) else "explain")
                    logger.log("request_start", trace_id=trace_id, op=op)
                    payload = _answer(service, request, op, args, table,
                                      query)
                # Tracebacks are for the operator's log, not the client.
                error_fields = {"traceback": payload.pop("traceback")} \
                    if "traceback" in payload else {}
                payload["trace_id"] = trace_id
                if payload["ok"]:
                    elapsed_ms = (time.perf_counter() - started) * 1e3
                    finish_fields = {"op": op,
                                     "elapsed_ms": round(elapsed_ms, 3)}
                    if "cache_hit" in payload:
                        finish_fields["cache_hit"] = payload["cache_hit"]
                    logger.log("request_finish", trace_id=trace_id,
                               **finish_fields)
                else:
                    logger.log("request_error", trace_id=trace_id,
                               code=payload["code"], error=payload["error"],
                               **error_fields)
                print(json.dumps(payload), file=out, flush=True)
                _dump_metrics(args.metrics_file)
            logger.log("serve_shutdown", reason=shutdown_reason,
                       requests=int(REGISTRY.counter(
                           "scorpion_requests_total",
                           "Explain requests completed").value))
    finally:
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
