"""Resident-service throughput: warm content-keyed cache vs
rebuild-per-call (the PR 7 acceptance experiment).

A rebuild-per-call client pays the full problem build on every request:
group-by execution and provenance over the whole table, context and
evaluator construction — all pure function of the problem, not of the
``c`` knob the requests vary.  A resident :class:`~repro.service.ExplainService` pays them once.

Legs:

* **warm vs cold (equality + throughput)** — the service runs with
  ``use_cache=False`` so every request repartitions and remerges
  deterministically; each warm result is then asserted bit-for-bit
  equal to its rebuild-per-call twin (explanations, influences, matched
  rows, updated outputs), and warm explains/sec must be ≥ 3× cold.
  The speedup is *pure* artifact reuse — no DT-cache
  shortcuts are allowed to blur the equality contract.
* **full resident** — the realistic configuration (DT cache on), where
  warm requests additionally reuse DT's partitions; each warm result is
  asserted bit-for-bit equal to its rebuild-per-call twin too, and
  throughput is reported.
* **concurrent asyncio** — the same request mix through
  :meth:`~repro.service.ExplainService.explain_async` under
  ``asyncio.gather``, asserting one miss, N−1 hits, and result
  equality with the sequential leg.

Timing assertions are skipped when ``SCORPION_BENCH_PERF_ASSERT=0``
(CI smoke runs keep the equality checks).
"""

import asyncio
import os
import time

import numpy as np

from repro.aggregates import Sum
from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion
from repro.eval import format_table
from repro.query.groupby import GroupByQuery
from repro.service import ExplainService
from repro.table.schema import ColumnKind, ColumnSpec, Schema
from repro.table.table import Table

from benchmarks.conftest import SCALE, emit_bench_json, emit_report, run_once

#: The acceptance bar: warm explains/sec ≥ this multiple of cold.
MIN_WARM_SPEEDUP = 3.0

N_GROUPS = 200 if SCALE == "paper" else 100
N_PER_GROUP = 1000 if SCALE == "paper" else 500
C_REQUESTS = (0.5, 0.4, 0.3, 0.2, 0.1, 0.0) * (4 if SCALE == "paper" else 2)


def _request_table() -> Table:
    """A SUM workload where the problem build dominates: many unlabeled
    groups (the group-by and provenance walk all of them) but only four
    labeled ones (partitioning and merging stay cheap)."""
    rng = np.random.default_rng(7)
    n = N_GROUPS * N_PER_GROUP
    groups = np.repeat([f"g{i:03d}" for i in range(N_GROUPS)], N_PER_GROUP)
    a1 = rng.uniform(0, 100, n)
    a2 = rng.uniform(0, 100, n)
    state = rng.choice(["CA", "NY", "TX", "WA", "MA", "OR"], n)
    value = np.ones(n)
    hot = (np.isin(groups, ["g000", "g001"]) & (state == "TX")
           & (a1 >= 40) & (a1 <= 60))
    value[hot] = 50.0
    schema = Schema([
        ColumnSpec("g", ColumnKind.DISCRETE),
        ColumnSpec("a1", ColumnKind.CONTINUOUS),
        ColumnSpec("a2", ColumnKind.CONTINUOUS),
        ColumnSpec("state", ColumnKind.DISCRETE),
        ColumnSpec("value", ColumnKind.CONTINUOUS),
    ])
    return Table.from_columns(schema, {
        "g": groups, "a1": a1, "a2": a2, "state": state, "value": value,
    })


OUTLIERS = ["g000", "g001"]
HOLDOUTS = ["g002", "g003"]


def _explanation_image(result):
    """Everything an explanation asserts bit-for-bit."""
    return [(e.predicate, e.influence, e.n_matched,
             e.updated_outliers, e.updated_holdouts)
            for e in result.explanations]


def _cold_sweep(table, query, use_cache: bool):
    """Rebuild-per-call baseline: fresh problem + fresh Scorpion per
    request (a shared Scorpion would smuggle in the DT cache)."""
    results, started = [], time.perf_counter()
    for c in C_REQUESTS:
        problem = ScorpionQuery(table, query, OUTLIERS, HOLDOUTS, +1.0, c=c)
        results.append(Scorpion(algorithm="dt",
                                use_cache=use_cache).explain(problem))
    return results, time.perf_counter() - started


def _warm_sweep(service, table, query):
    results, started = [], time.perf_counter()
    for c in C_REQUESTS:
        results.append(service.explain_request(
            table, query, OUTLIERS, HOLDOUTS, +1.0, c=c))
    return results, time.perf_counter() - started


def _experiment():
    table = _request_table()
    query = GroupByQuery("g", Sum(), "value")
    rows = {}

    # Leg 1: equality-grade (no DT cache anywhere).
    cold_results, cold_s = _cold_sweep(table, query, use_cache=False)
    with ExplainService(algorithm="dt", use_cache=False) as service:
        service.explain_request(table, query, OUTLIERS, HOLDOUTS, +1.0,
                                c=C_REQUESTS[0])  # prime: the one miss
        warm_results, warm_s = _warm_sweep(service, table, query)
        warm_stats = service.stats()
    for cold, warm in zip(cold_results, warm_results):
        assert _explanation_image(cold) == _explanation_image(warm)
        assert warm.scorer_stats["service_cache_hit"]
    rows["equality"] = (cold_s, warm_s)

    # Leg 2: full resident configuration (DT cache on in both roles).
    cold_results, cold_full_s = _cold_sweep(table, query, use_cache=True)
    with ExplainService(algorithm="dt") as service:
        service.explain_request(table, query, OUTLIERS, HOLDOUTS, +1.0,
                                c=C_REQUESTS[0])
        warm_results, warm_full_s = _warm_sweep(service, table, query)
    for cold, warm in zip(cold_results, warm_results):
        assert _explanation_image(cold) == _explanation_image(warm)
    rows["resident"] = (cold_full_s, warm_full_s)

    # Leg 3: concurrent requests through the asyncio front end.
    with ExplainService(algorithm="dt", use_cache=False) as service:
        async def fanout():
            return await asyncio.gather(*[
                service.explain_async(
                    ScorpionQuery(table, query, OUTLIERS, HOLDOUTS, +1.0,
                                  c=0.3))
                for _ in range(4)])
        started = time.perf_counter()
        concurrent = asyncio.run(fanout())
        concurrent_s = time.perf_counter() - started
        stats = service.stats()
    assert stats["service_misses"] == 1
    assert stats["service_hits"] == 3
    reference = Scorpion(algorithm="dt", use_cache=False).explain(
        ScorpionQuery(table, query, OUTLIERS, HOLDOUTS, +1.0, c=0.3))
    for result in concurrent:
        assert _explanation_image(result) == _explanation_image(reference)

    return rows, warm_stats, concurrent_s


def test_service_throughput(benchmark):
    rows, warm_stats, concurrent_s = run_once(benchmark, _experiment)
    n = len(C_REQUESTS)
    table_rows, json_rows = [], {}
    for leg, (cold_s, warm_s) in rows.items():
        cold_rps, warm_rps = n / cold_s, n / warm_s
        table_rows.append([leg, round(cold_rps, 2), round(warm_rps, 2),
                           round(warm_rps / cold_rps, 2)])
        json_rows[leg] = {
            "requests": n,
            "cold_seconds": round(cold_s, 4),
            "warm_seconds": round(warm_s, 4),
            "cold_explains_per_second": round(cold_rps, 3),
            "warm_explains_per_second": round(warm_rps, 3),
            "speedup": round(warm_rps / cold_rps, 3),
        }
    emit_report("service_throughput", format_table(
        "Resident service — explains/sec, rebuild-per-call vs warm cache "
        "(both legs asserted bit-for-bit)",
        ["leg", "cold rps", "warm rps", "speedup"], table_rows))
    emit_bench_json("service_throughput", {
        "description": "ExplainService warm vs rebuild-per-call explain "
                       "throughput (bit-for-bit asserted on both legs; "
                       "resident leg: DT cache on)",
        "legs": json_rows,
        "concurrent_seconds": round(concurrent_s, 4),
        "service_stats": warm_stats,
    })
    if os.environ.get("SCORPION_BENCH_PERF_ASSERT", "1") == "0":
        return
    cold_s, warm_s = rows["equality"]
    assert warm_s * MIN_WARM_SPEEDUP <= cold_s, (
        f"warm service throughput only {cold_s / warm_s:.2f}x the "
        f"rebuild-per-call baseline (need >= {MIN_WARM_SPEEDUP}x)")
