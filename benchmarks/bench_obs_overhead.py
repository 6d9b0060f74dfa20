"""Observability overhead: traced explains must be bit-for-bit equal to
untraced ones and cost < 3% extra wall clock.

Two legs:

* **disabled path** — tracing off (the default): the instrumentation
  collapses to one ContextVar read per ``span()`` call site, measured
  directly in ns/call.
* **enabled path** — ``Scorpion(trace=True)`` vs untraced, interleaved
  A/B runs over a scoring-heavy MC problem (many ``score_batch`` spans,
  the hottest instrumentation point).  Every traced result is asserted
  bit-for-bit equal to its untraced twin — explanations, influences,
  matched rows, updated outputs, and every scorer counter (timing keys
  exempt) — so the overhead bound is measured on provably identical
  work.

The < 3% bound is asserted on the enabled-path median and skipped when
``SCORPION_BENCH_PERF_ASSERT=0`` (CI smoke runs keep the equality
checks).
"""

import os
import statistics
import time

import numpy as np

from repro.aggregates import Sum
from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion
from repro.eval import format_table
from repro.obs.trace import span
from repro.query.groupby import GroupByQuery
from repro.table.schema import ColumnKind, ColumnSpec, Schema
from repro.table.table import Table

from benchmarks.conftest import SCALE, emit_bench_json, emit_report, run_once

#: The acceptance bar: traced wall clock within this fraction of untraced.
MAX_OVERHEAD = 0.03

N_GROUPS = 8
N_PER_GROUP = 2000 if SCALE == "paper" else 600
#: Interleaved untraced/traced measurement pairs (medians reported).
REPS = 15 if SCALE == "paper" else 9


def _scoring_heavy_problem() -> ScorpionQuery:
    """A SUM workload where partitioning/scoring dominates the explain:
    few groups (cheap build) but a planted multi-clause subspace the
    partitioner has to work for."""
    rng = np.random.default_rng(11)
    n = N_GROUPS * N_PER_GROUP
    groups = np.repeat([f"g{i}" for i in range(N_GROUPS)], N_PER_GROUP)
    a1 = rng.uniform(0, 100, n)
    a2 = rng.uniform(0, 100, n)
    state = rng.choice(["CA", "NY", "TX", "WA"], n)
    value = np.ones(n)
    hot = (np.isin(groups, ["g0", "g1", "g2"]) & (state == "TX")
           & (a1 >= 40) & (a1 <= 60))
    value[hot] = 50.0
    schema = Schema([
        ColumnSpec("g", ColumnKind.DISCRETE),
        ColumnSpec("a1", ColumnKind.CONTINUOUS),
        ColumnSpec("a2", ColumnKind.CONTINUOUS),
        ColumnSpec("state", ColumnKind.DISCRETE),
        ColumnSpec("value", ColumnKind.CONTINUOUS),
    ])
    table = Table.from_columns(schema, {
        "g": groups, "a1": a1, "a2": a2, "state": state, "value": value,
    })
    return ScorpionQuery(
        table=table,
        query=GroupByQuery("g", Sum(), "value"),
        outliers=["g0", "g1", "g2"],
        holdouts=[f"g{i}" for i in range(3, N_GROUPS)],
        error_vectors=+1.0,
        c=0.3,
    )


def _explanation_image(result):
    return [(e.predicate, e.influence, e.n_matched,
             e.updated_outliers, e.updated_holdouts)
            for e in result.explanations]


def _assert_identical(traced, untraced):
    assert _explanation_image(traced) == _explanation_image(untraced)
    assert traced.n_candidates == untraced.n_candidates
    keys = set(traced.scorer_stats) | set(untraced.scorer_stats)
    diverging = {
        k for k in keys
        if traced.scorer_stats.get(k) != untraced.scorer_stats.get(k)
        and not k.endswith("_seconds") and k != "batch_throughput"
    }
    assert not diverging, \
        f"tracing perturbed scorer counters: {sorted(diverging)}"


def _noop_span_ns(calls: int = 200_000) -> float:
    """ns per ``span()`` call with no tracer active (the default path)."""
    started = time.perf_counter_ns()
    for _ in range(calls):
        with span("bench") as sp:
            if sp:
                sp.annotate(never=1)
    return (time.perf_counter_ns() - started) / calls


def test_tracing_overhead(benchmark):
    problem = _scoring_heavy_problem()

    def experiment():
        explain = lambda traced: Scorpion(
            algorithm="mc", trace=traced).explain(problem)
        # Warm process-wide state (imports, numpy paths) off the clock
        # so neither arm pays it.
        baseline = explain(False)
        _assert_identical(explain(True), baseline)

        untraced_s, traced_s = [], []
        for rep in range(REPS):
            # Alternate which arm runs first so slow drift (thermal,
            # page cache) cancels instead of biasing one arm.
            first_traced = bool(rep % 2)
            t0 = time.perf_counter()
            a = explain(first_traced)
            t1 = time.perf_counter()
            b = explain(not first_traced)
            t2 = time.perf_counter()
            traced, plain = (a, b) if first_traced else (b, a)
            traced_s.append((t1 - t0) if first_traced else (t2 - t1))
            untraced_s.append((t2 - t1) if first_traced else (t1 - t0))
            _assert_identical(traced, plain)
            assert plain.trace is None
            assert traced.trace, "traced run exported no spans"

        untraced_med = statistics.median(untraced_s)
        traced_med = statistics.median(traced_s)
        overhead = traced_med / untraced_med - 1.0
        spans_recorded = len(traced.trace)
        noop_ns = _noop_span_ns()
        return untraced_med, traced_med, overhead, spans_recorded, noop_ns

    untraced_med, traced_med, overhead, spans_recorded, noop_ns = \
        run_once(benchmark, experiment)

    rows = [
        ("untraced explain (median s)", f"{untraced_med:.4f}"),
        ("traced explain (median s)", f"{traced_med:.4f}"),
        ("overhead", f"{overhead * 100:+.2f}%"),
        ("spans per explain", str(spans_recorded)),
        ("disabled span() ns/call", f"{noop_ns:.0f}"),
    ]
    emit_report("obs_overhead", format_table(
        f"Tracing overhead (scale={SCALE}, reps={REPS})",
        ("metric", "value"), rows))
    emit_bench_json("obs_overhead", {
        "untraced_median_s": untraced_med,
        "traced_median_s": traced_med,
        "overhead_fraction": overhead,
        "spans_per_explain": spans_recorded,
        "disabled_span_ns_per_call": noop_ns,
    })

    if os.environ.get("SCORPION_BENCH_PERF_ASSERT", "1") == "0":
        return
    assert overhead < MAX_OVERHEAD, (
        f"tracing overhead {overhead * 100:.2f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}%")
