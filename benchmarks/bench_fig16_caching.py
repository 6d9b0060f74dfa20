"""Figure 16: DT cost with and without cross-c caching (Section 8.3.3).

The paper sweeps c downward (0.5 → 0) over a fixed query, reusing the
c-agnostic DT partitions and warm-starting the Merger from the previous
(higher-c) merge result.  This library reuses the partitions only:
every run merges from them afresh, so each cached answer equals the
uncached one, and the cached sweep saves DT's partitioning but not the
merges the warm start would skip.  Shapes asserted:

* total sweep time with caching is below the uncached sweep;
* after the first (cold) run, every cached run skips partitioning.
"""

import time

from repro.core.scorpion import Scorpion
from repro.eval import format_table

from benchmarks.conftest import (emit_bench_json, emit_report, run_once,
                                 synth_dataset)

C_SWEEP_DOWN = (0.5, 0.4, 0.3, 0.2, 0.1, 0.0)


def _sweep(dataset, use_cache: bool):
    scorpion = Scorpion(algorithm="dt", use_cache=use_cache)
    per_c = {}
    for c in C_SWEEP_DOWN:
        problem = dataset.scorpion_query(c=c)
        started = time.perf_counter()
        result = scorpion.explain(problem)
        per_c[c] = (time.perf_counter() - started, result.best)
    return per_c, scorpion


def _experiment(n_dims, difficulty):
    dataset = synth_dataset(n_dims, difficulty)
    cached, scorpion = _sweep(dataset, use_cache=True)
    uncached, _ = _sweep(dataset, use_cache=False)
    rows = []
    for c in C_SWEEP_DOWN:
        rows.append([c, round(uncached[c][0], 2), round(cached[c][0], 2)])
    total_uncached = sum(t for t, _ in uncached.values())
    total_cached = sum(t for t, _ in cached.values())
    return rows, total_uncached, total_cached, scorpion.cache


def _emit(name: str, title: str, rows, total_uncached, total_cached, cache):
    """Human-readable report + machine-readable BENCH_scorer.json rows."""
    table_rows = rows + [["total", round(total_uncached, 2),
                          round(total_cached, 2)]]
    emit_report(name, format_table(title, ["c", "no-cache", "cache"],
                                   table_rows))
    emit_bench_json(name, {
        "description": "DT c sweep 0.5 -> 0 with and without partition "
                       "reuse; every cached run merges afresh (no "
                       "Merger warm start), so answers equal the "
                       "uncached ones and the cached sweep is slower "
                       "than the paper's",
        "per_c": [{"c": c, "uncached_seconds": u, "cached_seconds": k}
                  for c, u, k in rows],
        "total_uncached_seconds": round(total_uncached, 4),
        "total_cached_seconds": round(total_cached, 4),
        "speedup": round(total_uncached / max(total_cached, 1e-9), 3),
        "partition_hits": cache.partition_hits,
        "partition_misses": cache.partition_misses,
    })


def test_fig16_caching_3d_easy(benchmark):
    rows, total_uncached, total_cached, cache = run_once(
        benchmark, lambda: _experiment(3, "easy"))
    _emit("fig16_caching_3d_easy",
          "Figure 16 (3D Easy) — per-c cost (s), no-cache vs partition "
          "cache (no Merger warm start)",
          rows, total_uncached, total_cached, cache)
    assert total_cached < total_uncached
    assert cache.partition_misses == 1
    assert cache.partition_hits == len(C_SWEEP_DOWN) - 1


def test_fig16_caching_3d_hard(benchmark):
    rows, total_uncached, total_cached, cache = run_once(
        benchmark, lambda: _experiment(3, "hard"))
    _emit("fig16_caching_3d_hard",
          "Figure 16 (3D Hard) — per-c cost (s), no-cache vs partition "
          "cache (no Merger warm start)",
          rows, total_uncached, total_cached, cache)
    assert total_cached < total_uncached
