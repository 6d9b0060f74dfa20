"""Figure 16: DT cost with and without cross-c caching (Section 8.3.3).

The paper sweeps c downward (0.5 → 0) over a fixed query, reusing the
c-agnostic DT partitions and warm-starting the Merger from the previous
(higher-c) merge result.  This library reuses the partitions only:
every run merges from them afresh, so each cached answer equals the
uncached one, and the cached sweep saves DT's partitioning but not the
merges the warm start would skip.

Each sweep is timed :data:`ROUNDS` times, on a fresh ``Scorpion`` per
leg and round, with the leg that goes first alternating between rounds.
The report and ``BENCH_scorer.json`` record the median of each leg's
per-c and total seconds, with the totals' quartiles.  Asserted:

* every round, each cached best predicate and influence equals the
  uncached one bit for bit;
* every round, the cached sweep partitions once and reuses the
  partitions for the other five values of c;
* the median cached sweep is faster than the median uncached sweep
  (skipped when ``SCORPION_BENCH_PERF_ASSERT=0``, as in the CI smoke
  run).
"""

import os
import time

import numpy as np

from repro.core.scorpion import Scorpion
from repro.eval import format_table

from benchmarks.conftest import (emit_bench_json, emit_report, run_once,
                                 synth_dataset)

C_SWEEP_DOWN = (0.5, 0.4, 0.3, 0.2, 0.1, 0.0)

#: Timed rounds per sweep and leg.
ROUNDS = 5


def _answer(result):
    """The best predicate and the bits of its influence."""
    best = result.best
    return None if best is None else (best.predicate,
                                      float(best.influence).hex())


def _sweep(dataset, use_cache: bool):
    """One c sweep on a fresh Scorpion: per-c seconds, per-c answers and
    the Scorpion's DT cache."""
    scorpion = Scorpion(algorithm="dt", use_cache=use_cache)
    seconds, answers = [], []
    for c in C_SWEEP_DOWN:
        problem = dataset.scorpion_query(c=c)
        started = time.perf_counter()
        result = scorpion.explain(problem)
        seconds.append(time.perf_counter() - started)
        answers.append(_answer(result))
    return seconds, answers, scorpion.cache


def _experiment(n_dims, difficulty):
    """Per-round per-c seconds of each leg (``True`` = cached)."""
    dataset = synth_dataset(n_dims, difficulty)
    seconds = {True: [], False: []}
    for round_ in range(ROUNDS):
        answers = {}
        for use_cache in ((True, False) if round_ % 2 == 0
                          else (False, True)):
            per_c, answers[use_cache], cache = _sweep(dataset, use_cache)
            seconds[use_cache].append(per_c)
            if use_cache:
                assert cache.partition_misses == 1
                assert cache.partition_hits == len(C_SWEEP_DOWN) - 1
        assert answers[True] == answers[False]
    return np.asarray(seconds[False]), np.asarray(seconds[True])


def _emit(name: str, title: str, uncached, cached):
    """Human-readable report + machine-readable BENCH_scorer.json rows
    from each leg's (rounds, c) seconds; returns the median totals."""
    totals = {}
    for leg, per_round in (("uncached", uncached), ("cached", cached)):
        q1, median, q3 = np.percentile(per_round.sum(axis=1), [25, 50, 75])
        totals[leg] = (float(median), float(q1), float(q3))
    per_c = [[c, round(float(u), 3), round(float(k), 3)]
             for c, u, k in zip(C_SWEEP_DOWN, np.median(uncached, axis=0),
                                np.median(cached, axis=0))]
    rows = per_c + [
        ["total", round(totals["uncached"][0], 3),
         round(totals["cached"][0], 3)],
        ["q1-q3"] + [f"{totals[leg][1]:.3f}-{totals[leg][2]:.3f}"
                     for leg in ("uncached", "cached")],
    ]
    emit_report(name, format_table(title, ["c", "no-cache", "cache"], rows))
    emit_bench_json(name, {
        "description": "DT c sweep 0.5 -> 0 with and without partition "
                       "reuse, median seconds over rounds on a fresh "
                       "Scorpion per leg and round (alternating which "
                       "leg runs first); every cached run merges afresh "
                       "(no Merger warm start), so answers equal the "
                       "uncached ones bit for bit and the cached sweep "
                       "is slower than the paper's",
        "rounds": ROUNDS,
        "per_c": [{"c": c, "uncached_seconds": u, "cached_seconds": k}
                  for c, u, k in per_c],
        "total_uncached_seconds": round(totals["uncached"][0], 4),
        "total_uncached_q1_q3": [round(v, 4) for v in totals["uncached"][1:]],
        "total_cached_seconds": round(totals["cached"][0], 4),
        "total_cached_q1_q3": [round(v, 4) for v in totals["cached"][1:]],
        "speedup": round(totals["uncached"][0]
                         / max(totals["cached"][0], 1e-9), 3),
        "partition_hits_per_round": len(C_SWEEP_DOWN) - 1,
        "partition_misses_per_round": 1,
    })
    return totals["uncached"][0], totals["cached"][0]


def _assert_cached_faster(total_uncached, total_cached):
    if os.environ.get("SCORPION_BENCH_PERF_ASSERT", "1") == "0":
        return
    assert total_cached < total_uncached


def test_fig16_caching_3d_easy(benchmark):
    uncached, cached = run_once(benchmark, lambda: _experiment(3, "easy"))
    _assert_cached_faster(*_emit(
        "fig16_caching_3d_easy",
        "Figure 16 (3D Easy) — per-c cost (s), no-cache vs partition "
        f"cache (no Merger warm start), median of {ROUNDS} rounds",
        uncached, cached))


def test_fig16_caching_3d_hard(benchmark):
    uncached, cached = run_once(benchmark, lambda: _experiment(3, "hard"))
    _assert_cached_faster(*_emit(
        "fig16_caching_3d_hard",
        "Figure 16 (3D Hard) — per-c cost (s), no-cache vs partition "
        f"cache (no Merger warm start), median of {ROUNDS} rounds",
        uncached, cached))
