"""Scalar vs batched influence scoring (the batch-engine tentpole).

``InfluenceScorer.score_batch`` evaluates a predicate set as one mask
matrix and one counting-and-summing pass over its set bits instead of a
Scorer round-trip per predicate.  This bench scores the same predicate
batches both ways across batch sizes and group sizes; the two result
vectors must match exactly (the scalar/batch equivalence contract).

Expected shape: batching pays off most where per-predicate Python
overhead dominates — small-to-medium groups (the quick-scale regime all
other benches run in) show 2–4×, while very large groups are bound by
the same numpy data movement on both paths and converge to parity.
"""

import os
import time

import numpy as np

from repro.core.influence import InfluenceScorer
from repro.eval import format_table
from repro.predicates.clause import RangeClause
from repro.predicates.predicate import Predicate

from benchmarks.conftest import (
    emit_bench_json,
    emit_report,
    run_once,
    synth_dataset,
)

BATCH_SIZES = (64, 512, 2048)
GROUP_SIZES = (200, 500, 2000)
#: Group sizes where the batched path must win outright at the larger
#: batch sizes (at 2000 tuples/group both paths are data-bound).
ASSERT_GROUP_SIZES = (200, 500)


def _predicate_batch(n: int):
    """Mixed 1–2 clause predicates over the SYNTH A_rest attributes."""
    rng = np.random.default_rng(7)
    batch = []
    for i in range(n):
        clauses = []
        lo = rng.uniform(0, 80)
        clauses.append(RangeClause("a1", lo, lo + rng.uniform(5, 25)))
        if i % 3 == 0:
            lo = rng.uniform(0, 80)
            clauses.append(RangeClause("a2", lo, lo + rng.uniform(5, 25)))
        batch.append(Predicate(clauses))
    return batch


def _experiment():
    predicates = _predicate_batch(max(BATCH_SIZES))
    rows = []
    speedups = {}
    json_rows = []
    for group_size in GROUP_SIZES:
        dataset = synth_dataset(2, "easy", tuples_per_group=group_size)
        problem = dataset.scorpion_query(c=0.5)
        for batch_size in BATCH_SIZES:
            batch = predicates[:batch_size]
            scalar_scorer = InfluenceScorer(problem, cache_scores=False)
            started = time.perf_counter()
            scalar = np.asarray([scalar_scorer.score(p) for p in batch])
            scalar_time = time.perf_counter() - started

            batch_scorer = InfluenceScorer(problem, cache_scores=False)
            started = time.perf_counter()
            batched = batch_scorer.score_batch(batch)
            batch_time = time.perf_counter() - started

            np.testing.assert_array_equal(batched, scalar)
            speedup = scalar_time / batch_time if batch_time > 0 else float("inf")
            speedups[(group_size, batch_size)] = speedup
            rows.append([
                group_size,
                batch_size,
                round(scalar_time * 1e3, 2),
                round(batch_time * 1e3, 2),
                round(batch_scorer.stats.batch_throughput, 0),
                round(speedup, 2),
            ])
            json_rows.append({
                "tuples_per_group": group_size,
                "batch_size": batch_size,
                "scalar_preds_per_s": round(batch_size / scalar_time, 1)
                if scalar_time > 0 else None,
                "batch_preds_per_s": round(batch_size / batch_time, 1)
                if batch_time > 0 else None,
                "speedup": round(speedup, 3),
            })
    return rows, speedups, json_rows


def test_batched_scoring_beats_scalar(benchmark):
    rows, speedups, json_rows = run_once(benchmark, _experiment)
    emit_report("scorer_batch", format_table(
        "Batched vs scalar influence scoring (incremental path), 10 groups",
        ["tuples/group", "batch size", "scalar ms", "batched ms",
         "batched preds/s", "speedup"], rows))
    emit_bench_json("scorer_batch", {
        "description": "mixed 1-2 clause predicates, scalar vs batched "
                       "mask-matrix scoring (predicates/second)",
        "rows": json_rows,
    })
    # Identical scores come for free (asserted inside the experiment);
    # where per-predicate overhead dominates, the batched pass must win.
    # Single-shot wall-clock comparisons are meaningless on loaded shared
    # runners — CI smoke runs export SCORPION_BENCH_PERF_ASSERT=0 to keep
    # the equality check while skipping the timing assertion.
    if os.environ.get("SCORPION_BENCH_PERF_ASSERT", "1") == "0":
        return
    for group_size in ASSERT_GROUP_SIZES:
        for batch_size in BATCH_SIZES[1:]:
            assert speedups[(group_size, batch_size)] > 1.0, (
                f"batched scoring slower than scalar at "
                f"{group_size} tuples/group, batch size {batch_size}")
