"""Sharded parallel scoring vs worker count (the parallel tentpole).

Scores one large predicate batch through ``InfluenceScorer.score_batch``
at increasing ``workers`` settings, on two shard shapes:

* *mask kernel* — 2-clause range conjunctions, so every shard is an
  ``evaluate_batch`` + scatter-add pass in a worker;
* *few predicates* — a batch far smaller than ``workers ×
  batch_chunk`` over a many-group problem, so ``batch_chunk``-sized
  shards alone cannot keep the pool busy and the automatic split
  (:func:`~repro.parallel.executor.choose_shard_size`) cuts the batch
  into ``2 × workers`` smaller predicate shards instead.

What varies with ``workers`` is only the sharding.  Influences and
stats counters must be identical at every worker count (the parallel
equivalence contract; always asserted, including in CI smoke runs),
and the few-predicates shape must actually be split
into at least two shards at ``workers >= 2``.  Predicates/second is
measured after a warm-up batch so pool spin-up is reported separately
(``spinup_ms``) rather than folded into throughput.

The wall-clock expectation — the ISSUE 4 acceptance bar — is ≥ 2.5×
predicates/sec at 4 workers over serial on the mask-kernel shape at
2000 tuples/group.  That assertion only makes sense on a machine with
at least 4 CPUs, so it is additionally gated on ``os.cpu_count()``
(and, like every timing assertion, on ``SCORPION_BENCH_PERF_ASSERT``).
``SCORPION_BENCH_MAX_WORKERS`` caps the sweep — CI pins it to 2 so
shared runners are never oversubscribed.
"""

import os
import time

import numpy as np

from repro.aggregates import Sum
from repro.core.influence import InfluenceScorer
from repro.core.problem import ScorpionQuery
from repro.eval import format_table
from repro.predicates.clause import RangeClause
from repro.predicates.predicate import Predicate
from repro.query.groupby import GroupByQuery
from repro.table.schema import ColumnKind, ColumnSpec, Schema
from repro.table.table import Table

from benchmarks.conftest import (
    SCALE,
    emit_bench_json,
    emit_report,
    run_once,
    synth_dataset,
)

TUPLES_PER_GROUP = 2000
BATCH_SIZE = 4096 if SCALE == "paper" else 1536
#: Shard size — small enough that every sweep point has ≥ 2 shards per
#: worker in flight (sharding never affects results).
BATCH_CHUNK = 128
WORKER_SWEEP = (1, 2, 4, 8) if SCALE == "paper" else (1, 2, 4)
#: The few-predicates shape: far fewer predicates than
#: ``workers × BATCH_CHUNK`` (one ``BATCH_CHUNK`` shard), over many
#: groups.
FEW_PREDS_BATCH = 48
FEW_PREDS_GROUPS = 64
FEW_PREDS_GROUP_SIZE = 300
#: Counters that must match across worker counts (timing and the
#: parallel-only shard counters excluded by design).
COMPARED_COUNTERS = (
    "predicate_scores", "mask_scores", "incremental_deltas",
    "full_recomputes", "batch_calls", "batch_predicates",
    "masked_predicates",
)


def _worker_sweep() -> tuple[int, ...]:
    cap = int(os.environ.get("SCORPION_BENCH_MAX_WORKERS", "0") or 0)
    if cap > 0:
        return tuple(w for w in WORKER_SWEEP if w <= cap) or (1,)
    return WORKER_SWEEP


def _masked_batch(n: int) -> list[Predicate]:
    """2-clause conjunctions over a1/a2."""
    rng = np.random.default_rng(23)
    batch = []
    for i in range(n):
        lo1 = rng.uniform(0.0, 80.0)
        lo2 = rng.uniform(0.0, 80.0)
        batch.append(Predicate([
            RangeClause("a1", lo1, lo1 + rng.uniform(5.0, 40.0)),
            RangeClause("a2", lo2, lo2 + rng.uniform(5.0, 40.0),
                        include_hi=bool(i % 2)),
        ]))
    return batch


def _many_group_problem() -> ScorpionQuery:
    """A SUM workload over ``FEW_PREDS_GROUPS`` labeled groups — enough
    rows that a shard of a few predicates outweighs its dispatch."""
    rng = np.random.default_rng(31)
    groups = [f"g{i:02d}" for i in range(FEW_PREDS_GROUPS)]
    n = FEW_PREDS_GROUP_SIZE * len(groups)
    g = np.repeat(groups, FEW_PREDS_GROUP_SIZE)
    a1 = rng.uniform(0.0, 100.0, n)
    a2 = rng.uniform(0.0, 100.0, n)
    av = np.abs(rng.normal(10.0, 5.0, n)) + 0.25
    outliers = groups[: len(groups) // 2]
    hot = (np.isin(g, outliers) & (a1 >= 40) & (a1 <= 60)
           & (a2 >= 20) & (a2 <= 50))
    av[hot] += 25.0
    schema = Schema([
        ColumnSpec("g", ColumnKind.DISCRETE),
        ColumnSpec("a1", ColumnKind.CONTINUOUS),
        ColumnSpec("a2", ColumnKind.CONTINUOUS),
        ColumnSpec("av", ColumnKind.CONTINUOUS),
    ])
    table = Table.from_columns(schema, {"g": g, "a1": a1, "a2": a2, "av": av})
    return ScorpionQuery(table, GroupByQuery("g", Sum(), "av"),
                         outliers=outliers,
                         holdouts=groups[len(groups) // 2:],
                         error_vectors=+1.0, c=0.5)


def _run_config(problem, batch, workers: int, expect_split: bool):
    """One (shape, workers) measurement: spin-up, timed batch, counters."""
    scorer = InfluenceScorer(problem, cache_scores=False, workers=workers,
                             batch_chunk=BATCH_CHUNK)
    try:
        started = time.perf_counter()
        scorer.score_batch(batch[:2 * BATCH_CHUNK])  # spins the pool
        spinup = time.perf_counter() - started
        scorer.stats.reset()
        started = time.perf_counter()
        values = scorer.score_batch(batch)
        elapsed = time.perf_counter() - started
        counters = {name: getattr(scorer.stats, name)
                    for name in COMPARED_COUNTERS}
        if workers > 1:
            assert scorer.stats.parallel_shards > 0, \
                "parallel run never reached the worker pool"
            if expect_split:
                assert scorer.stats.parallel_shards >= 2, \
                    "few-predicates batch was never split across the pool"
        return values, elapsed, spinup, counters
    finally:
        scorer.close()


def _experiment():
    dataset = synth_dataset(2, "easy", tuples_per_group=TUPLES_PER_GROUP)
    problem = dataset.scorpion_query(c=0.5)
    sweep = _worker_sweep()
    rows, json_rows = [], []
    speedups: dict[tuple[str, int], float] = {}
    shapes = (
        ("mask-kernel", problem, _masked_batch(BATCH_SIZE),
         TUPLES_PER_GROUP, False),
        ("few-predicates", _many_group_problem(),
         _masked_batch(FEW_PREDS_BATCH), FEW_PREDS_GROUP_SIZE, True),
    )
    for shape, shape_problem, batch, group_size, expect_split in shapes:
        baseline_values = None
        baseline_counters = None
        baseline_time = None
        for workers in sweep:
            values, elapsed, spinup, counters = _run_config(
                shape_problem, batch, workers, expect_split and workers > 1)
            if baseline_values is None:
                baseline_values = values
                baseline_counters = counters
                baseline_time = elapsed
            else:
                # The equivalence contract — asserted even in smoke runs.
                np.testing.assert_array_equal(values, baseline_values)
                assert counters == baseline_counters, (
                    f"{shape}: workers={workers} counters diverged: "
                    f"{counters} vs {baseline_counters}")
            speedup = baseline_time / elapsed if elapsed > 0 else float("inf")
            speedups[(shape, workers)] = speedup
            rows.append([
                shape, workers, len(batch),
                round(elapsed * 1e3, 1),
                round(len(batch) / elapsed, 1) if elapsed > 0 else None,
                round(speedup, 2),
                round(spinup * 1e3, 1),
            ])
            json_rows.append({
                "shape": shape,
                "tuples_per_group": group_size,
                "batch_size": len(batch),
                "batch_chunk": BATCH_CHUNK,
                "workers": workers,
                "preds_per_s": round(len(batch) / elapsed, 1)
                if elapsed > 0 else None,
                "speedup_vs_serial": round(speedup, 3),
                "spinup_ms": round(spinup * 1e3, 1),
                "cpu_count": os.cpu_count(),
            })
    return rows, json_rows, speedups


def test_parallel_scaling(benchmark):
    rows, json_rows, speedups = run_once(benchmark, _experiment)
    emit_report("parallel_scaling", format_table(
        "Sharded parallel scoring vs worker count "
        f"(batch {BATCH_SIZE}, chunk {BATCH_CHUNK}, "
        f"{TUPLES_PER_GROUP} tuples/group; few-predicates shape: "
        f"{FEW_PREDS_BATCH} predicates over {FEW_PREDS_GROUPS} groups "
        f"of {FEW_PREDS_GROUP_SIZE}, {os.cpu_count()} CPUs)",
        ["shape", "workers", "batch", "batch ms", "preds/s",
         "speedup", "spinup ms"], rows))
    emit_bench_json("parallel_scaling", {
        "description": "score_batch sharded over worker processes: "
                       "predicates/second vs workers on mask-kernel and "
                       "few-predicates (automatic predicate split over "
                       "many groups) shapes (serial equality and counter "
                       "parity asserted)",
        "rows": json_rows,
    })
    if os.environ.get("SCORPION_BENCH_PERF_ASSERT", "1") == "0":
        return
    cpus = os.cpu_count() or 1
    target = ("mask-kernel", 4)
    if cpus >= 4 and target in speedups:
        assert speedups[target] >= 2.5, (
            f"mask-kernel speedup at 4 workers is {speedups[target]:.2f}x "
            f"(< 2.5x) on a {cpus}-CPU machine")
    else:
        print(f"[parallel-scaling perf assertion skipped: "
              f"{cpus} CPU(s), sweep {_worker_sweep()}]")
