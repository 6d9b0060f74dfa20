"""Parallel scoring settings (the ``workers`` knob) and the shard-size rule.

:meth:`~repro.core.influence.InfluenceScorer.score_batch` is
embarrassingly parallel across its predicate shards: every shard's
influences depend only on the problem's read-only arrays, and the mask
kernel is row-deterministic, so sharding can never change a result.
With ``workers > 1`` the scorer maps its shards over a thread pool it
owns, each thread calling the same
:meth:`~repro.core.kernel.BatchKernel.score_masked_chunk` the serial
loop calls.  The threads overlap where the kernel's NumPy calls
release the GIL, which is only in part (README, "Parallel sharded
execution", gives measured speed-ups).

This module resolves the ``workers`` knob (constructor argument, the
``SCORPION_WORKERS`` environment variable, ``Scorpion(workers=...)``,
or ``--workers`` on the CLI) to a thread count, ``1`` (the default)
being serial and ``0`` one thread per CPU, and decides how finely a
batch is cut (:func:`choose_shard_size`).  Results are bit-for-bit
identical at any worker count, and per-shard kernel counters are merged
back into the aggregate ``scorer_stats``.
"""

from __future__ import annotations

import os

from repro.errors import ParallelError

__all__ = ["DISPATCH_NS", "choose_shard_size", "resolve_workers"]

#: Estimated per-shard dispatch overhead in nanoseconds; shards smaller
#: than a couple of these are not worth cutting.  It is the wall time
#: one more shard adds to a batch on the thread pool: the kernel's fixed
#: cost per chunk plus the hand-off, 85-115 µs per shard on a 2-vCPU
#: x86-64 machine (2-16 shards of tiny batches).
DISPATCH_NS = 100_000.0


def resolve_workers(workers: int | None) -> int:
    """Resolve the ``workers`` knob to an effective thread count.

    ``None`` reads ``SCORPION_WORKERS`` (absent → 1, the serial path);
    ``0`` means one thread per CPU (``os.cpu_count()``); positive
    integers are taken as-is.  ``1`` means serial in-thread scoring —
    no pool.
    """
    if workers is None:
        raw = os.environ.get("SCORPION_WORKERS", "").strip()
        workers = int(raw) if raw else 1
    workers = int(workers)
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ParallelError(f"workers must be >= 0, got {workers}")
    return workers


def choose_shard_size(n_predicates: int, n_rows: int, workers: int,
                      batch_chunk: int) -> int:
    """Predicates per shard for a parallel batch of ``n_predicates``
    over ``n_rows`` labeled rows.

    ``batch_chunk`` unless the batch is too small to fill ``2 ×
    workers`` chunks of it; then the batch is cut into ``2 × workers``
    shards so every worker gets a share — provided one such shard's
    estimated mask-kernel work clears a couple of dispatch costs
    (:data:`DISPATCH_NS`).  One predicate is priced at 1.5 ns per
    labeled row (build, count and scan its mask row), 11 ns per matched
    row (gather and ``bincount`` one state component, a quarter of the
    rows assumed matched) and 4 µs fixed: a least-squares fit, by
    relative error, of SUM batches of 128 two-clause predicates over
    1,000-100,000 labeled rows on a 2-vCPU x86-64 machine.
    Deterministic pure arithmetic, and chunking never changes a result.
    """
    shards = 2 * workers
    if (n_predicates <= 0 or workers <= 1
            or -(-n_predicates // batch_chunk) >= shards):
        return batch_chunk
    size = -(-n_predicates // shards)
    per_predicate_ns = 1.5 * n_rows + 11.0 * (n_rows / 4) + 4000.0
    if size * per_predicate_ns < 2.0 * DISPATCH_NS:
        return batch_chunk
    return size
