"""Parallel scoring over a process pool (the ``workers`` knob).

:class:`~repro.core.influence.InfluenceScorer.score_batch` is
embarrassingly parallel across its predicate shards: every shard's
influences depend only on the problem's read-only arrays, and every
tier kernel is row-deterministic, so sharding can never change a
result.  This package exploits that:

* :mod:`repro.parallel.executor` — the persistent pool, started with
  the scorer's :class:`~repro.core.kernel.BatchKernel` as its
  initializer argument (forked workers inherit it copy-on-write;
  spawn-only platforms unpickle it once per worker), with ordered
  reassembly and crash/timeout failure reporting;
* :mod:`repro.parallel.worker` — the per-shard entry point workers run,
  calling the same kernel methods as the serial loop;
* :mod:`repro.parallel.recovery` — the retry / restart-budget /
  circuit-breaker policy for a failing pool.

The scorer's ``workers`` knob (constructor argument, the
``SCORPION_WORKERS`` environment variable, ``Scorpion(workers=...)``,
or ``--workers`` on the CLI) selects the process count: ``1`` (the
default) keeps today's serial path, ``0`` means one worker per CPU.
Results are bit-for-bit identical at any worker count, and per-worker
scoring counters are merged back into the aggregate ``scorer_stats``.
"""

from repro.parallel.executor import (
    DEFAULT_TASK_TIMEOUT,
    ShardedScoringExecutor,
    resolve_workers,
)
from repro.parallel.recovery import ParallelRecovery

__all__ = [
    "DEFAULT_TASK_TIMEOUT",
    "ParallelRecovery",
    "ShardedScoringExecutor",
    "resolve_workers",
]
