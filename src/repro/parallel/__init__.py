"""Shared-memory parallel scoring (the ``workers`` knob).

:class:`~repro.core.influence.InfluenceScorer.score_batch` is
embarrassingly parallel across its predicate shards: every shard's
influences depend only on the problem's read-only arrays, and both
batch kernels are row-deterministic, so sharding can never change a
result.  This package exploits that:

* :mod:`repro.parallel.shm` — packs the problem's big arrays into
  :mod:`multiprocessing.shared_memory` segments once, so workers map
  the same pages instead of pickling arrays per shard;
* :mod:`repro.parallel.kernel` — serializes the scorer's batch kernel
  (and pre-built prefix-aggregate index attributes) into a picklable
  spec and rebuilds a kernel-only scorer inside each worker;
* :mod:`repro.parallel.worker` — the per-shard entry point workers run;
* :mod:`repro.parallel.executor` — the persistent pool tying it
  together, with ordered reassembly and crash/timeout fallback.

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
from repro.parallel.kernel import (
    DiscreteIndexAttributeSpec,
    IndexAttributeSpec,
    KernelSpec,
    build_kernel_spec,
    build_worker_scorer,
    export_discrete_index_attribute,
    export_index_attribute,
)
from repro.parallel.recovery import ParallelRecovery
from repro.parallel.shm import (
    SegmentSpec,
    assert_no_segment_leaks,
    attach_segment,
    create_segment,
    live_segments,
)

__all__ = [
    "DEFAULT_TASK_TIMEOUT",
    "DiscreteIndexAttributeSpec",
    "IndexAttributeSpec",
    "KernelSpec",
    "ParallelRecovery",
    "SegmentSpec",
    "ShardedScoringExecutor",
    "assert_no_segment_leaks",
    "attach_segment",
    "build_kernel_spec",
    "build_worker_scorer",
    "create_segment",
    "export_discrete_index_attribute",
    "export_index_attribute",
    "live_segments",
    "resolve_workers",
]
