"""Worker-process entry points for the sharded scoring executor.

The process pool initializes each worker exactly once with
:func:`initialize`, handing it the parent scorer's
:class:`~repro.core.kernel.BatchKernel` (inherited copy-on-write under
``fork``, unpickled once under ``spawn``), and then feeds it
:func:`run_shard` calls.  A shard is one slice of a ``score_batch``
call, already routed by the parent's
:class:`~repro.index.IndexPlanner`: ``"masked"`` shards carry
predicates, ``"indexed"`` / ``"indexed_set"`` shards bare range or set
clauses, and ``"indexed_conj"`` shards the parent-planned
:class:`~repro.index.ConjunctionPlan` objects (probe side already
chosen).  The worker runs the kernel method the serial loop runs, so
the returned influences are bit-for-bit what the parent would have
computed.  A worker forked before the parent built an index view builds
its own copy on first use; stable argsort makes it byte-identical.

Each call returns ``(influences, worker_counters)`` where the counters
are the kernel-internal :class:`ScorerStats` increments
(``incremental_deltas`` / ``full_recomputes``) the parent merges back,
keeping aggregate counters identical to a serial run.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.faults import fault_point

_KERNEL = None


def initialize(kernel) -> None:
    """Pool initializer: keep the scorer's batch kernel for this process."""
    global _KERNEL
    _KERNEL = kernel


def run_shard(kind: str, items: Sequence, ignore_holdouts: bool,
              scalars: tuple[float, float, float],
              ) -> tuple[np.ndarray, dict[str, float]]:
    """Score one routed shard at the parent's current ``(c, c_holdout,
    λ)``; see the module docstring."""
    kernel = _KERNEL
    assert kernel is not None, "worker used before initialize()"
    fault_point("worker.shard")
    shard_t0 = time.perf_counter()
    kernel.stats.reset()
    values = kernel.score_shard(kind, items, ignore_holdouts, *scalars)
    counters = kernel.stats.worker_counters()
    # Wall-time stamps for the parent's tracer: perf_counter is
    # CLOCK_MONOTONIC (machine-wide on Linux), so the parent can
    # re-attach these as shard spans and derive queue wait from its
    # own submit stamp.  merge_worker_counters only folds the
    # WORKER_MERGED names, so stats totals are untouched.
    counters["shard_t0"] = shard_t0
    counters["shard_t1"] = time.perf_counter()
    return np.asarray(values, dtype=np.float64), counters
