"""Worker-process entry points for the sharded scoring executor.

The process pool initializes each worker exactly once with
:func:`initialize`, handing it the parent scorer's
:class:`~repro.core.kernel.BatchKernel` (inherited copy-on-write under
``fork``, unpickled once under ``spawn``), and then feeds it
:func:`run_shard` calls.  A shard is one slice of the predicates a
``score_batch`` call has left to score.  The worker runs the mask
kernel the serial loop runs, so the returned influences are bit-for-bit
what the parent would have computed.

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


def run_shard(predicates: Sequence, ignore_holdouts: bool,
              scalars: tuple[float, float, float],
              ) -> tuple[np.ndarray, dict[str, float]]:
    """Score one shard of predicates at the parent's current ``(c,
    c_holdout, λ)``; see the module docstring."""
    kernel = _KERNEL
    assert kernel is not None, "worker used before initialize()"
    fault_point("worker.shard")
    shard_t0 = time.perf_counter()
    kernel.stats.reset()
    values = kernel.score_masked_chunk(predicates, ignore_holdouts, *scalars)
    counters = kernel.stats.worker_counters()
    # Wall-time stamps for the parent's tracer: perf_counter is
    # CLOCK_MONOTONIC (machine-wide on Linux), so the parent can
    # re-attach these as shard spans and derive queue wait from its
    # own submit stamp.  merge_worker_counters only folds the
    # WORKER_MERGED names, so stats totals are untouched.
    counters["shard_t0"] = shard_t0
    counters["shard_t1"] = time.perf_counter()
    return np.asarray(values, dtype=np.float64), counters
