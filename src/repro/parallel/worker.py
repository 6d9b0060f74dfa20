"""Worker-process entry points for the sharded scoring executor.

The process pool initializes each worker exactly once with
:func:`initialize` (rebuilding the kernel-only scorer around the
shared-memory views) and then feeds it :func:`run_shard` calls.  A
shard is one predicate slice of a ``score_batch`` call, already routed
by the parent's :class:`~repro.index.IndexPlanner`:

* ``"masked"`` shards carry the predicates themselves; the worker
  builds the mask matrix with its own labeled evaluator and runs the
  scatter-add kernel — exactly the serial code path, so the returned
  influences are bit-for-bit what the parent would have computed;
* ``"indexed"`` / ``"indexed_set"`` shards carry only the single range
  or set clauses (the predicates stay in the parent) plus the specs of
  any pre-built index attribute views the worker has not installed yet;
* ``"indexed_conj"`` shards carry the parent-planned
  :class:`~repro.index.ConjunctionPlan` objects (probe side already
  chosen) plus the probe attributes' view specs.

Each call returns ``(influences, worker_counters)`` where the counters
are the kernel-internal :class:`ScorerStats` increments
(``incremental_deltas`` / ``full_recomputes``) the parent merges back,
keeping aggregate counters identical to a serial run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.faults import fault_point
from repro.parallel.kernel import (
    KernelSpec,
    build_worker_scorer,
    install_index_attribute,
)


@dataclass
class _WorkerState:
    scorer: object
    #: The owning process's resource-tracker PID (attach bookkeeping).
    owner_tracker_pid: int | None
    #: Attached SharedMemory blocks — referenced for the process's
    #: lifetime so the zero-copy views stay mapped.
    segments: list = field(default_factory=list)
    installed_attrs: set = field(default_factory=set)


_STATE: _WorkerState | None = None


def initialize(spec: KernelSpec) -> None:
    """Pool initializer: rebuild the batch kernel in this process."""
    global _STATE
    scorer, segments = build_worker_scorer(spec)
    _STATE = _WorkerState(scorer=scorer, owner_tracker_pid=spec.tracker_pid,
                          segments=segments)


def run_shard(kind: str, items: Sequence, ignore_holdouts: bool,
              attr_specs: tuple,
              scalars: tuple[float, float, float] | None = None,
              ) -> tuple[np.ndarray, dict[str, float]]:
    """Score one routed shard; see the module docstring.

    ``scalars`` is the parent scorer's current ``(c, c_holdout, λ)``.
    The pool initializer bakes the spec's scalars into the worker
    scorer, but a resident scorer can be *rebound* to new scalars
    between batches while keeping the same warm pool — so every shard
    carries the live values and the worker re-points (and drops its
    memo, which bakes the old scalars in) when they changed.
    """
    state = _STATE
    assert state is not None, "worker used before initialize()"
    fault_point("worker.shard")
    shard_t0 = time.perf_counter()
    scorer = state.scorer

    def _counters() -> dict:
        counters = scorer.stats.worker_counters()
        # Wall-time stamps for the parent's tracer: perf_counter is
        # CLOCK_MONOTONIC (machine-wide on Linux), so the parent can
        # re-attach these as shard spans and derive queue wait from its
        # own submit stamp.  merge_worker_counters only folds the
        # WORKER_MERGED names, so stats totals are untouched.
        counters["shard_t0"] = shard_t0
        counters["shard_t1"] = time.perf_counter()
        return counters
    if scalars is not None and scalars != (scorer.c, scorer.c_holdout,
                                           scorer.lam):
        scorer.c, scorer.c_holdout, scorer.lam = scalars
        scorer.clear_memo()
    for attr_spec in attr_specs:
        key = (attr_spec.kind, attr_spec.attribute)
        if key not in state.installed_attrs:
            state.segments.append(install_index_attribute(
                scorer, attr_spec, state.owner_tracker_pid))
            state.installed_attrs.add(key)
    scorer.stats.reset()
    if kind == "masked":
        values = scorer._score_masked_chunk(items, ignore_holdouts)
    elif kind == "indexed":
        values = scorer._score_clause_shard(items, ignore_holdouts)
    elif kind == "indexed_set":
        values = scorer._score_set_clause_shard(items, ignore_holdouts)
    elif kind == "indexed_conj":
        values = scorer._score_conjunction_shard(items, ignore_holdouts)
    else:  # pragma: no cover - guarded by the executor's task builder
        raise ValueError(f"unknown shard kind {kind!r}")
    return np.asarray(values, dtype=np.float64), _counters()
