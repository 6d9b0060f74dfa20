"""The sharded scoring executor: a persistent worker pool holding one
scorer's batch kernel.

One :class:`ShardedScoringExecutor` serves one scorer/problem:
:meth:`start` spins up the pool with the scorer's
:class:`~repro.core.kernel.BatchKernel` as the initializer argument, and
every parallel ``score_batch`` call turns into one :meth:`run` of routed
shards.  Results come back in submission order, so reassembly in the
scorer is a plain ``zip`` and the output is bit-for-bit identical to the
serial chunk loop.

Failure policy: any pool-level failure — a worker crash
(``BrokenProcessPool``), a shard exceeding ``task_timeout``, a
submission error — aborts the pool (terminating live workers so a hung
shard cannot hang the caller) and surfaces as one
:class:`~repro.errors.ParallelError`.  The scorer's
:class:`~repro.parallel.recovery.ParallelRecovery` policy decides what
happens next: bounded retries with a fresh pool, then a degraded
(serial) batch behind a cooldown circuit breaker that periodically
re-probes parallel — results are therefore always produced, and a
healthy machine heals back to parallel.  ``KeyboardInterrupt`` /
``SystemExit`` are never converted to :class:`ParallelError`: the
executor still aborts the pool (no hung workers) and re-raises them.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

from repro.errors import ParallelError
from repro.faults import fault_point
from repro.obs.metrics import REGISTRY
from repro.parallel import worker as _worker

#: Per-shard wall-clock budget before the pool is declared hung
#: (override via ``SCORPION_TASK_TIMEOUT``, or the legacy
#: ``SCORPION_WORKER_TIMEOUT`` alias; ``0`` disables).
DEFAULT_TASK_TIMEOUT = 300.0


def resolve_workers(workers: int | None) -> int:
    """Resolve the ``workers`` knob to an effective process count.

    ``None`` reads ``SCORPION_WORKERS`` (absent → 1, today's serial
    path); ``0`` means one worker per CPU (``os.cpu_count()``);
    positive integers are taken as-is.  ``1`` means serial in-process
    scoring — no pool.
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


def _resolve_timeout(task_timeout: float | None) -> float | None:
    if task_timeout is None:
        raw = os.environ.get("SCORPION_TASK_TIMEOUT", "").strip()
        if not raw:
            # Legacy alias from before the knob was documented.
            raw = os.environ.get("SCORPION_WORKER_TIMEOUT", "").strip()
            if raw:
                warnings.warn(
                    "SCORPION_WORKER_TIMEOUT is deprecated and will be "
                    "removed in the release after 2026-12; set "
                    "SCORPION_TASK_TIMEOUT instead",
                    DeprecationWarning, stacklevel=3)
        task_timeout = float(raw) if raw else DEFAULT_TASK_TIMEOUT
    return task_timeout if task_timeout > 0 else None


class ShardedScoringExecutor:
    """Persistent process pool scoring predicate shards against one
    scorer's batch kernel.

    Parameters
    ----------
    workers:
        Worker process count (already resolved; must be >= 2 to be
        useful, but 1 is accepted for testing).
    task_timeout:
        Per-shard result deadline in seconds (None → the
        ``SCORPION_TASK_TIMEOUT`` environment variable, falling back
        to the legacy ``SCORPION_WORKER_TIMEOUT`` alias, else
        :data:`DEFAULT_TASK_TIMEOUT`; ``<= 0`` waits forever).
    """

    def __init__(self, workers: int, task_timeout: float | None = None):
        self.workers = int(workers)
        self.task_timeout = _resolve_timeout(task_timeout)
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._pool is not None

    def start(self, kernel) -> None:
        """Spin up the worker pool around ``kernel``.

        ``fork`` is preferred when available: workers then inherit the
        kernel copy-on-write, with no pickling and no module re-import.
        The kernel is fully picklable, so ``spawn``-only platforms work
        identically, unpickling it once per worker.
        """
        if self._pool is not None:
            raise ParallelError("executor already started")
        try:
            fault_point("pool.start")
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=_worker.initialize,
                initargs=(kernel,),
            )
        except Exception as exc:
            raise ParallelError(f"could not start worker pool: {exc}") from exc
        REGISTRY.counter(
            "scorpion_pool_starts_total",
            "Worker pools started (first start and every restart)").inc()

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[tuple]) -> list[tuple]:
        """Execute ``run_shard(*task)`` for every task; results are
        returned in submission order.  Raises :class:`ParallelError` on
        any crash, timeout, or submission failure (after aborting the
        pool, so a hung worker cannot hang the caller)."""
        if self._pool is None:
            raise ParallelError("executor not started")
        try:
            futures = [self._pool.submit(_worker.run_shard, *task)
                       for task in tasks]
        except BaseException as exc:
            self.close()
            if not isinstance(exc, Exception):
                raise  # KeyboardInterrupt/SystemExit: abort, then propagate
            raise ParallelError(f"could not submit shards: {exc}") from exc
        results = []
        try:
            for future in futures:
                results.append(future.result(timeout=self.task_timeout))
        except BaseException as exc:
            for future in futures:
                future.cancel()
            self.close()
            if not isinstance(exc, Exception):
                raise  # KeyboardInterrupt/SystemExit: abort, then propagate
            raise ParallelError(f"worker shard failed: {exc!r}") from exc
        return results

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear the pool down without waiting on (possibly hung) workers
        (idempotent; safe on a broken executor)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # ProcessPoolExecutor has no kill switch, and shutdown() drops
        # its process table, so take the workers first and terminate
        # them afterwards: a hung shard cannot outlive the pool.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive teardown
            pass
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead workers
                pass
