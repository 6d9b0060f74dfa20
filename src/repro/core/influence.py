"""Predicate influence — the Scorer of Figure 2 (paper Sections 3.2, 5.1, 7).

Definitions implemented here, with ``v`` the error vector, ``λ`` the
hold-out weight and ``c`` the Section 7 knob::

    Δ(o, p)          = agg(g_o) − agg(g_o − p(g_o))
    inf(o, p, v, c)  = (Δ(o, p) / |p(g_o)|^c) · v
    inf(O, H, p, V)  = λ · (1/|O|) Σ_o inf(o, p, v_o, c)
                       − (1−λ) · max_h |inf(h, p, 1, c_holdout)|

Two evaluation paths:

* **black box** — recompute the aggregate on ``g_o − p(g_o)``; works for
  any :class:`~repro.aggregates.base.AggregateFunction`;
* **incrementally removable** (Section 5.1) — cache per-group total
  states and per-tuple state rows once; a predicate's Δ is then
  ``recover(total) − recover(total − Σ_{t ∈ p(g)} state(t))``, touching
  only the matched rows.

Both paths share the same edge-case policy: a predicate matching no rows
of a group has zero influence there, and a predicate deleting an *entire*
group whose aggregate has no empty value yields ``-inf``.  The paper
leaves that case undefined; ``-inf`` keeps such predicates out of every
ranking, because deleting the group makes its output row vanish rather
than look normal.

Batched scoring
---------------

:meth:`InfluenceScorer.score_batch` evaluates a whole predicate *set* in
one vectorized pass: the labeled-row evaluator builds an
``(n_predicates, n_rows)`` boolean mask matrix ``M`` (see
:meth:`repro.predicates.evaluator.ArrayMaskEvaluator.evaluate_batch`),
and on the incrementally-removable path every predicate's per-group
removed state — conceptually the matrix product ``M_g @ tuple_states_g``
— is realized as a scatter-add over the matrix's non-zeros, followed by
one ``recover_batch`` over every matched (predicate, group) pair
(:meth:`~repro.core.kernel.BatchKernel.fold`).  Black-box aggregates
fall back to a per-predicate recompute loop inside the same
bookkeeping.

**Equivalence contract**: ``score_batch(preds)[i] == score(preds[i])``
for every predicate, bit for bit.  The scalar path reduces a matched
row's states with a masked sum and the batch path with a row-major
``bincount`` scatter-add — both accumulate the per-tuple states in
ascending row order, so the removed states (and all downstream
elementwise arithmetic, which the two paths share op-for-op) are
identical floats.  BLAS ``matmul`` is deliberately avoided here: its
blocked reductions are not row-deterministic across batch shapes.  (One
caveat: a single-component state vector is reduced pairwise by the
scalar path's contiguous sum; of the built-ins only COUNT has
``state_size == 1`` and its integer states make any summation order
exact.)  The memo cache is shared, so mixing ``score`` and
``score_batch`` calls never recomputes and never disagrees.

Parallel sharded execution
--------------------------

With ``workers > 1`` (constructor / ``SCORPION_WORKERS`` /
``Scorpion(workers=...)`` / CLI ``--workers``; ``0`` = one worker per
CPU), ``score_batch`` hands its predicate shards to a persistent process
pool instead of looping them in-process (see :mod:`repro.parallel`).
Shards are ``batch_chunk``-sized, except that a batch too small to fill
``2 × workers`` of them is cut finer so every worker gets a share, when
the per-shard work clears the pool's dispatch cost
(:func:`~repro.parallel.executor.choose_shard_size`).  The pool is
handed this scorer's :class:`~repro.core.kernel.BatchKernel` once:
forked workers inherit it copy-on-write and run *the same kernel
method on byte-identical arrays* as the serial loop, and shards are
reassembled in submission order — so influences are bit-for-bit
identical to serial execution at any worker count.  Per-worker kernel
counters are merged back into :class:`ScorerStats`
(:meth:`ScorerStats.merge_worker_counters`), keeping aggregate counters
equal to a serial run's; the parallel-only ``parallel_batches`` /
``parallel_shards`` counters record how much work the pool took.  A
failed parallel batch (worker crash, shard timeout) is retried on a
restarted pool; past the restart budget, batches run serially until a
cool-down probe succeeds (README "Failure semantics" has the policy).  Results are always produced.  Batches that fit in a
single shard skip the pool entirely, and cache-hit / fallback
predicates are always handled in the parent.
"""

from __future__ import annotations

import dataclasses
import os
import time
import warnings
import weakref
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.aggregates.base import AggregateFunction
from repro.core.kernel import INVALID_INFLUENCE, BatchKernel, GroupContext
from repro.core.problem import ScorpionQuery
from repro.errors import AggregateError, PredicateError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import current_tracer
from repro.parallel import choose_shard_size, resolve_workers
from repro.parallel.recovery import ParallelRecovery
from repro.predicates.evaluator import ArrayMaskEvaluator
from repro.predicates.predicate import Predicate


@dataclass
class ScorerStats:
    """Operation counters, used by the benchmarks to show what the
    incrementally-removable property (and batching) saves."""

    predicate_scores: int = 0
    mask_scores: int = 0
    incremental_deltas: int = 0
    full_recomputes: int = 0
    cache_hits: int = 0
    #: Number of :meth:`InfluenceScorer.score_batch` invocations.
    batch_calls: int = 0
    #: Predicates submitted through the batch API (cache hits included).
    batch_predicates: int = 0
    #: Largest single batch submitted.
    largest_batch: int = 0
    #: Wall-clock seconds spent inside ``score_batch``.
    batch_seconds: float = 0.0
    #: Unique batch predicates scored by the mask-matrix kernel (cache
    #: hits and scalar fallbacks excluded).
    masked_predicates: int = 0
    #: ``score_batch`` calls whose shards ran on the worker pool.
    parallel_batches: int = 0
    #: Predicate shards executed by worker processes.
    parallel_shards: int = 0

    #: Counters incremented *inside* the batch kernel and therefore on
    #: worker processes when scoring runs parallel; :meth:`worker_counters`
    #: exports them from a worker's stats window and
    #: :meth:`merge_worker_counters` folds them back into the parent's, so
    #: aggregate totals equal a serial run's.  Everything else is counted
    #: in the parent regardless of execution mode.
    WORKER_MERGED = ("incremental_deltas", "full_recomputes")

    @property
    def batch_throughput(self) -> float:
        """Predicates per second through the batch API (0 before use)."""
        if self.batch_seconds <= 0.0:
            return 0.0
        return self.batch_predicates / self.batch_seconds

    def as_dict(self) -> dict:
        """Counters plus derived throughput, for result reporting."""
        data = vars(self).copy()
        data["batch_throughput"] = self.batch_throughput
        return data

    def worker_counters(self) -> dict[str, float]:
        """The kernel-internal counters of this (worker-side) window."""
        return {name: getattr(self, name) for name in self.WORKER_MERGED}

    def merge_worker_counters(self, counters: dict[str, float]) -> None:
        """Fold one worker shard's kernel counters into this aggregate."""
        for name in self.WORKER_MERGED:
            setattr(self, name, getattr(self, name) + counters.get(name, 0))

    def reset(self) -> None:
        """Zero every counter (field defaults are the zeros): a fresh
        counting window."""
        for spec in dataclasses.fields(self):
            setattr(self, spec.name, spec.default)


class InfluenceScorer:
    """Evaluates the paper's influence metric for candidate predicates.

    Parameters
    ----------
    query:
        The fully validated :class:`~repro.core.problem.ScorpionQuery`.
    use_incremental:
        Exploit the incrementally-removable property when the aggregate
        advertises it (on by default; benchmarks toggle it off to measure
        the property's benefit).
    cache_scores:
        Memoize predicate → influence (predicates are hashable and the
        Merger re-scores candidates freely).
    batch_chunk:
        Predicate cap per vectorized ``score_batch`` pass.  Defaults to
        the ``SCORPION_BATCH_CHUNK`` environment variable, else the
        class default :attr:`BATCH_CHUNK`; chunking never affects
        results (the kernel is row-deterministic), so benchmarks can
        sweep it freely.  With ``workers > 1`` it is also the largest
        shard the executor fans out; a smaller batch is cut so every
        worker gets a shard (see
        :func:`~repro.parallel.executor.choose_shard_size`).
    workers:
        Worker processes for sharded ``score_batch`` execution (see
        :mod:`repro.parallel`).  Defaults to the ``SCORPION_WORKERS``
        environment variable, else 1 (serial, no pool); ``0`` means one
        worker per CPU.  Results are bit-for-bit identical at any
        setting.
    task_timeout:
        Per-shard worker deadline in seconds, forwarded to the
        executor (``None`` → the ``SCORPION_TASK_TIMEOUT`` /
        legacy ``SCORPION_WORKER_TIMEOUT`` environment variables, else
        the executor default; ``<= 0`` waits forever).
    """

    def __init__(self, query: ScorpionQuery, use_incremental: bool = True,
                 cache_scores: bool = True,
                 batch_chunk: int | None = None,
                 workers: int | None = None,
                 task_timeout: float | None = None):
        self.query = query
        self.aggregate: AggregateFunction = query.aggregate
        self.lam = query.lam
        self.c = query.c
        self.c_holdout = query.c_holdout
        self.perturbation = query.perturbation
        self.table = query.table
        self.stats = ScorerStats()
        self._incremental = bool(
            use_incremental and self.aggregate.is_incrementally_removable
        )
        if batch_chunk is None:
            env_chunk = os.environ.get("SCORPION_BATCH_CHUNK", "").strip()
            if env_chunk:
                batch_chunk = int(env_chunk)
        self.batch_chunk = int(batch_chunk) if batch_chunk is not None else self.BATCH_CHUNK
        if self.batch_chunk < 1:
            raise PredicateError(
                f"batch_chunk must be >= 1, got {self.batch_chunk}")
        self.task_timeout = task_timeout
        self.workers = resolve_workers(workers)
        self._executor = None
        self._parallel_disabled = self.workers <= 1
        self._recovery = ParallelRecovery() if self.workers > 1 else None
        #: Pools started over this scorer's lifetime (restart counter
        #: and the ``SCORPION_POOL_GENERATION`` stamp fault schedules
        #: key on).
        self._pool_starts = 0
        self._finalizer: weakref.finalize | None = None
        self._score_cache: dict[Predicate, float] | None = {} if cache_scores else None
        self._outlier_score_cache: dict[Predicate, float] | None = (
            {} if cache_scores else None
        )
        self._tuple_influence_cache: dict[int, np.ndarray] = {}

        agg_values = self.table.values(query.agg_column)
        self.outlier_contexts: list[GroupContext] = []
        self.holdout_contexts: list[GroupContext] = []
        for result in query.outlier_results:
            self.outlier_contexts.append(self._build_context(
                result, agg_values, query.error_vectors[result.key], is_outlier=True))
        for result in query.holdout_results:
            self.holdout_contexts.append(self._build_context(
                result, agg_values, 1.0, is_outlier=False))
        # Influence only depends on labeled rows, so predicates are
        # evaluated against this much smaller concatenated slice of D.
        labeled_rows = np.concatenate([ctx.indices for ctx in self.contexts])
        evaluator = ArrayMaskEvaluator({
            attr: self.table.values(attr)[labeled_rows]
            for attr in query.attributes
        })
        #: The batch kernel: the mask-matrix kernel plus every array it
        #: reads, shared by the serial loop and the worker pool.
        self.kernel = BatchKernel(self.contexts, evaluator, self.aggregate,
                                  self.perturbation, self._incremental,
                                  self.stats)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_context(self, result, agg_values: np.ndarray, error_vector: float,
                       is_outlier: bool) -> GroupContext:
        group_values = agg_values[result.indices]
        context = GroupContext(
            key=result.key,
            indices=result.indices,
            agg_values=group_values,
            total_value=float(result.value),
            error_vector=float(error_vector),
            is_outlier=is_outlier,
        )
        if self._incremental:
            context.tuple_states = self.aggregate.tuple_states(group_values)
            context.total_state = context.tuple_states.sum(axis=0)
            if self.perturbation == "mean":
                mean = float(np.mean(group_values))
                context.mean_state = self.aggregate.tuple_states(
                    np.asarray([mean]))[0]
        return context

    @property
    def contexts(self) -> list[GroupContext]:
        return self.outlier_contexts + self.holdout_contexts

    @property
    def uses_incremental(self) -> bool:
        return self._incremental

    # ------------------------------------------------------------------
    # The scalar path (the reference the batch kernels reproduce)
    # ------------------------------------------------------------------
    def group_influence(self, context: GroupContext, local_mask: np.ndarray) -> float:
        """``inf(o, p, v_o)`` (or the unsigned hold-out variant) for one
        group given the rows the predicate removes."""
        removed = int(np.count_nonzero(local_mask))
        if removed == 0:
            return 0.0
        delta = self.kernel.delta(context, local_mask)
        if np.isnan(delta):
            return INVALID_INFLUENCE
        exponent = self.c if context.is_outlier else self.c_holdout
        influence = delta / (removed ** exponent)
        if context.is_outlier:
            return influence * context.error_vector
        return influence

    # ------------------------------------------------------------------
    # The full metric
    # ------------------------------------------------------------------
    def score_mask(self, full_mask: np.ndarray, ignore_holdouts: bool = False) -> float:
        """``inf(O, H, p, V)`` given the predicate's full-table mask."""
        local_masks = [full_mask[context.indices] for context in self.contexts]
        return self._score_local(local_masks, ignore_holdouts)

    def _score_local(self, local_masks: list[np.ndarray],
                     ignore_holdouts: bool) -> float:
        """The metric given per-context removal masks (aligned with
        :attr:`contexts`)."""
        self.stats.mask_scores += 1
        outlier_total = 0.0
        worst = 0.0
        for context, local in zip(self.contexts, local_masks):
            if not context.is_outlier and (ignore_holdouts or not self.holdout_contexts):
                continue
            influence = self.group_influence(context, local)
            if influence == INVALID_INFLUENCE:
                return INVALID_INFLUENCE
            if context.is_outlier:
                outlier_total += influence
            else:
                worst = max(worst, abs(influence))
        score = self.lam * outlier_total / max(len(self.outlier_contexts), 1)
        if ignore_holdouts or not self.holdout_contexts:
            return score
        return score - (1.0 - self.lam) * worst

    def _labeled_masks(self, predicate: Predicate) -> list[np.ndarray]:
        """Per-context removal masks, evaluating the predicate only over
        the labeled rows (O(|g_O| + |g_H|), not O(|D|))."""
        if not self.kernel.evaluator.supports_predicate(predicate):
            # Predicate over non-A_rest attributes (user-supplied): fall
            # back to the full-table path.
            full_mask = predicate.mask(self.table)
            return [full_mask[context.indices] for context in self.contexts]
        mask = self.kernel.evaluator.mask(predicate)
        return [mask[start:stop] for _, start, stop in self.kernel.slices]

    def score(self, predicate: Predicate, ignore_holdouts: bool = False) -> float:
        """``inf(O, H, p, V)`` for a predicate (memoized)."""
        self.stats.predicate_scores += 1
        cache = self._outlier_score_cache if ignore_holdouts else self._score_cache
        if cache is not None and predicate in cache:
            self.stats.cache_hits += 1
            return cache[predicate]
        value = self._score_local(self._labeled_masks(predicate), ignore_holdouts)
        if cache is not None:
            cache[predicate] = value
        return value

    def outlier_only_score(self, predicate: Predicate) -> float:
        """``inf(O, ∅, p, V)`` — MC's conservative pruning estimate
        (Section 6.2)."""
        return self.score(predicate, ignore_holdouts=True)

    # ------------------------------------------------------------------
    # Batched scoring (see module docstring for the equivalence contract)
    # ------------------------------------------------------------------
    #: Default row cap per vectorized pass; bounds the transient mask
    #: matrix and float temporaries without affecting results (the kernel
    #: is row-deterministic, so chunking is invisible).  The effective
    #: per-instance value is :attr:`batch_chunk` (constructor argument or
    #: the ``SCORPION_BATCH_CHUNK`` environment variable).
    BATCH_CHUNK = 1024

    def clear_memo(self) -> None:
        """Drop the predicate → influence memo caches (memoization stays
        enabled; the caches refill).

        The resident service calls this at every checkout so a cached
        scorer replays each request's scoring work exactly as a cold
        scorer would — memo hits would otherwise make warm-call counters
        diverge from the cold path the differential oracle compares
        against.  The per-tuple influence cache is *kept*: tuple deltas
        depend only on the aggregate states and perturbation mode, never
        on ``c``/``λ``, and no counter records them.
        """
        if self._score_cache is not None:
            self._score_cache = {}
        if self._outlier_score_cache is not None:
            self._outlier_score_cache = {}

    def rebind(self, query: ScorpionQuery) -> None:
        """Re-point this scorer at a cheap scalar variant of its problem
        (see :meth:`ScorpionQuery.with_params`).

        Only the search scalars ``c`` / ``c_holdout`` / ``λ`` may
        differ: every cached artifact — the batch kernel with its
        contexts, tuple states and labeled evaluator, and the worker
        pool holding it — is derived from the table, query,
        annotations, and perturbation mode, which must be identical (the
        resident service's content key guarantees this; the assertion is
        the safety net).  The kernel takes the scalars as call
        arguments, so only the memoized influences, which bake the old
        scalars in, are dropped.
        """
        if (query.raw_table is not self.query.raw_table
                or query.perturbation != self.perturbation
                or query.attributes != self.query.attributes):
            raise PredicateError(
                "rebind requires an identical problem up to c/c_holdout/lam")
        changed = (query.c != self.c or query.c_holdout != self.c_holdout
                   or query.lam != self.lam)
        self.query = query
        self.c = query.c
        self.c_holdout = query.c_holdout
        self.lam = query.lam
        if changed:
            self.clear_memo()

    def resident_bytes(self) -> int:
        """Bytes of numpy array data this scorer holds resident — the
        resident service's memory-accounting unit.

        Counts each owned array once (see
        :meth:`~repro.core.kernel.BatchKernel.resident_bytes`).  Small
        Python object overhead is excluded — the arrays counted here are
        the artifacts whose size actually scales with the problem.
        """
        return self.kernel.resident_bytes()

    def score_batch(self, predicates: Sequence[Predicate] | Iterable[Predicate],
                    ignore_holdouts: bool = False) -> np.ndarray:
        """``inf(O, H, p, V)`` for every predicate, as one vectorized pass.

        Returns a float array aligned with ``predicates`` whose entries
        equal ``[self.score(p, ignore_holdouts) for p in predicates]``
        exactly; results populate the same memo cache ``score`` reads.
        Unique uncached predicates take the mask-matrix kernel in
        ``batch_chunk``-sized shards; predicates over attributes outside
        the labeled evaluator are scored through the scalar machinery
        within the same call.
        """
        predicates = list(predicates)
        tracer = current_tracer()
        if tracer is None:
            return self._score_batch_impl(predicates, ignore_holdouts)
        # Traced wrapper: the batch's profile is recovered from counter
        # deltas so the scoring path itself is untouched (bit-for-bit
        # identical to the untraced run).
        stats = self.stats
        base = (stats.cache_hits, stats.masked_predicates,
                stats.parallel_shards, stats.parallel_batches)
        with tracer.begin("score_batch") as sp:
            out = self._score_batch_impl(predicates, ignore_holdouts)
            sp.annotate(
                predicates=len(predicates),
                groups=self.kernel.active_contexts(ignore_holdouts),
                cache_hits=stats.cache_hits - base[0],
                masked=stats.masked_predicates - base[1],
                shards=stats.parallel_shards - base[2],
                parallel=stats.parallel_batches > base[3],
            )
        return out

    def _score_batch_impl(self, predicates: list,
                          ignore_holdouts: bool) -> np.ndarray:
        """The :meth:`score_batch` body (see its docstring)."""
        started = time.perf_counter()
        self.stats.batch_calls += 1
        self.stats.batch_predicates += len(predicates)
        self.stats.largest_batch = max(self.stats.largest_batch, len(predicates))
        self.stats.predicate_scores += len(predicates)
        cache = self._outlier_score_cache if ignore_holdouts else self._score_cache

        out = np.empty(len(predicates), dtype=np.float64)
        pending: dict[Predicate, list[int]] = {}
        fallback: list[int] = []
        evaluator = self.kernel.evaluator
        for i, predicate in enumerate(predicates):
            if cache is not None and predicate in cache:
                self.stats.cache_hits += 1
                out[i] = cache[predicate]
            elif predicate in pending:
                pending[predicate].append(i)
            elif not evaluator.supports_predicate(predicate):
                fallback.append(i)
            else:
                pending[predicate] = [i]

        size = self.batch_chunk
        if not self._parallel_disabled:
            # Cut a batch too small to feed every worker into finer
            # shards (chunking never changes a result).
            size = choose_shard_size(len(pending), self.kernel.n_labeled,
                                     self.workers, size)
        unique = list(pending)
        shards = [unique[lo:lo + size] for lo in range(0, len(unique), size)]

        shard_values = None
        if not self._parallel_disabled and len(shards) >= 2:
            shard_values = self._score_shards_parallel(shards, ignore_holdouts)
        if shard_values is None:
            shard_values = [
                self.kernel.score_masked_chunk(shard, ignore_holdouts,
                                               self.c, self.c_holdout,
                                               self.lam)
                for shard in shards]

        for chunk, values in zip(shards, shard_values):
            self.stats.mask_scores += len(chunk)
            self.stats.masked_predicates += len(chunk)
            for predicate, value in zip(chunk, values):
                value = float(value)
                if cache is not None:
                    cache[predicate] = value
                for i in pending[predicate]:
                    out[i] = value

        for i in fallback:
            predicate = predicates[i]
            if cache is not None and predicate in cache:
                # Duplicate of an earlier fallback entry in this batch.
                out[i] = cache[predicate]
                continue
            value = self._score_local(self._labeled_masks(predicate),
                                      ignore_holdouts)
            if cache is not None:
                cache[predicate] = value
            out[i] = value

        self.stats.batch_seconds += time.perf_counter() - started
        return out

    # ------------------------------------------------------------------
    # Sharded parallel execution (see repro.parallel)
    # ------------------------------------------------------------------
    @property
    def uses_parallel(self) -> bool:
        """Whether batch shards may be dispatched to worker processes
        right now (``workers > 1`` and the recovery circuit is not
        holding batches serial).  Unlike the pre-ISSUE-9 permanent
        fallback this can flip back to True: the circuit re-probes
        parallel after its cooldown."""
        if self._parallel_disabled:
            return False
        return self._recovery is None or self._recovery.allow_parallel()

    def parallel_health(self) -> dict:
        """Live pool/degradation state (surfaced by service ``health``).

        ``state`` is ``"serial"`` (structural: ``workers <= 1``),
        ``"parallel"`` (circuit closed), or ``"degraded"`` (circuit
        open/half-open: batches run serial until a re-probe succeeds).
        """
        if self._parallel_disabled:
            return {"state": "serial", "workers": self.workers,
                    "pool_live": False, "pool_starts": self._pool_starts}
        recovery = self._recovery
        assert recovery is not None
        return {
            "state": "degraded" if recovery.degraded else "parallel",
            "circuit": recovery.state(),
            "workers": self.workers,
            "pool_live": self._executor is not None,
            "pool_starts": self._pool_starts,
        }

    def _score_shards_parallel(self, shards: list[list[Predicate]],
                               ignore_holdouts: bool) -> list | None:
        """Run predicate shards on the worker pool.

        Returns one influence array per shard, aligned with ``shards``
        — bit-for-bit what the serial loop would compute — or None when
        this batch must run serial (the caller then takes the serial
        path, so scoring always completes).

        Failure policy (self-healing; see
        :class:`~repro.parallel.recovery.ParallelRecovery`): a pool
        failure releases the broken pool, backs off, restarts, and
        retries the whole batch up to ``SCORPION_SHARD_RETRIES`` times;
        exhausted retries or an exhausted restart budget degrade *this
        batch only* to serial (the circuit breaker re-probes parallel
        after its cooldown).  ``KeyboardInterrupt``/``SystemExit``
        propagate after the pool is released.
        """
        recovery = self._recovery
        assert recovery is not None
        if not recovery.allow_parallel():
            REGISTRY.counter(
                "scorpion_degraded_batches_total",
                "Batches scored serial because the pool circuit "
                "was open or retries were exhausted").inc()
            return None
        tracer = current_tracer()
        # Shards carry the live (c, c_holdout, λ): the kernel takes
        # them as arguments, so a rebound scorer's warm pool scores at
        # the current values.
        scalars = (self.c, self.c_holdout, self.lam)
        tasks = [(shard, ignore_holdouts, scalars) for shard in shards]
        attempts = recovery.retries + 1
        for attempt in range(attempts):
            try:
                executor = self._ensure_executor()
                submit_s = time.perf_counter()
                results = executor.run(tasks)
            except BaseException as exc:  # noqa: BLE001 - availability
                # over purity: a broken pool must never break scoring,
                # only slow it down.  Release the pool first so no path
                # (interrupt included) leaves workers behind.
                self.close()
                REGISTRY.counter(
                    "scorpion_pool_failures_total",
                    "Worker-pool failures (start or batch)").inc()
                if not isinstance(exc, Exception):
                    raise
                within_budget = recovery.record_failure()
                if within_budget and attempt + 1 < attempts:
                    REGISTRY.counter(
                        "scorpion_pool_retries_total",
                        "Batch retries after a pool failure "
                        "(each restarts the pool)").inc()
                    if tracer is not None:
                        now = time.perf_counter()
                        tracer.add_span("pool_retry", now, now, {
                            "attempt": attempt + 1, "error": repr(exc)})
                    recovery.backoff(attempt)
                    continue
                reason = ("restart budget exhausted — circuit open for "
                          f"{recovery.cooldown:g}s" if not within_budget
                          else f"{attempts} attempts failed")
                warnings.warn(
                    f"parallel scoring failed ({exc}); {reason}; scoring "
                    "serial until the pool recovers",
                    RuntimeWarning, stacklevel=3)
                REGISTRY.counter(
                    "scorpion_degraded_batches_total",
                    "Batches scored serial because the pool circuit "
                    "was open or retries were exhausted").inc()
                return None
            recovery.record_success()
            break
        values = []
        for task, (shard_values, worker_counters) in zip(tasks, results):
            self.stats.merge_worker_counters(worker_counters)
            values.append(shard_values)
            if tracer is not None:
                # Worker-side perf_counter() stamps ride back in the
                # counters dict (ignored by merge_worker_counters);
                # CLOCK_MONOTONIC is machine-wide, so t0 minus the
                # parent's submit stamp is the shard's real queue wait.
                t0 = worker_counters.get("shard_t0")
                t1 = worker_counters.get("shard_t1")
                if t0 is not None and t1 is not None:
                    tracer.add_span("shard", t0, t1, {
                        "items": len(task[0]),
                        "queue_wait_ms": round(
                            max(0.0, t0 - submit_s) * 1e3, 3)})
        self.stats.parallel_batches += 1
        self.stats.parallel_shards += len(tasks)
        return values

    def _ensure_executor(self):
        """Lazily start the persistent worker pool around this scorer's
        batch kernel.

        Every start stamps ``SCORPION_POOL_GENERATION`` with this
        scorer's pool-start ordinal so fault schedules (``~gN``) can
        target early generations only, and counts restarts (any start
        after the first) in ``scorpion_pool_restarts_total``.
        """
        if self._executor is None:
            from repro.faults.registry import GENERATION_ENV
            from repro.parallel import ShardedScoringExecutor

            os.environ[GENERATION_ENV] = str(self._pool_starts)
            executor = ShardedScoringExecutor(self.workers,
                                              task_timeout=self.task_timeout)
            executor.start(self.kernel)
            if self._pool_starts:
                REGISTRY.counter(
                    "scorpion_pool_restarts_total",
                    "Worker-pool restarts after a failure").inc()
            self._pool_starts += 1
            self._executor = executor
            self._finalizer = weakref.finalize(self, executor.close)
        return self._executor

    def close(self) -> None:
        """Release the worker pool (terminating its workers).

        No-op for serial scorers; idempotent.  The scorer stays fully
        usable afterwards — a later parallel batch simply restarts the
        pool.
        """
        executor, self._executor = self._executor, None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if executor is not None:
            executor.close()

    # ------------------------------------------------------------------
    # Per-tuple influence (DT's split metric, MC's pruning bound)
    # ------------------------------------------------------------------
    def tuple_deltas(self, context: GroupContext) -> np.ndarray:
        """``Δ(o, {t})`` for every tuple of the group, vectorized when the
        aggregate is incrementally removable (O(n²) recomputes otherwise)."""
        n = context.size
        if n == 0:
            return np.empty(0, dtype=np.float64)
        if n == 1 and self.perturbation == "delete":
            empty = self.aggregate.empty_value
            if empty is None:
                return np.asarray([np.nan])
            return np.asarray([context.total_value - empty])
        if self._incremental:
            assert context.tuple_states is not None and context.total_state is not None
            remaining = context.total_state[np.newaxis, :] - context.tuple_states
            if self.perturbation == "mean":
                assert context.mean_state is not None
                remaining = remaining + context.mean_state[np.newaxis, :]
            updated = self.aggregate.recover_batch(remaining)
        else:
            updated = np.empty(n, dtype=np.float64)
            for i in range(n):
                if self.perturbation == "mean":
                    modified = context.agg_values.copy()
                    modified[i] = context.mean_value
                    rest = modified
                else:
                    rest = np.delete(context.agg_values, i)
                try:
                    updated[i] = self.aggregate.compute(rest)
                except AggregateError:
                    updated[i] = np.nan
        return context.total_value - updated

    def tuple_influences(self, context: GroupContext) -> np.ndarray:
        """Signed per-tuple influence ``inf(o, {t}, v_o)`` (error vector
        applied for outlier groups; raw Δ for hold-outs).  Cached — the
        pruning bounds evaluate these for every candidate predicate."""
        cached = self._tuple_influence_cache.get(id(context))
        if cached is not None:
            return cached
        deltas = self.tuple_deltas(context)
        influences = deltas * context.error_vector if context.is_outlier else deltas
        self._tuple_influence_cache[id(context)] = influences
        return influences

    def max_tuple_influence(self, predicate: Predicate) -> float:
        """Largest single-tuple influence among matched outlier-group rows,
        scaled like :meth:`outlier_only_score` scales a predicate
        (``λ / |O|``) so the two are comparable — the paper's second MC
        pruning bound (Section 6.2), exact for ``c = 1``."""
        masks = self._labeled_masks(predicate)
        best = INVALID_INFLUENCE
        for (context, _, _), local in zip(self.kernel.slices, masks):
            if not context.is_outlier or not np.any(local):
                continue
            influences = self.tuple_influences(context)[local]
            finite = influences[~np.isnan(influences)]
            if len(finite):
                best = max(best, float(np.max(finite)))
        if best == INVALID_INFLUENCE:
            return best
        return self.lam * best / max(len(self.outlier_contexts), 1)

    def refinement_bound(self, predicate: Predicate) -> float:
        """Upper bound on ``inf(O, ∅, p', V)`` over refinements ``p' ≺ p``.

        For independent aggregates with additive Δ (SUM, COUNT — exactly
        MC's territory), the best refinement cannot beat picking, in each
        outlier group, the ``k`` matched tuples with the largest positive
        influence: ``max_k (Σ top-k δ) / k^c``.  At ``c = 1`` the maximum
        sits at ``k = 1`` and this reduces to the paper's single-tuple
        bound.  At ``c < 1`` the paper's bound is not sound: k tuples
        can together score ``Σδ / k^c`` above the best single tuple, so
        it would over-prune.
        """
        masks = self._labeled_masks(predicate)
        total = 0.0
        any_rows = False
        for (context, _, _), local in zip(self.kernel.slices, masks):
            if not context.is_outlier or not np.any(local):
                continue
            any_rows = True
            influences = self.tuple_influences(context)[local]
            positive = influences[np.isfinite(influences) & (influences > 0)]
            if not len(positive):
                continue
            positive[::-1].sort()  # descending in place
            prefix = np.cumsum(positive)
            ks = np.arange(1, len(positive) + 1, dtype=np.float64)
            total += float(np.max(prefix / ks ** self.c))
        if not any_rows:
            return INVALID_INFLUENCE
        return self.lam * total / max(len(self.outlier_contexts), 1)
