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
group whose aggregate has no empty value yields ``-inf`` (the output row
would vanish rather than look normal; see DESIGN.md §4 item 3).

Batched scoring
---------------

:meth:`InfluenceScorer.score_batch` evaluates a whole predicate *set* in
one vectorized pass: the labeled-row evaluator builds an
``(n_predicates, n_rows)`` boolean mask matrix ``M`` (see
:meth:`repro.predicates.evaluator.ArrayMaskEvaluator.evaluate_batch`),
and on the incrementally-removable path every predicate's per-group
removed state — conceptually the matrix product ``M_g @ tuple_states_g``
— is realized as a scatter-add over the matrix's non-zeros, followed by
a single ``recover_batch`` per group.  Black-box aggregates fall back to
a per-predicate recompute loop inside the same bookkeeping.

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

The index fast path
-------------------

``score_batch`` consults an :class:`~repro.index.IndexPlanner` before
building mask matrices.  Three predicate shapes are answered by a
lazily built :class:`~repro.index.PrefixAggregateIndex` instead of an
O(n) mask row per predicate:

* **single range clauses** over continuous labeled attributes (NAIVE's
  1-clause enumeration, DT leaf ranges, MC's per-attribute cells,
  Merger expansion starts) — two binary searches per group, removed
  states from exact prefix-sum differences (O(1), when the group's
  states are integer-summable) or an ascending-row-order gather of just
  the matched rows (O(log n + k));
* **single set clauses** over factorized discrete labeled attributes —
  O(|codes|) code-bucket lookups per group, removed states from exact
  per-bucket sums or the same ascending-row gather (see
  :mod:`repro.index.discrete`);
* **2-clause conjunctions** whose attributes both have index views —
  the planner estimates each side's matched-row total, probes the
  *rarer* clause's sorted slice or code buckets, and mask-tests only
  those k rows against the other clause.

Every tier reproduces the scalar masked sum bit for bit (see
:mod:`repro.index.prefix`), so the equivalence contract is unchanged;
the planner's routing counters (``indexed_predicates`` with its
per-tier split ``indexed_ranges`` / ``indexed_sets`` /
``indexed_conjunctions``, plus ``conjunction_fallbacks`` /
``masked_predicates`` / ``index_builds`` / ``index_build_seconds``)
surface through :class:`ScorerStats`.  Everything else — 3+-clause
conjunctions, black-box aggregates, non-labeled attributes — takes the
mask-matrix kernel exactly as before.

Parallel sharded execution
--------------------------

With ``workers > 1`` (constructor / ``SCORPION_WORKERS`` /
``Scorpion(workers=...)`` / CLI ``--workers``; ``0`` = one worker per
CPU), ``score_batch`` hands its predicate shards to a persistent process
pool instead of looping them in-process (see :mod:`repro.parallel`).
Shards are ``batch_chunk``-sized, except that a batch too small to fill
``2 × workers`` of them is cut finer so every worker gets a share, when
the per-shard work clears the pool's dispatch cost
(:meth:`~repro.index.cost.CostModel.choose_shard_size`).  The problem's
arrays go into shared memory once; each worker rebuilds this scorer's
batch kernel around zero-copy views and runs *the same methods on
byte-identical inputs*, and shards are reassembled in submission
order — so influences are bit-for-bit identical to serial execution at
any worker count.  Per-worker kernel counters are merged back into
:class:`ScorerStats` (:meth:`ScorerStats.merge_worker_counters`),
keeping aggregate counters equal to a serial run's; the parallel-only
``parallel_batches`` / ``parallel_shards`` counters record how much work
the pool took.  A failed parallel batch (worker crash, shard timeout) is
retried on a restarted pool; past the restart budget, batches run
serially until a cool-down probe succeeds (README "Failure semantics"
has the policy).  Results are always produced.  Batches that fit in a
single shard skip the pool entirely, and cache-hit / fallback
predicates are always handled in the parent.
"""

from __future__ import annotations

import dataclasses
import os
import time
import warnings
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.aggregates.base import AggregateFunction
from repro.core.problem import ScorpionQuery
from repro.errors import AggregateError, PredicateError
from repro.index import IndexPlanner, PrefixAggregateIndex
from repro.index.cost import CostModel
from repro.obs.metrics import REGISTRY
from repro.obs.trace import current_tracer, span
from repro.parallel import resolve_workers
from repro.parallel.recovery import ParallelRecovery
from repro.predicates.clause import RangeClause
from repro.predicates.evaluator import ArrayMaskEvaluator
from repro.predicates.predicate import Predicate

INVALID_INFLUENCE = float("-inf")


def _scalar_pow(bases: np.ndarray, exponent: float) -> np.ndarray:
    """``bases ** exponent`` through *scalar* libm pow.

    NumPy's vectorized ``**`` routes through a SIMD pow whose results can
    differ from scalar ``pow`` in the last ulp, which would break the
    bit-for-bit scalar/batch equivalence contract.  Matched-row counts
    repeat heavily, so one scalar pow per unique count is also cheap."""
    if exponent == 1.0:
        return bases
    if exponent == 0.0:
        return np.ones_like(bases)
    uniques, inverse = np.unique(bases, return_inverse=True)
    table = np.asarray([value ** exponent for value in uniques.tolist()],
                       dtype=np.float64)
    return table[inverse]


@dataclass
class GroupContext:
    """Cached evaluation state for one input group ``g_αi``.

    Attributes
    ----------
    key:
        The group's group-by key.
    indices:
        Row positions of the group inside the full input table ``D``.
    agg_values:
        The group's aggregate-attribute values (``π_Aagg g``).
    total_value:
        ``agg(g)`` — the group's original output.
    error_vector:
        ``v_o`` for outlier groups; 1.0 for hold-out groups.
    is_outlier:
        Whether the group belongs to ``O`` (else ``H``).
    total_state / tuple_states:
        Incremental-removal caches (None for black-box aggregates).
    """

    key: tuple
    indices: np.ndarray
    agg_values: np.ndarray
    total_value: float
    error_vector: float
    is_outlier: bool
    total_state: np.ndarray | None = None
    tuple_states: np.ndarray | None = field(default=None, repr=False)
    #: State of one mean-valued tuple (only for the "mean" perturbation).
    mean_state: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def mean_value(self) -> float:
        return float(np.mean(self.agg_values)) if self.size else float("nan")


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
    #: Batch predicates the planner routed through the prefix-aggregate
    #: index on any tier (unique predicates, cache hits excluded);
    #: always equals ``indexed_ranges + indexed_sets +
    #: indexed_conjunctions``.
    indexed_predicates: int = 0
    #: Index predicates answered by the single-range tier (binary
    #: searches + prefix differences / gathers).
    indexed_ranges: int = 0
    #: Index predicates answered by the discrete code-bucket tier
    #: (single set clauses).
    indexed_sets: int = 0
    #: Index predicates answered by the 2-clause conjunction tier
    #: (probe the rarer clause, mask-test its rows).
    indexed_conjunctions: int = 0
    #: 2-clause predicates the planner examined for the conjunction
    #: tier but routed to the mask kernel (missing index view).
    conjunction_fallbacks: int = 0
    #: Batch predicates that took the mask-matrix kernel instead.
    masked_predicates: int = 0
    #: Attribute indexes built so far (one sorted view per attribute).
    index_builds: int = 0
    #: Wall-clock seconds spent sorting / prefix-summing index builds.
    index_build_seconds: float = 0.0
    #: ``score_batch`` calls whose shards ran on the worker pool.
    parallel_batches: int = 0
    #: Predicate shards executed by worker processes.
    parallel_shards: int = 0
    #: Cost-model routing decisions by winning route (counted in the
    #: parent at partition time, so serial and parallel runs of the
    #: same batch stream record identical values).  Only index-eligible
    #: shapes are priced; structurally unsupported predicates go to the
    #: mask kernel without a decision and appear in none of these.
    cost_routed_mask: int = 0
    cost_routed_prefix: int = 0
    cost_routed_bucket: int = 0
    cost_routed_gather: int = 0
    cost_routed_conj: int = 0

    #: Counters incremented *inside* the batch kernels and therefore on
    #: worker processes when scoring runs parallel; :meth:`worker_counters`
    #: exports them from a worker's stats window and
    #: :meth:`merge_worker_counters` folds them back into the parent's, so
    #: aggregate totals equal a serial run's.  The index-build pair is
    #: normally zero on workers (the parent pre-builds and ships every
    #: routed attribute) but covers the safety-net case of a worker
    #: building an un-shipped attribute locally.  Everything else is
    #: counted in the parent regardless of execution mode.
    WORKER_MERGED = ("incremental_deltas", "full_recomputes",
                     "index_builds", "index_build_seconds")

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
        """Zero every counter (field defaults are the zeros).

        Monotonicity contract: resetting starts a fresh counting window
        — it must never cause already-counted work to be re-counted.
        The scorer's index-build sync honors this by accumulating
        *deltas* against baselines it keeps outside the stats object
        (see :meth:`InfluenceScorer._sync_index_stats`).
        """
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
    use_index:
        Route single range clauses, single set clauses, and 2-clause
        conjunctions in ``score_batch`` through the prefix-aggregate
        index (on by default; only effective on the
        incrementally-removable path).  Benchmarks and the equivalence
        tests toggle it off to exercise the mask-matrix kernel.
    batch_chunk:
        Predicate cap per vectorized ``score_batch`` pass.  Defaults to
        the ``SCORPION_BATCH_CHUNK`` environment variable, else the
        class default :attr:`BATCH_CHUNK`; chunking never affects
        results (both kernels are row-deterministic), so benchmarks can
        sweep it freely.  With ``workers > 1`` it is also the largest
        shard the executor fans out; a smaller batch is cut so every
        worker gets a shard (see
        :meth:`~repro.index.cost.CostModel.choose_shard_size`).
    workers:
        Worker processes for sharded ``score_batch`` execution (see
        :mod:`repro.parallel`).  Defaults to the ``SCORPION_WORKERS``
        environment variable, else 1 (serial, no pool); ``0`` means one
        worker per CPU.  Results are bit-for-bit identical at any
        setting.
    cost_model:
        The :class:`~repro.index.cost.CostModel` pricing the planner's
        routing decisions.  ``None`` (default) takes the process-wide
        :meth:`~repro.index.cost.CostModel.shared` model, which prices
        from the shipped :data:`~repro.index.cost.DEFAULT_CONSTANTS`.
        Tests inject :func:`~repro.index.cost.force_index_model` /
        :func:`~repro.index.cost.force_mask_model` constants to pin a
        tier regardless of problem shape.
    task_timeout:
        Per-shard worker deadline in seconds, forwarded to the
        executor (``None`` → the ``SCORPION_TASK_TIMEOUT`` /
        legacy ``SCORPION_WORKER_TIMEOUT`` environment variables, else
        the executor default; ``<= 0`` waits forever).
    """

    def __init__(self, query: ScorpionQuery, use_incremental: bool = True,
                 cache_scores: bool = True, use_index: bool = True,
                 batch_chunk: int | None = None,
                 workers: int | None = None,
                 cost_model: "CostModel | None" = None,
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
        self._index_attr_specs: dict = {}
        #: Index build totals already folded into ``stats`` — the sync
        #: baselines that make :meth:`_sync_index_stats` monotonic.
        self._index_builds_seen = 0
        self._index_seconds_seen = 0.0
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
        self._labeled_slices: list[tuple[GroupContext, int, int]] = []
        offset = 0
        for context in self.contexts:
            self._labeled_slices.append((context, offset, offset + context.size))
            offset += context.size
        labeled_rows = np.concatenate([ctx.indices for ctx in self.contexts])
        self._labeled_evaluator = ArrayMaskEvaluator({
            attr: self.table.values(attr)[labeled_rows]
            for attr in query.attributes
        })
        self._n_labeled = offset
        # Batch-kernel companions: which context each labeled row belongs
        # to, and all per-tuple state rows stacked in labeled-row order.
        self._context_ids = np.concatenate([
            np.full(ctx.size, ci, dtype=np.int64)
            for ci, ctx in enumerate(self.contexts)
        ]) if offset else np.empty(0, dtype=np.int64)
        #: Outlier contexts come first in the labeled concatenation, so
        #: columns [0, _outlier_cols) are exactly the outlier rows.
        self._outlier_cols = sum(ctx.size for ctx in self.outlier_contexts)
        self._stacked_states = (
            np.vstack([ctx.tuple_states for ctx in self.contexts])
            if self._incremental and offset else None
        )
        # Prefix-aggregate index over the labeled rows (cheap shell; the
        # per-attribute sorted views build lazily on first routed use or
        # via prepare_index).  Requires the incremental path: black-box
        # aggregates need mask rows to recompute from raw values.
        self._index: PrefixAggregateIndex | None = None
        if use_index and self._incremental and offset:
            evaluator = self._labeled_evaluator
            self._index = PrefixAggregateIndex(
                {attr: evaluator.continuous_values(attr)
                 for attr in evaluator.continuous_attributes},
                [(start, stop) for _, start, stop in self._labeled_slices],
                [ctx.tuple_states for ctx in self.contexts],
                codes_by_attr={attr: evaluator.discrete_codes(attr)
                               for attr in evaluator.discrete_attributes},
                code_tables={attr: evaluator.code_table(attr)
                             for attr in evaluator.discrete_attributes},
            )
        self._planner = IndexPlanner(self._index, cost_model)

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
    # Δ computation
    # ------------------------------------------------------------------
    def updated_from_removed(self, context: GroupContext,
                             removed_state: np.ndarray,
                             removed_count: float) -> float:
        """The group's aggregate value after the predicate acts on rows
        whose summed state is ``removed_state``.

        The scalar path's perturbation rules (:meth:`delta`): ``delete``
        removes the state outright; ``mean`` replaces it with
        ``removed_count`` mean-valued tuples.  Returns NaN when the
        result is undefined (delete mode emptying a group).  The batched
        scoring kernels and the Merger's estimate apply the same rules
        row-wise through :meth:`_updated_from_removed_batch`.
        """
        assert context.total_state is not None
        if self.perturbation == "mean":
            assert context.mean_state is not None
            adjusted = (context.total_state - removed_state
                        + removed_count * context.mean_state)
            return float(self.aggregate.recover_batch(
                adjusted[np.newaxis, :])[0])
        remaining = context.total_state - removed_state
        if remaining[-1] < 0.5:  # deleted the whole group
            empty = self.aggregate.empty_value
            return float("nan") if empty is None else float(empty)
        return float(self.aggregate.recover_batch(remaining[np.newaxis, :])[0])

    def delta(self, context: GroupContext, local_mask: np.ndarray) -> float:
        """``Δ(o, p) = agg(g) − agg(g ⊖ p(g))`` for one group, where ``⊖``
        deletes or mean-imputes the matched rows per the problem's
        perturbation mode.

        ``local_mask`` selects the matched rows within the group.
        Returns NaN when the perturbation leaves the aggregate undefined
        (delete mode emptying an AVG/STDDEV group); callers map that to
        ``-inf`` influence.
        """
        removed = int(np.count_nonzero(local_mask))
        if removed == 0:
            return 0.0
        if self._incremental:
            self.stats.incremental_deltas += 1
            assert context.tuple_states is not None
            removed_state = context.tuple_states[local_mask].sum(axis=0)
            updated = self.updated_from_removed(context, removed_state, removed)
            if np.isnan(updated):
                return float("nan")
        else:
            self.stats.full_recomputes += 1
            try:
                if self.perturbation == "mean":
                    modified = context.agg_values.copy()
                    modified[local_mask] = context.mean_value
                    updated = self.aggregate.compute(modified)
                else:
                    updated = self.aggregate.compute(
                        context.agg_values[~local_mask])
            except AggregateError:
                return float("nan")
        return context.total_value - updated

    def group_influence(self, context: GroupContext, local_mask: np.ndarray) -> float:
        """``inf(o, p, v_o)`` (or the unsigned hold-out variant) for one
        group given the rows the predicate removes."""
        removed = int(np.count_nonzero(local_mask))
        if removed == 0:
            return 0.0
        delta = self.delta(context, local_mask)
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
        if any(not self._labeled_evaluator.supports(c.attribute) for c in predicate):
            # Predicate over non-A_rest attributes (user-supplied): fall
            # back to the full-table path.
            full_mask = predicate.mask(self.table)
            return [full_mask[context.indices] for context in self.contexts]
        mask = self._labeled_evaluator.mask(predicate)
        return [mask[start:stop] for _, start, stop in self._labeled_slices]

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

    @property
    def uses_index(self) -> bool:
        """Whether the prefix-aggregate index fast path is available."""
        return self._index is not None

    @property
    def planner(self) -> IndexPlanner:
        """The routing planner (exposed for tests and diagnostics)."""
        return self._planner

    def prepare_index(self, attributes: Iterable[str] | None = None,
                      ) -> tuple[str, ...]:
        """Pre-build the prefix-aggregate index for ``attributes``.

        Hot single-clause producers (NAIVE's 1-clause enumeration, MC's
        per-attribute cells, DT leaf ranges feeding the Merger) call
        this to declare the attributes they are about to flood
        ``score_batch`` with, so index build time lands up front instead
        of inside the first scoring chunk.  Continuous attributes get
        sorted range views, discrete attributes code-bucket views;
        ``None`` builds every indexable attribute of either kind.
        Returns the attributes actually indexed (empty when the fast
        path is unavailable) — purely an optimization either way, since
        routed queries build lazily.
        """
        if self._index is None:
            return ()
        if attributes is None:
            attributes = (self._labeled_evaluator.continuous_attributes
                          + self._labeled_evaluator.discrete_attributes)
        with span("prepare_index") as sp:
            built = []
            for attribute in attributes:
                if self._index.supports(attribute):
                    self._index.ensure(attribute)
                    built.append(attribute)
                elif self._index.supports_discrete(attribute):
                    self._index.ensure_discrete(attribute)
                    built.append(attribute)
            self._sync_index_stats()
            if sp:
                sp.annotate(attributes=len(built))
        return tuple(built)

    def _sync_index_stats(self) -> None:
        """Fold index-build work into ``stats`` *monotonically*.

        Accumulates only the delta since the last sync (baselines live
        on the scorer, not the stats object), so a mid-run
        ``stats.reset()`` / re-``prepare_index`` can neither resurrect
        already-counted builds nor clobber counters merged back from
        worker shards.
        """
        assert self._index is not None
        builds = self._index.build_count
        seconds = self._index.build_seconds
        self.stats.index_builds += builds - self._index_builds_seen
        self.stats.index_build_seconds += seconds - self._index_seconds_seen
        self._index_builds_seen = builds
        self._index_seconds_seen = seconds

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
        differ: every cached artifact — contexts, tuple states, the
        labeled evaluator, index views, the worker pool's shared-memory
        image — is derived from the table, query, annotations, and
        perturbation mode, which must be identical (the resident
        service's content key guarantees this; the assertion is the
        safety net).  Memoized influences are dropped because they bake
        the old scalars in.
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

        Counts each owned array once: per-context indices, aggregate
        values and tuple states, the stacked state matrix, the labeled
        evaluator's comparison arrays, and every built index view.
        Small Python object overhead is excluded — the arrays counted
        here are the artifacts whose size actually scales with the
        problem.
        """
        total = 0
        for context in self.contexts:
            total += context.indices.nbytes + context.agg_values.nbytes
            if context.tuple_states is not None:
                total += context.tuple_states.nbytes
            if context.total_state is not None:
                total += context.total_state.nbytes
        if self._stacked_states is not None:
            total += self._stacked_states.nbytes
        total += self._context_ids.nbytes
        total += self._labeled_evaluator.resident_bytes()
        if self._index is not None:
            total += self._index.resident_bytes()
        return int(total)

    def score_batch(self, predicates: Sequence[Predicate] | Iterable[Predicate],
                    ignore_holdouts: bool = False) -> np.ndarray:
        """``inf(O, H, p, V)`` for every predicate, as one vectorized pass.

        Returns a float array aligned with ``predicates`` whose entries
        equal ``[self.score(p, ignore_holdouts) for p in predicates]``
        exactly; results populate the same memo cache ``score`` reads.
        The planner routes index-eligible predicates (single continuous
        range clause on the incremental path) through the
        prefix-aggregate index; the rest take the mask-matrix kernel.
        Predicates over attributes outside the labeled evaluator (or any
        predicate when the aggregate is black-box at the Δ level) are
        scored through the scalar machinery within the same call.
        """
        predicates = list(predicates)
        tracer = current_tracer()
        if tracer is None:
            return self._score_batch_impl(predicates, ignore_holdouts)
        # Traced wrapper: the batch's routing/tier profile is recovered
        # from counter deltas so the scoring path itself is untouched
        # (bit-for-bit identical to the untraced run).
        stats = self.stats
        base = (stats.cache_hits, stats.masked_predicates,
                stats.indexed_ranges, stats.indexed_sets,
                stats.indexed_conjunctions, stats.parallel_shards,
                stats.parallel_batches)
        with tracer.begin("score_batch") as sp:
            out = self._score_batch_impl(predicates, ignore_holdouts)
            sp.annotate(
                predicates=len(predicates),
                groups=self._count_active_contexts(ignore_holdouts),
                cache_hits=stats.cache_hits - base[0],
                masked=stats.masked_predicates - base[1],
                ranges=stats.indexed_ranges - base[2],
                sets=stats.indexed_sets - base[3],
                conjunctions=stats.indexed_conjunctions - base[4],
                shards=stats.parallel_shards - base[5],
                parallel=stats.parallel_batches > base[6],
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
        for i, predicate in enumerate(predicates):
            if cache is not None and predicate in cache:
                self.stats.cache_hits += 1
                out[i] = cache[predicate]
            elif predicate in pending:
                pending[predicate].append(i)
            elif not self._labeled_evaluator.supports_predicate(predicate):
                fallback.append(i)
            else:
                pending[predicate] = [i]

        route = self._planner.partition(pending)
        self.stats.conjunction_fallbacks += route.conjunction_fallbacks
        self.stats.cost_routed_mask += route.cost_routed_mask
        self.stats.cost_routed_prefix += route.cost_routed_prefix
        self.stats.cost_routed_bucket += route.cost_routed_bucket
        self.stats.cost_routed_gather += route.cost_routed_gather
        self.stats.cost_routed_conj += route.cost_routed_conj
        if self._index is not None:
            # Conjunction planning may have built probe-side views.
            self._sync_index_stats()

        size = self.batch_chunk
        if not self._parallel_disabled:
            # Cut a batch too small to feed every worker into finer
            # shards (chunking never changes a result).
            size = self._planner.cost_model.choose_shard_size(
                len(pending), self._n_labeled, self.workers, size)

        def shard(items: list) -> list[list]:
            return [items[lo:lo + size] for lo in range(0, len(items), size)]

        masked_shards = shard(route.masked)
        range_shards = shard(route.ranges)
        set_shards = shard(route.sets)
        conj_shards = shard(route.conjunctions)
        n_shards = (len(masked_shards) + len(range_shards)
                    + len(set_shards) + len(conj_shards))

        shard_values = None
        if not self._parallel_disabled and n_shards >= 2:
            shard_values = self._score_shards_parallel(
                masked_shards, range_shards, set_shards, conj_shards,
                ignore_holdouts)
        if shard_values is None:
            shard_values = (
                [self._score_masked_chunk(chunk, ignore_holdouts)
                 for chunk in masked_shards],
                [self._score_index_chunk(chunk, ignore_holdouts)
                 for chunk in range_shards],
                [self._score_set_chunk(chunk, ignore_holdouts)
                 for chunk in set_shards],
                [self._score_conj_chunk(chunk, ignore_holdouts)
                 for chunk in conj_shards],
            )
        masked_values, range_values, set_values, conj_values = shard_values

        def assign(predicate: Predicate, value: float) -> None:
            value = float(value)
            if cache is not None:
                cache[predicate] = value
            for i in pending[predicate]:
                out[i] = value

        for chunk, values in zip(masked_shards, masked_values):
            self.stats.mask_scores += len(chunk)
            self.stats.masked_predicates += len(chunk)
            for predicate, value in zip(chunk, values):
                assign(predicate, value)

        for tier_shards, tier_values, counter in (
                (range_shards, range_values, "indexed_ranges"),
                (set_shards, set_values, "indexed_sets"),
                (conj_shards, conj_values, "indexed_conjunctions")):
            for chunk, values in zip(tier_shards, tier_values):
                self.stats.indexed_predicates += len(chunk)
                setattr(self.stats, counter,
                        getattr(self.stats, counter) + len(chunk))
                for (predicate, _), value in zip(chunk, values):
                    assign(predicate, value)

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

    def prepare_parallel(self) -> bool:
        """Spin the worker pool (and the shared-memory problem image) up
        front instead of inside the first parallel batch.

        Round-based drivers (DT partitioning, NAIVE enumeration) call
        this once before their scoring rounds so pool spin-up is paid a
        single time per problem rather than showing up as latency on
        the first round.  Returns True when a pool is live, False on a
        serial scorer, an open recovery circuit, or a startup failure
        (which warns and counts against the restart budget; later
        batches retry through the normal self-healing path).
        """
        if self._parallel_disabled:
            return False
        if self._recovery is not None and not self._recovery.allow_parallel():
            return False
        try:
            self._ensure_executor()
        except Exception as exc:  # noqa: BLE001 - same policy as scoring
            self.close()
            REGISTRY.counter(
                "scorpion_pool_failures_total",
                "Worker-pool failures (start or batch)").inc()
            if self._recovery is not None:
                self._recovery.record_failure()
            warnings.warn(
                f"parallel pool unavailable ({exc}); batches will retry "
                "and fall back to serial as needed",
                RuntimeWarning, stacklevel=2)
            return False
        return True

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

    def _score_shards_parallel(self, masked_shards: list, range_shards: list,
                               set_shards: list, conj_shards: list,
                               ignore_holdouts: bool):
        """Run routed shards on the worker pool.

        Returns ``(masked_values, range_values, set_values,
        conj_values)`` aligned with the shard lists — bit-for-bit what
        the serial loops would compute — or None after disabling
        parallelism (any failure: the caller then takes the serial path,
        so scoring always completes).

        Failure policy (self-healing; see
        :class:`~repro.parallel.recovery.ParallelRecovery`): a pool
        failure releases the broken pool, backs off, restarts, and
        retries the whole batch up to ``SCORPION_SHARD_RETRIES`` times;
        exhausted retries or an exhausted restart budget degrade *this
        batch only* to serial (the circuit breaker re-probes parallel
        after its cooldown).  ``KeyboardInterrupt``/``SystemExit``
        propagate after the pool and segments are released.
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
        attempts = recovery.retries + 1
        for attempt in range(attempts):
            try:
                executor = self._ensure_executor()
                # Tasks are rebuilt per attempt: a pool restart gets a
                # fresh problem image, so index-view segment specs from
                # the dead pool would dangle.
                tasks, meta = self._build_shard_tasks(
                    executor, masked_shards, range_shards, set_shards,
                    conj_shards, ignore_holdouts)
                submit_s = time.perf_counter()
                results = executor.run(tasks)
            except BaseException as exc:  # noqa: BLE001 - availability
                # over purity: a broken pool must never break scoring,
                # only slow it down.  Release pool + segments first so
                # no path (interrupt included) leaks shared memory.
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
        per_task = []
        for task, (shard_values, worker_counters) in zip(tasks, results):
            self.stats.merge_worker_counters(worker_counters)
            per_task.append(shard_values)
            if tracer is not None:
                # Worker-side perf_counter() stamps ride back in the
                # counters dict (ignored by merge_worker_counters);
                # CLOCK_MONOTONIC is machine-wide, so t0 minus the
                # parent's submit stamp is the shard's real queue wait.
                t0 = worker_counters.get("shard_t0")
                t1 = worker_counters.get("shard_t1")
                if t0 is not None and t1 is not None:
                    tracer.add_span("shard", t0, t1, {
                        "kind": task[0], "items": len(task[1]),
                        "queue_wait_ms": round(
                            max(0.0, t0 - submit_s) * 1e3, 3)})
        self.stats.parallel_batches += 1
        self.stats.parallel_shards += len(tasks)
        values: tuple[list, list, list, list] = (
            [None] * len(masked_shards), [None] * len(range_shards),
            [None] * len(set_shards), [None] * len(conj_shards))
        for (tier, position), result in zip(meta, per_task):
            values[tier][position] = result
        return values

    def _build_shard_tasks(self, executor, masked_shards: list,
                           range_shards: list, set_shards: list,
                           conj_shards: list, ignore_holdouts: bool,
                           ) -> tuple[list[tuple], list[tuple]]:
        """Build the executor task list for one batch attempt, exporting
        any index attribute views the current pool has not seen.

        Returns ``(tasks, meta)`` where ``meta`` aligns task provenance
        with ``tasks``: (tier, chunk position).
        """
        tasks: list[tuple] = []
        meta: list[tuple[int, int]] = []

        # Shards carry the live (c, c_holdout, λ) — the pool baked
        # the spec's values in at startup, but a resident scorer may
        # have been rebound since (see InfluenceScorer.rebind).
        scalars = (self.c, self.c_holdout, self.lam)

        def add_task(tier: int, position: int, kind: str,
                     payload: list, specs: tuple) -> None:
            tasks.append((kind, payload, ignore_holdouts, specs, scalars))
            meta.append((tier, position))

        for ci, chunk in enumerate(masked_shards):
            add_task(0, ci, "masked", list(chunk), ())
        for ci, chunk in enumerate(range_shards):
            attrs = sorted({clause.attribute for _, clause in chunk})
            specs = tuple(self._index_attribute_spec(executor, attr,
                                                     "range")
                          for attr in attrs)
            add_task(1, ci, "indexed",
                     [clause for _, clause in chunk], specs)
        for ci, chunk in enumerate(set_shards):
            attrs = sorted({clause.attribute for _, clause in chunk})
            specs = tuple(self._index_attribute_spec(executor, attr,
                                                     "discrete")
                          for attr in attrs)
            add_task(2, ci, "indexed_set",
                     [clause for _, clause in chunk], specs)
        for ci, chunk in enumerate(conj_shards):
            # Ship the probe side's view; the other side only reads
            # raw arrays every worker already maps.
            probe_attrs = sorted({
                (("range" if isinstance(plan.probe, RangeClause)
                  else "discrete"), plan.probe.attribute)
                for _, plan in chunk})
            specs = tuple(self._index_attribute_spec(executor, attr, kind)
                          for kind, attr in probe_attrs)
            add_task(3, ci, "indexed_conj",
                     [plan for _, plan in chunk], specs)
        return tasks, meta

    def _ensure_executor(self):
        """Lazily build the kernel spec, place the problem's arrays in
        shared memory, and start the persistent worker pool.

        Every start stamps ``SCORPION_POOL_GENERATION`` with this
        scorer's pool-start ordinal so fault schedules (``~gN``) can
        target early generations only, and counts restarts (any start
        after the first) in ``scorpion_pool_restarts_total``.
        """
        if self._executor is None:
            from repro.faults.registry import GENERATION_ENV
            from repro.parallel import ShardedScoringExecutor, build_kernel_spec

            os.environ[GENERATION_ENV] = str(self._pool_starts)
            spec, segments = build_kernel_spec(self)
            executor = ShardedScoringExecutor(self.workers,
                                              task_timeout=self.task_timeout)
            executor.start(spec, segments)  # closes segments on failure
            if self._pool_starts:
                REGISTRY.counter(
                    "scorpion_pool_restarts_total",
                    "Worker-pool restarts after a failure").inc()
            self._pool_starts += 1
            self._executor = executor
            self._finalizer = weakref.finalize(self, executor.close)
        return self._executor

    def _index_attribute_spec(self, executor, attribute: str, kind: str):
        """The shared-memory spec of one built index attribute view
        (``kind`` is ``"range"`` or ``"discrete"``), building (in the
        parent, so ``index_builds`` counts exactly as serial routing
        would) and exporting it on first use."""
        spec = self._index_attr_specs.get((kind, attribute))
        if spec is None:
            from repro.parallel import (
                export_discrete_index_attribute,
                export_index_attribute,
            )

            assert self._index is not None
            if kind == "range":
                self._index.ensure(attribute)
                self._sync_index_stats()
                shm, spec = export_index_attribute(self._index, attribute)
            else:
                self._index.ensure_discrete(attribute)
                self._sync_index_stats()
                shm, spec = export_discrete_index_attribute(
                    self._index, attribute)
            executor.register_segment(shm)
            self._index_attr_specs[(kind, attribute)] = spec
        return spec

    def close(self) -> None:
        """Release the worker pool and its shared-memory segments.

        No-op for serial scorers; idempotent.  The scorer stays fully
        usable afterwards — a later parallel batch simply restarts the
        pool.
        """
        executor, self._executor = self._executor, None
        self._index_attr_specs = {}
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if executor is not None:
            executor.close()

    def _score_masked_chunk(self, chunk: Sequence[Predicate],
                            ignore_holdouts: bool) -> np.ndarray:
        """One mask-path shard, end to end: evaluate the chunk's mask
        matrix and score it.  The single definition of the masked-shard
        body — the serial loop and the worker processes both call this,
        so the parallel path can never drift from the serial one."""
        matrix = self._labeled_evaluator.evaluate_batch(chunk)
        if ignore_holdouts and self.holdout_contexts:
            # Hold-out contexts are skipped entirely downstream; dropping
            # their columns up front keeps the scatter-add kernel from
            # scanning and bucketing their set bits.
            matrix = matrix[:, :self._outlier_cols]
        return self._score_mask_matrix(matrix, ignore_holdouts)

    def _score_clause_shard(self, clauses: Sequence[RangeClause],
                            ignore_holdouts: bool) -> np.ndarray:
        """One index-path shard shipped as bare range clauses — the
        worker-side entry (predicates stay in the parent; the index
        kernel only reads the clauses)."""
        return self._score_index_chunk([(None, clause) for clause in clauses],
                                       ignore_holdouts)

    def _score_set_clause_shard(self, clauses: Sequence,
                                ignore_holdouts: bool) -> np.ndarray:
        """One discrete-bucket shard shipped as bare set clauses — the
        worker-side entry for the set tier."""
        return self._score_set_chunk([(None, clause) for clause in clauses],
                                     ignore_holdouts)

    def _score_conjunction_shard(self, plans: Sequence,
                                 ignore_holdouts: bool) -> np.ndarray:
        """One conjunction shard shipped as bare
        :class:`~repro.index.ConjunctionPlan` objects — the worker-side
        entry for the conjunction tier (the parent plans probe sides;
        workers only execute)."""
        return self._score_conj_chunk([(None, plan) for plan in plans],
                                      ignore_holdouts)

    def _score_mask_matrix(self, matrix: np.ndarray,
                           ignore_holdouts: bool) -> np.ndarray:
        """The metric for every row of an ``(m, n_labeled)`` mask matrix.

        Vector counterpart of :meth:`_score_local`.  One row-major scan
        of the matrix produces, via composite ``(predicate, context)``
        bincount keys, every predicate's per-context matched count and
        summed removed state; per-context influences are then accumulated
        in the same context order with the same elementwise arithmetic as
        the scalar path, so each row matches the scalar result.

        The scatter-add kernel is O(set bits) rather than the dense
        O(m·n) of a matrix product, and — because ``np.flatnonzero`` is
        row-major and ``bincount`` accumulates in input order — each
        predicate's states are summed in ascending row order,
        bit-identical to the scalar path's masked sum.  (BLAS ``matmul``
        is deliberately avoided: its blocked reductions are not
        row-deterministic.)  The per-set-bit arrays dominate an
        explain's peak memory, so keys are built in place and states
        are gathered one column at a time."""
        m = matrix.shape[0]
        n_ctx = len(self._labeled_slices)
        keys, labeled_cols = np.divmod(np.flatnonzero(matrix), matrix.shape[1])
        keys *= n_ctx
        keys += self._context_ids[labeled_cols]
        counts = np.bincount(keys, minlength=m * n_ctx).reshape(m, n_ctx)
        removed = None
        if self._incremental and self._stacked_states is not None and len(keys):
            states = self._stacked_states
            removed = np.empty((m * n_ctx, states.shape[1]), dtype=np.float64)
            for j in range(states.shape[1]):
                removed[:, j] = np.bincount(
                    keys, weights=states[labeled_cols, j], minlength=m * n_ctx)
            removed = removed.reshape(m, n_ctx, -1)
        return self._combine_group_influences(counts, removed, matrix,
                                              ignore_holdouts)

    def _score_index_chunk(self, items: list[tuple[Predicate, RangeClause]],
                           ignore_holdouts: bool) -> np.ndarray:
        """The metric for a chunk of single-range predicates through the
        prefix-aggregate index — no mask matrix is materialized.

        Per constrained attribute, every predicate's per-group matched
        count and summed removed state come from two binary searches
        plus a prefix-sum difference (or an ascending-row gather of the
        matched slice; see :mod:`repro.index.prefix`), feeding the same
        influence arithmetic as the mask kernel.
        """
        assert self._index is not None and self._incremental
        m = len(items)
        n_ctx = len(self._labeled_slices)
        active = self._count_active_contexts(ignore_holdouts)
        counts = np.zeros((m, n_ctx), dtype=np.int64)
        removed = np.zeros((m, n_ctx, self._index.state_size),
                           dtype=np.float64)
        by_attr: dict[str, list[int]] = {}
        for j, (_, clause) in enumerate(items):
            by_attr.setdefault(clause.attribute, []).append(j)
        for attribute, positions in by_attr.items():
            clauses = [items[j][1] for j in positions]
            attr_counts, attr_removed = self._index.range_group_stats(
                attribute,
                np.asarray([clause.lo for clause in clauses], dtype=np.float64),
                np.asarray([clause.hi for clause in clauses], dtype=np.float64),
                np.asarray([clause.include_hi for clause in clauses], dtype=bool),
                active_groups=active,
            )
            counts[positions] = attr_counts
            removed[positions] = attr_removed
        self._sync_index_stats()
        return self._combine_group_influences(counts, removed, None,
                                              ignore_holdouts)

    def _score_set_chunk(self, items: list, ignore_holdouts: bool,
                         ) -> np.ndarray:
        """The metric for a chunk of single-set-clause predicates
        through the discrete code-bucket tier — no mask matrix is
        materialized.

        Per constrained attribute, every predicate's per-group matched
        count and summed removed state come from its wanted codes'
        buckets — exact per-bucket sums, or an ascending-row gather of
        just the bucketed rows (see :mod:`repro.index.discrete`) —
        feeding the same influence arithmetic as the mask kernel.
        """
        assert self._index is not None and self._incremental
        m = len(items)
        n_ctx = len(self._labeled_slices)
        active = self._count_active_contexts(ignore_holdouts)
        counts = np.zeros((m, n_ctx), dtype=np.int64)
        removed = np.zeros((m, n_ctx, self._index.state_size),
                           dtype=np.float64)
        by_attr: dict[str, list[int]] = {}
        for j, (_, clause) in enumerate(items):
            by_attr.setdefault(clause.attribute, []).append(j)
        for attribute, positions in by_attr.items():
            wanted_lists = [
                self._index.translate(attribute, items[j][1].values)
                for j in positions
            ]
            attr_counts, attr_removed = self._index.set_group_stats(
                attribute, wanted_lists, active_groups=active)
            counts[positions] = attr_counts
            removed[positions] = attr_removed
        self._sync_index_stats()
        return self._combine_group_influences(counts, removed, None,
                                              ignore_holdouts)

    def _score_conj_chunk(self, items: list, ignore_holdouts: bool,
                          ) -> np.ndarray:
        """The metric for a chunk of planned 2-clause conjunctions: the
        probe clause's index view supplies k candidate rows per group,
        the other clause mask-tests only those rows (see
        :meth:`~repro.index.PrefixAggregateIndex.conjunction_group_stats`).
        """
        assert self._index is not None and self._incremental
        active = self._count_active_contexts(ignore_holdouts)
        counts, removed = self._index.conjunction_group_stats(
            [(plan.probe, plan.other) for _, plan in items],
            active_groups=active)
        self._sync_index_stats()
        return self._combine_group_influences(counts, removed, None,
                                              ignore_holdouts)

    def _count_active_contexts(self, ignore_holdouts: bool) -> int:
        """How many leading contexts scoring will actually read (outlier
        contexts come first in the labeled concatenation)."""
        if ignore_holdouts:
            return len(self.outlier_contexts)
        return len(self._labeled_slices)

    def _combine_group_influences(self, counts: np.ndarray,
                                  removed: np.ndarray | None,
                                  matrix: np.ndarray | None,
                                  ignore_holdouts: bool) -> np.ndarray:
        """Fold per-(predicate, context) matched counts and removed
        states into final metric values — the shared back half of the
        mask-matrix and index kernels.  ``matrix`` supplies per-context
        mask slices for black-box Δ recomputes (mask kernel only; the
        index path is incremental by construction)."""
        m = len(counts)
        outlier_total = np.zeros(m, dtype=np.float64)
        worst = np.zeros(m, dtype=np.float64)
        invalid = np.zeros(m, dtype=bool)
        for ci, (context, start, stop) in enumerate(self._labeled_slices):
            if not context.is_outlier and ignore_holdouts:
                continue
            influences = self._group_influence_batch(
                context, counts[:, ci],
                removed[:, ci, :] if removed is not None else None,
                matrix[:, start:stop] if matrix is not None else None)
            invalid |= influences == INVALID_INFLUENCE
            if context.is_outlier:
                outlier_total = outlier_total + influences
            else:
                worst = np.maximum(worst, np.abs(influences))
        scores = self.lam * outlier_total / max(len(self.outlier_contexts), 1)
        if not ignore_holdouts and self.holdout_contexts:
            scores = scores - (1.0 - self.lam) * worst
        scores[invalid] = INVALID_INFLUENCE
        return scores

    def _group_influence_batch(self, context: GroupContext, counts: np.ndarray,
                               removed_states: np.ndarray | None,
                               local_matrix: np.ndarray | None) -> np.ndarray:
        """Per-predicate influence on one group given the group's matched
        counts and (on the incremental path) summed removed states.
        Mirrors :meth:`group_influence` row-wise; black-box aggregates
        recompute per predicate from the group's mask-matrix slice
        (``local_matrix`` is None on the mask-free index path, which the
        planner restricts to incremental aggregates)."""
        influences = np.zeros(len(counts), dtype=np.float64)
        matched = np.flatnonzero(counts)
        if not len(matched):
            return influences
        counts_f = counts[matched].astype(np.float64)
        if self._incremental:
            assert removed_states is not None
            self.stats.incremental_deltas += len(matched)
            updated = self._updated_from_removed_batch(
                context.total_state, removed_states[matched], counts_f,
                context.mean_state)
            deltas = context.total_value - updated
        else:
            assert local_matrix is not None
            deltas = np.empty(len(matched), dtype=np.float64)
            for j, i in enumerate(matched):
                deltas[j] = self.delta(context, local_matrix[i])
        exponent = self.c if context.is_outlier else self.c_holdout
        with np.errstate(invalid="ignore"):
            values = deltas / _scalar_pow(counts_f, exponent)
        if context.is_outlier:
            values = values * context.error_vector
        influences[matched] = np.where(np.isnan(deltas), INVALID_INFLUENCE, values)
        return influences

    def _updated_from_removed_batch(self, total_states: np.ndarray,
                                    removed_states: np.ndarray,
                                    removed_counts: np.ndarray,
                                    mean_states: np.ndarray | None,
                                    ) -> np.ndarray:
        """The delete/mean perturbation rules, row-wise: each row's
        post-removal aggregate, NaN where the perturbation leaves it
        undefined.

        ``removed_states`` is ``(m, k)`` and ``removed_counts`` ``(m,)``.
        ``total_states`` and ``mean_states`` (the state of one
        mean-valued tuple, read by the ``mean`` perturbation only) are
        either one group's ``(k,)`` state — the scoring kernel, one group
        and many predicates — or ``(m, k)`` stacks of per-row group
        states — the Merger's estimate, many (merge, group) pairs.  The
        arithmetic is elementwise, so a row's value does not depend on
        the other rows."""
        if self.perturbation == "mean":
            assert mean_states is not None
            adjusted = (total_states - removed_states
                        + removed_counts[:, np.newaxis] * mean_states)
            return self.aggregate.recover_batch(adjusted)
        remaining = total_states - removed_states
        updated = self.aggregate.recover_batch(remaining)
        emptied = remaining[:, -1] < 0.5  # deleted whole groups
        if np.any(emptied):
            empty = self.aggregate.empty_value
            updated[emptied] = np.nan if empty is None else float(empty)
        return updated

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
        for (context, _, _), local in zip(self._labeled_slices, masks):
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
        bound; at ``c < 1`` the paper's bound is not sound and would
        over-prune (DESIGN.md §4 item 6).
        """
        masks = self._labeled_masks(predicate)
        total = 0.0
        any_rows = False
        for (context, _, _), local in zip(self._labeled_slices, masks):
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
