"""The batch-scoring kernel of the Scorer (Figure 2, Section 5.1).

:class:`BatchKernel` owns the mask-matrix kernel behind
:meth:`~repro.core.influence.InfluenceScorer.score_batch` — build a
chunk's mask matrix, count its set bits per (predicate, group) and sum
their per-tuple states into removed states — with its back half (the
per-group influence arithmetic and the delete/mean perturbation rules)
and every array it reads: the group contexts in labeled order
(outliers first) with their column spans, the per-tuple aggregate
states as one contiguous column per component and the labeled
evaluator.

On the incremental path the back half is one fold,
:meth:`BatchKernel.fold`: it turns all matched (predicate, group) pairs
into metric values in one elementwise pass, with no loop over groups.
The Merger's cached-state estimate (:mod:`repro.core.merger`) calls the
same fold on its volume-weighted counts and states, and the facade's
explanations take every group's updated output from the same matched
counts and removed states (:meth:`BatchKernel.updated_values`).
Black-box aggregates recompute Δ per matched predicate from the raw
values, group by group.

The search scalars ``c``, ``c_holdout`` and ``λ`` are call arguments,
not kernel state, so a kernel depends only on the table, the query,
the annotations and the perturbation mode, and its arrays are never
written after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.aggregates.base import AggregateFunction
from repro.errors import AggregateError
from repro.predicates.evaluator import ArrayMaskEvaluator
from repro.predicates.predicate import Predicate

if TYPE_CHECKING:
    from repro.core.influence import ScorerStats

INVALID_INFLUENCE = float("-inf")


def _scalar_pow(bases: np.ndarray, exponent: float) -> np.ndarray:
    """``bases ** exponent`` through *scalar* libm pow.

    NumPy's vectorized ``**`` routes through a SIMD pow whose results can
    differ from scalar ``pow`` in the last ulp, which would break the
    bit-for-bit scalar/batch equivalence contract.  Matched-row counts
    repeat heavily, so one scalar pow per unique count is also cheap.
    The uniques come from a sort and each base finds its own by
    ``searchsorted``: ``np.unique``'s ``return_inverse`` argsort is
    several times slower, and without it ``np.unique`` fills a hash
    table outside NumPy's allocator (about 1 MiB more peak RSS on the
    ``synth-dt`` benchmark workload)."""
    if exponent == 1.0:
        return bases
    if exponent == 0.0:
        return np.ones_like(bases)
    ordered = np.sort(bases)
    uniques = np.concatenate((ordered[:1],
                              ordered[1:][ordered[1:] != ordered[:-1]]))
    table = np.asarray([value ** exponent for value in uniques.tolist()],
                       dtype=np.float64)
    return table[np.searchsorted(uniques, bases)]


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


class BatchKernel:
    """The mask-matrix kernel plus the arrays it reads.

    Parameters
    ----------
    contexts:
        The labeled groups in labeled-row order, outlier groups first.
    evaluator:
        The :class:`~repro.predicates.evaluator.ArrayMaskEvaluator` over
        the concatenated labeled rows.
    aggregate / perturbation:
        The problem's aggregate and perturbation mode.
    incremental:
        Whether Δ comes from cached states (the incrementally-removable
        path) rather than black-box recomputes.
    stats:
        The owning scorer's :class:`~repro.core.influence.ScorerStats`;
        the kernel counts ``incremental_deltas`` / ``full_recomputes``
        into it.
    """

    def __init__(self, contexts: Sequence[GroupContext],
                 evaluator: ArrayMaskEvaluator,
                 aggregate: AggregateFunction, perturbation: str,
                 incremental: bool, stats: "ScorerStats"):
        self.contexts = list(contexts)
        self.evaluator = evaluator
        self.aggregate = aggregate
        self.perturbation = perturbation
        self.incremental = incremental
        self.stats = stats
        #: ``(context, start, stop)``: each group's column span in the
        #: labeled concatenation.
        self.slices: list[tuple[GroupContext, int, int]] = []
        offset = 0
        for context in self.contexts:
            self.slices.append((context, offset, offset + context.size))
            offset += context.size
        self.n_outliers = sum(ctx.is_outlier for ctx in self.contexts)
        # ``np.add.reduceat`` returns the next column's value, not 0, for
        # an empty segment; group-by groups always hold a row.
        assert all(ctx.size for ctx in self.contexts), "empty group context"
        #: Each context's first column: the segment starts of the
        #: per-(predicate, group) count reduction.
        self._starts = np.asarray([start for _, start, _ in self.slices],
                                  dtype=np.intp)
        #: Columns [0, _outlier_cols) are exactly the outlier rows.
        self._outlier_cols = sum(ctx.size for ctx in self.contexts
                                 if ctx.is_outlier)
        stacked = (np.vstack([ctx.tuple_states for ctx in self.contexts])
                   if incremental and offset else None)
        #: The per-tuple states as one contiguous row per state
        #: component, in labeled-row order: the kernel's weight gathers.
        self._state_columns = (None if stacked is None
                               else np.ascontiguousarray(stacked.T))
        #: Whether every tuple's last (count) state component is exactly
        #: 1.0.  A removed count is then the matched count itself, which
        #: ``bincount`` over those 1.0s would reproduce exactly.
        self._unit_counts = bool(stacked is not None
                                 and np.all(stacked[:, -1] == 1.0))
        # What the fold reads per context, stacked in context order.
        self._total_values = np.asarray(
            [ctx.total_value for ctx in self.contexts], dtype=np.float64)
        self._error_vectors = np.asarray(
            [ctx.error_vector for ctx in self.contexts], dtype=np.float64)
        self._total_states = (
            np.stack([ctx.total_state for ctx in self.contexts])
            if incremental and self.contexts else None)
        self._mean_states = (
            np.stack([ctx.mean_state for ctx in self.contexts])
            if self._total_states is not None and perturbation == "mean"
            else None)

    @property
    def has_holdouts(self) -> bool:
        return len(self.contexts) > self.n_outliers

    def active_contexts(self, ignore_holdouts: bool) -> int:
        """How many leading contexts scoring reads (outlier contexts
        come first in the labeled concatenation)."""
        return self.n_outliers if ignore_holdouts else len(self.slices)

    def resident_bytes(self) -> int:
        """Bytes of numpy array data held: per-context indices,
        aggregate values and states, the state columns and the
        evaluator's comparison arrays."""
        total = 0
        for context in self.contexts:
            total += context.indices.nbytes + context.agg_values.nbytes
            if context.tuple_states is not None:
                total += context.tuple_states.nbytes
            if context.total_state is not None:
                total += context.total_state.nbytes
        if self._state_columns is not None:
            total += self._state_columns.nbytes
        total += self.evaluator.resident_bytes()
        return int(total)

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
        kernels and the Merger's estimate apply the same rules row-wise
        through :meth:`updated_from_removed_batch`.
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
        if self.incremental:
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

    # ------------------------------------------------------------------
    # The mask-matrix kernel
    # ------------------------------------------------------------------
    def score_masked_chunk(self, predicates: Sequence[Predicate],
                           ignore_holdouts: bool, c: float,
                           c_holdout: float, lam: float) -> np.ndarray:
        """Score one chunk of predicates through its mask matrix — the
        entry point of ``score_batch``'s chunk loop."""
        matrix = self.evaluator.evaluate_batch(predicates)
        if ignore_holdouts and self.has_holdouts:
            # Hold-out contexts are skipped entirely downstream; dropping
            # their columns up front keeps the kernel from counting and
            # summing their set bits.
            matrix = matrix[:, :self._outlier_cols]
        return self._score_mask_matrix(matrix, ignore_holdouts,
                                       c, c_holdout, lam)

    def _score_mask_matrix(self, matrix: np.ndarray, ignore_holdouts: bool,
                           c: float, c_holdout: float,
                           lam: float) -> np.ndarray:
        """The metric for every row of an ``(m, n)`` mask matrix whose
        columns are the labeled rows of the contexts scoring reads:
        :meth:`_removed`'s matched counts and removed states, then
        :meth:`fold` (or, for black-box aggregates,
        :meth:`_recompute_influences`), which applies the scalar path's
        elementwise arithmetic in its group order."""
        counts, removed = self._removed(
            matrix, self.active_contexts(ignore_holdouts))
        if not self.incremental:
            return self._recompute_influences(counts, matrix, ignore_holdouts,
                                              c, c_holdout, lam)
        return self.fold(counts, removed, ignore_holdouts, c, c_holdout, lam)

    def _removed(self, matrix: np.ndarray, n_ctx: int,
                 ) -> tuple[np.ndarray, np.ndarray | None]:
        """Every (row, group) pair's matched count ``(m, n_ctx)`` and, on
        the incremental path, removed state ``(m, n_ctx, k)``, for an
        ``(m, n)`` mask matrix over the labeled rows of the first
        ``n_ctx`` contexts.  The vector counterpart of the scalar path's
        ``count_nonzero`` and masked sum, in two steps:

        * one ``np.add.reduceat`` over the matrix's ``uint8`` view at
          the group starts gives every (row, group) matched count,
          exactly (integers; ``reduceat`` sums float segments pairwise,
          so it is used for counts only);
        * on the incremental path, one weighted ``np.bincount`` per
          state component sums each pair's removed state.  Its keys are
          the pair ids ``np.repeat``-ed by the counts; its weights are
          the component's contiguous column gathered at the set bits'
          columns, which ``np.flatnonzero``'s flat indices become in
          place.  When every tuple's count component is exactly 1.0
          (:attr:`_unit_counts`), the count column is filled from the
          counts instead: a ``bincount`` over 1.0s would give the same.

        ``np.flatnonzero`` is row-major and a row's groups are
        contiguous column spans in context order, so the repeated keys
        line up with the set bits and ``bincount`` adds each pair's
        states in ascending row order: bit-identical to the scalar
        path's masked sum.  (BLAS ``matmul`` is deliberately avoided:
        its blocked reductions are not row-deterministic.)  The
        per-set-bit arrays dominate an explain's peak memory, so at
        most three are alive at once: the columns, the keys and one
        gathered component.  The keys are built after the first gather
        and the columns dropped after the last, so a single weighted
        component (SUM, AVG) needs only two at a time.  The removed
        states are None for black-box aggregates and for a matrix that
        matches no rows (no pair is matched, so nothing reads them)."""
        m, n_cols = matrix.shape
        # A group holds fewer than 2**31 rows, and an int32 accumulator
        # is several times faster here than an int64 one.
        counts = np.add.reduceat(matrix.view(np.uint8), self._starts[:n_ctx],
                                 axis=1, dtype=np.int32).astype(np.int64)
        removed = None
        if self._state_columns is not None and counts.any():
            n_states = len(self._state_columns)
            weighted = n_states - 1 if self._unit_counts else n_states
            removed = np.empty((m * n_ctx, n_states), dtype=np.float64)
            if weighted:
                columns = np.flatnonzero(matrix)
                columns -= np.repeat(np.arange(0, m * n_cols, n_cols),
                                     counts.sum(axis=1))
                for j in range(weighted):
                    weights = self._state_columns[j][columns]
                    if j == weighted - 1:
                        del columns  # after the last gather
                    if j == 0:  # after the first gather
                        keys = np.repeat(np.arange(m * n_ctx), counts.ravel())
                    removed[:, j] = np.bincount(keys, weights=weights,
                                                minlength=m * n_ctx)
                    del weights
            if self._unit_counts:
                removed[:, -1] = counts.ravel()
            removed = removed.reshape(m, n_ctx, n_states)
        return counts, removed

    def updated_values(self, matrix: np.ndarray) -> np.ndarray:
        """Every labeled group's aggregate value after each row of an
        ``(m, n)`` mask matrix over all the labeled rows acts on it, as
        an ``(m, groups)`` array in context order: the "updated output"
        of Section 4.1, for every explanation at once.

        Equal bit for bit to the scalar path per (row, group): Δ from
        :meth:`delta` (0.0 for no matched row), then ``total − Δ``, NaN
        where Δ is not finite.  On the incremental path Δ comes from
        :meth:`_removed` and :meth:`_matched_deltas`, the steps scoring
        runs before :meth:`fold`; a black-box aggregate calls
        :meth:`delta` on the matrix's slices.  Each Δ computed counts as one of
        ``incremental_deltas`` or ``full_recomputes``, as in the scalar
        path."""
        if not self.incremental:
            deltas = np.asarray(
                [[self.delta(context, row[start:stop])
                  for context, start, stop in self.slices] for row in matrix],
                dtype=np.float64)
        else:
            counts, removed = self._removed(matrix, len(self.slices))
            rows, groups, _, matched = self._matched_deltas(
                counts, removed, len(self.slices))
            self.stats.incremental_deltas += len(rows)
            deltas = np.zeros(counts.shape, dtype=np.float64)
            deltas[rows, groups] = matched
        with np.errstate(invalid="ignore"):
            return np.where(np.isfinite(deltas),
                            self._total_values - deltas, np.nan)

    # ------------------------------------------------------------------
    # The back half
    # ------------------------------------------------------------------
    def fold(self, counts: np.ndarray, removed: np.ndarray | None,
             ignore_holdouts: bool, c: float, c_holdout: float, lam: float,
             count_deltas: bool = True) -> np.ndarray:
        """Fold per-(predicate, group) matched counts and removed states
        into final metric values: the incremental back half of the mask
        kernel and of the Merger's cached-state estimate.

        ``counts`` is ``(m, n)`` and ``removed`` ``(m, n, k)`` over the
        first n contexts, at least those read (the outlier contexts
        when ``ignore_holdouts``, else all).  A (predicate, group) pair
        is matched when its count is at least 0.5: any matched row for
        the kernel's whole-row counts, half a row for the estimate's
        volume-weighted ones.  All matched pairs go through one
        elementwise pass — Δ from :meth:`updated_from_removed_batch`,
        divided by ``count ** c`` (``c_holdout`` for hold-outs) through
        scalar pow, times the group's error vector — so a pair's value
        does not depend on which other pairs share the pass.  Outlier
        groups are summed left to right by a ``cumsum``, the order of a
        running total started at 0.0; ``+ 0.0`` turns an all-(-0.0) row
        into +0.0, as that running total would.  Hold-outs contribute
        the max of |influence|.  A row is :data:`INVALID_INFLUENCE` when
        any matched pair's Δ is NaN or its influence is -inf, the scalar
        path's rule.

        Each matched pair counts as one of ``incremental_deltas`` unless
        ``count_deltas`` is off: the Merger's cached-state estimate
        (Section 6.3) folds through here too, but is not a score.
        """
        m = len(counts)
        n_read = self.active_contexts(ignore_holdouts)
        rows, groups, removed_counts, deltas = self._matched_deltas(
            counts, removed, n_read)
        if count_deltas:
            self.stats.incremental_deltas += len(rows)
        outlier = groups < self.n_outliers
        hold = ~outlier
        denominators = np.empty(len(rows), dtype=np.float64)
        denominators[outlier] = _scalar_pow(removed_counts[outlier], c)
        denominators[hold] = _scalar_pow(removed_counts[hold], c_holdout)
        with np.errstate(invalid="ignore"):
            values = deltas / denominators * self._error_vectors[groups]
        bad = np.isnan(deltas) | (values == INVALID_INFLUENCE)

        terms = np.zeros((m, self.n_outliers), dtype=np.float64)
        terms[rows[outlier], groups[outlier]] = values[outlier]
        totals = (np.cumsum(terms, axis=1)[:, -1] + 0.0 if self.n_outliers
                  else np.zeros(m, dtype=np.float64))
        scores = lam * totals / max(self.n_outliers, 1)
        if n_read > self.n_outliers:
            spread = np.zeros((m, n_read - self.n_outliers), dtype=np.float64)
            spread[rows[hold], groups[hold] - self.n_outliers] = np.abs(
                values[hold])
            scores = scores - (1.0 - lam) * spread.max(axis=1)
        scores[rows[bad]] = INVALID_INFLUENCE
        return scores

    def _matched_deltas(self, counts: np.ndarray, removed: np.ndarray | None,
                        n_read: int) -> tuple[np.ndarray, ...]:
        """The matched (row, group) pairs among the first ``n_read``
        groups of ``(m, n)`` counts and ``(m, n, k)`` removed states —
        those with a count of at least 0.5 — as ``rows`` and ``groups``,
        with each pair's removed count and Δ: the group's total minus
        its value after the pair's removed state acts on it
        (:meth:`updated_from_removed_batch`), elementwise per pair."""
        rows, groups = np.nonzero(counts[:, :n_read] >= 0.5)
        # Gathers by flat pair index through ``np.take``: several times
        # faster than two-array fancy indexing, and the same values.
        pairs = rows * counts.shape[1] + groups
        removed_counts = np.take(counts, pairs).astype(np.float64)
        if not len(rows):
            return rows, groups, removed_counts, np.empty(0, dtype=np.float64)
        assert removed is not None and self._total_states is not None
        updated = self.updated_from_removed_batch(
            np.take(self._total_states, groups, axis=0),
            np.take(removed.reshape(-1, removed.shape[2]), pairs, axis=0),
            removed_counts,
            None if self._mean_states is None
            else np.take(self._mean_states, groups, axis=0))
        return rows, groups, removed_counts, self._total_values[groups] - updated

    def _recompute_influences(self, counts: np.ndarray, matrix: np.ndarray,
                              ignore_holdouts: bool, c: float,
                              c_holdout: float, lam: float) -> np.ndarray:
        """The black-box back half of the mask kernel: per context, Δ is
        recomputed from the raw values for every matched predicate
        (:meth:`delta`, reading the context's mask-matrix slice), then
        folded with the same arithmetic as :meth:`fold`."""
        m = len(counts)
        outlier_total = np.zeros(m, dtype=np.float64)
        worst = np.zeros(m, dtype=np.float64)
        invalid = np.zeros(m, dtype=bool)
        for ci, (context, start, stop) in enumerate(self.slices):
            if not context.is_outlier and ignore_holdouts:
                continue
            influences = np.zeros(m, dtype=np.float64)
            matched = np.flatnonzero(counts[:, ci])
            if len(matched):
                local = matrix[:, start:stop]
                deltas = np.asarray([self.delta(context, local[i])
                                     for i in matched], dtype=np.float64)
                exponent = c if context.is_outlier else c_holdout
                with np.errstate(invalid="ignore"):
                    values = deltas / _scalar_pow(
                        counts[matched, ci].astype(np.float64), exponent)
                if context.is_outlier:
                    values = values * context.error_vector
                influences[matched] = np.where(np.isnan(deltas),
                                               INVALID_INFLUENCE, values)
            invalid |= influences == INVALID_INFLUENCE
            if context.is_outlier:
                outlier_total = outlier_total + influences
            else:
                worst = np.maximum(worst, np.abs(influences))
        scores = lam * outlier_total / max(self.n_outliers, 1)
        if not ignore_holdouts and self.has_holdouts:
            scores = scores - (1.0 - lam) * worst
        scores[invalid] = INVALID_INFLUENCE
        return scores

    def updated_from_removed_batch(self, total_states: np.ndarray,
                                   removed_states: np.ndarray,
                                   removed_counts: np.ndarray,
                                   mean_states: np.ndarray | None,
                                   ) -> np.ndarray:
        """The delete/mean perturbation rules, row-wise: each row's
        post-removal aggregate, NaN where the perturbation leaves it
        undefined.

        ``removed_states`` is ``(m, k)`` and ``removed_counts`` ``(m,)``;
        ``total_states`` and ``mean_states`` (the state of one
        mean-valued tuple, read by the ``mean`` perturbation only) are
        ``(m, k)`` stacks of each row's group states, one row per
        (predicate, group) pair of :meth:`fold`.  The arithmetic is
        elementwise, so a row's value does not depend on the other
        rows."""
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
