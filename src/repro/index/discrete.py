"""Discrete code-bucket indexes: per-(group, attribute) rows grouped by
factorized code with per-bucket aggregate state, so a set clause
``attr IN {...}`` is answered by O(|codes|) bucket lookups instead of an
O(n) mask row.

For every (group, discrete attribute) pair the index stable-sorts the
group's rows by the attribute's integer code once (the same factorized
codes the labeled :class:`~repro.predicates.evaluator.ArrayMaskEvaluator`
compares against, so bucket membership equals mask membership).  The
rows matching a set clause are then exactly the union of the wanted
codes' contiguous buckets in that order, which yields the matched count
as a sum of bucket lengths and the summed removed state through one of
two tiers:

**Bucket tier (O(|wanted codes|) per predicate).**  When every state
column of the group is *exactly summable* (see
:func:`repro.index.prefix.exactly_summable`), each bucket's summed state
is an exact integer, and so is any sum of bucket sums — every partial
sum stays below the 2**52 budget, hence exactly representable and
independent of summation order.  Summing the wanted buckets' precomputed
states therefore reproduces the scalar path's masked in-order sum bit
for bit.

**Gather tier (O(|wanted codes| + k) per predicate).**  For general
float states the wanted buckets' row positions are gathered, re-sorted
into ascending row order, and scatter-added with the same in-input-order
``np.bincount`` kernel the batched mask path uses — same rows, same
ascending-row accumulation order, same elementwise adds — while touching
only the ``k`` matched rows.

See :mod:`repro.index.planner` for how set clauses are routed here.
"""

from __future__ import annotations

import numpy as np


class GroupDiscreteIndex:
    """One group's rows bucketed by one discrete attribute's codes.

    ``order`` maps bucket positions to the group's local row positions
    (rows stable-sorted by code); ``offsets`` is the ``(n_codes + 1,)``
    bucket boundary array — code ``c``'s rows sit at
    ``order[offsets[c]:offsets[c + 1]]``; ``bucket_states`` holds the
    ``(n_codes, state_size)`` exact per-bucket summed states when the
    group is on the bucket tier, else None (gather tier).
    """

    __slots__ = ("order", "offsets", "bucket_states")

    def __init__(self, codes: np.ndarray, n_codes: int,
                 tuple_states: np.ndarray | None, exact: bool):
        order = np.argsort(codes, kind="stable").astype(np.int64, copy=False)
        self.order = order
        sorted_codes = codes[order]
        self.offsets = np.searchsorted(
            sorted_codes, np.arange(n_codes + 1, dtype=np.int64),
        ).astype(np.int64, copy=False)
        self.bucket_states: np.ndarray | None = None
        if exact and tuple_states is not None:
            # Per-bucket exact sums via prefix differences along the
            # code-sorted order (exact by the integer-summability
            # argument in the module docstring).
            prefix = np.zeros((len(codes) + 1, tuple_states.shape[1]),
                              dtype=np.float64)
            np.cumsum(tuple_states[order], axis=0, out=prefix[1:])
            self.bucket_states = prefix[self.offsets[1:]] - prefix[self.offsets[:-1]]

    @property
    def n_codes(self) -> int:
        return len(self.offsets) - 1

    def resident_bytes(self) -> int:
        """Bytes of view data this group's bucket index holds (the
        permutation, bucket offsets, and exact bucket sums when on the
        bucket tier)."""
        total = self.order.nbytes + self.offsets.nbytes
        if self.bucket_states is not None:
            total += self.bucket_states.nbytes
        return int(total)

    @property
    def uses_buckets(self) -> bool:
        """Whether removed states come from O(1) exact bucket sums."""
        return self.bucket_states is not None

    @property
    def bucket_counts(self) -> np.ndarray:
        """Rows per code bucket, ``(n_codes,)``."""
        return np.diff(self.offsets)

    def rows_for_codes(self, wanted: np.ndarray) -> np.ndarray:
        """Local row positions matching any wanted code (bucket order,
        not row order — callers that need ascending rows must sort)."""
        if not len(wanted):
            return np.empty(0, dtype=np.int64)
        return np.concatenate([
            self.order[self.offsets[c]:self.offsets[c + 1]] for c in wanted
        ])
