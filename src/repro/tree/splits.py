"""Split primitives of the DT partitioner.

A :class:`Split` bisects a node by an (attribute, value) pair — the
paper's Section 6.1.1 "best (attribute, value) pair to bisect the node":

* continuous attribute, threshold ``v``: left is ``attr < v``, right is
  ``attr ≥ v`` (preserving the half-open ``[lo, hi)`` box discipline);
* discrete attribute, value ``v``: left is ``attr = v``, right is the
  node's remaining values (one-vs-rest bisection).

The node error metric is the standard deviation of the target values
(tuple influences, for DT); split quality is the size-weighted mean of
the child errors, to be minimized.  :func:`range_split_errors` scores
all thresholds of one segment; :func:`grouped_range_split_errors`
scores many segments at once, bit for bit the same, and is what DT
calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionerError
from repro.predicates.clause import Clause, RangeClause, SetClause


@dataclass(frozen=True)
class Split:
    """A bisection of a node along one attribute."""

    attribute: str
    #: "range" (continuous threshold) or "set" (one-vs-rest value).
    kind: str
    value: object

    def left_mask(self, values: np.ndarray) -> np.ndarray:
        """Mask of node rows falling in the left child, given the node's
        values of :attr:`attribute`."""
        if self.kind == "range":
            return np.asarray(values, dtype=np.float64) < float(self.value)  # type: ignore[arg-type]
        mask = np.empty(len(values), dtype=bool)
        for i, item in enumerate(values):
            mask[i] = item == self.value
        return mask

    def child_clauses(self, parent: Clause) -> tuple[Clause, Clause]:
        """Clauses describing the two children, refining the parent clause.

        Raises :class:`PartitionerError` when the split would produce an
        empty child clause (callers must pick splits strictly inside the
        parent's bounds / value set).
        """
        if self.kind == "range":
            if not isinstance(parent, RangeClause):
                raise PartitionerError(f"range split on non-range clause {parent!r}")
            threshold = float(self.value)  # type: ignore[arg-type]
            if not parent.lo < threshold < parent.hi:
                raise PartitionerError(
                    f"threshold {threshold} not inside ({parent.lo}, {parent.hi})"
                )
            left = RangeClause(self.attribute, parent.lo, threshold, include_hi=False)
            right = RangeClause(self.attribute, threshold, parent.hi, parent.include_hi)
            return left, right
        if not isinstance(parent, SetClause):
            raise PartitionerError(f"set split on non-set clause {parent!r}")
        if self.value not in parent.values:
            raise PartitionerError(f"value {self.value!r} not in {parent!r}")
        rest = parent.values - {self.value}
        if not rest:
            raise PartitionerError(f"one-vs-rest split needs >= 2 values in {parent!r}")
        return SetClause(self.attribute, [self.value]), SetClause(self.attribute, rest)

    def __str__(self) -> str:
        symbol = "<" if self.kind == "range" else "="
        return f"{self.attribute} {symbol} {self.value}"


def node_error(targets: np.ndarray) -> float:
    """Error metric of a node: standard deviation of its targets
    (0 for empty or single-row nodes)."""
    targets = np.asarray(targets, dtype=np.float64)
    finite = targets[np.isfinite(targets)]
    if len(finite) < 2:
        return 0.0
    return float(np.std(finite))


def split_error(targets: np.ndarray, left_mask: np.ndarray) -> float:
    """Size-weighted mean child error for a candidate bisection."""
    targets = np.asarray(targets, dtype=np.float64)
    left = targets[left_mask]
    right = targets[~left_mask]
    total = len(targets)
    if total == 0:
        return 0.0
    return (len(left) * node_error(left) + len(right) * node_error(right)) / total


def _segment_std(total: np.ndarray, total_sq: np.ndarray,
                 count: np.ndarray) -> np.ndarray:
    """Standard deviations of segments from their sums, sums of squares
    and sizes (0 below two rows)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = total / count
        variance = np.maximum(total_sq / count - mean * mean, 0.0)
        std = np.sqrt(variance)
    return np.where(count >= 2, std, 0.0)


def range_split_errors(values: np.ndarray, targets: np.ndarray,
                       thresholds: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Size-weighted child errors for *all* thresholds at once.

    Sorting once and using prefix sums of the targets makes evaluating
    ``k`` candidate thresholds O(n log n + k) instead of O(n·k).  This is
    the one-segment reference for :func:`grouped_range_split_errors`,
    which the DT partitioner calls instead.

    Returns ``(errors, n_left, n_right)`` arrays aligned with
    ``thresholds``; the left child is ``value < threshold``.
    """
    values = np.asarray(values, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    n = len(values)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    sorted_targets = targets[order]
    prefix = np.concatenate([[0.0], np.cumsum(sorted_targets)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(sorted_targets * sorted_targets)])
    n_left = np.searchsorted(sorted_values, thresholds, side="left")
    n_right = n - n_left
    left_std = _segment_std(prefix[n_left], prefix_sq[n_left], n_left)
    right_std = _segment_std(prefix[n] - prefix[n_left],
                             prefix_sq[n] - prefix_sq[n_left], n_right)
    if n == 0:
        errors = np.zeros(len(thresholds))
    else:
        errors = (n_left * left_std + n_right * right_std) / n
    return errors, n_left, n_right


def grouped_range_split_errors(values: np.ndarray, sorted_targets: np.ndarray,
                               sizes: np.ndarray, thresholds: np.ndarray,
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`range_split_errors` for every (row, group) segment at once.

    Row ``a`` of ``values`` (shape ``(A, S)``) holds ``G`` segments back
    to back, ``sizes[g] >= 1`` entries each, in any order within a
    segment.  ``sorted_targets`` has the same layout, but each segment
    lists its targets in ascending order of the segment's values, ties in
    their original order (the order a stable ``argsort`` gives).  Row
    ``a`` of ``thresholds`` (shape ``(A, K)``) is strictly ascending; pad
    a shorter row with ``inf`` and ignore its results at the pads.

    Returns ``(errors, n_left, n_right)`` of shape ``(A, G, K)``: entry
    ``[a, g]`` is bit-for-bit what :func:`range_split_errors` returns for
    segment ``g`` of row ``a`` and ``thresholds[a]``.  Prefix sums
    restart at each segment and add in sorted order, which keeps them
    exact; left counts come from a (segment, threshold-bucket) histogram.
    Memory is O(A·G·max(sizes)), which is O(A·S) for segments of similar
    size.
    """
    values = np.asarray(values, dtype=np.float64)
    sorted_targets = np.asarray(sorted_targets, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    n_rows, n_entries = values.shape
    n_groups, n_thresholds = len(sizes), thresholds.shape[1]
    starts = np.cumsum(sizes) - sizes
    segment = np.repeat(np.arange(n_groups), sizes)
    # A value is left of threshold k iff fewer than k + 1 thresholds are
    # <= it, so cumulating each segment's bucket histogram gives the
    # left counts.
    cells = segment * (n_thresholds + 1)
    n_left = np.empty((n_rows, n_groups, n_thresholds), dtype=np.int64)
    for row in range(n_rows):
        buckets = np.searchsorted(thresholds[row], values[row], side="right")
        histogram = np.bincount(buckets + cells,
                                minlength=n_groups * (n_thresholds + 1))
        n_left[row] = np.cumsum(histogram.reshape(n_groups, n_thresholds + 1),
                                axis=1)[:, :n_thresholds]
    n_right = sizes[:, None] - n_left
    # Prefix sums in a padded layout: segment g of a row owns slots
    # [g * width, (g + 1) * width), a leading zero and then its entries.
    # One buffer serves the sums, then the sums of squares.
    width = int(sizes.max(initial=0)) + 1
    slot = segment * width + np.arange(1, n_entries + 1) - starts[segment]
    first_slot = np.arange(n_rows * n_groups).reshape(n_rows, n_groups, 1) * width
    left_slots = first_slot + n_left
    end_slots = first_slot + sizes[:, None]
    prefix = np.empty((n_rows, n_groups * width))
    flat = prefix.reshape(-1)
    sums = []
    for squared in (False, True):
        prefix.fill(0.0)
        prefix[:, slot] = sorted_targets
        if squared:
            np.multiply(prefix, prefix, out=prefix)
        padded = prefix.reshape(n_rows * n_groups, width)
        np.cumsum(padded, axis=1, out=padded)
        sums.append((flat[end_slots], flat[left_slots]))
    del prefix, flat, padded
    (total, left), (total_sq, left_sq) = sums
    # Both children's deviations in one pass: [left, right].
    counts = np.stack([n_left, n_right])
    std = _segment_std(np.stack([left, total - left]),
                       np.stack([left_sq, total_sq - left_sq]), counts)
    errors = (n_left * std[0] + n_right * std[1]) / sizes[:, None]
    return errors, n_left, n_right
