"""Fast repeated predicate evaluation over a fixed row set.

The scorer and the partitioners evaluate thousands of predicates against
the *same* rows (the labeled rows of ``D``, or one input group).  For
discrete attributes, testing set-containment against raw object arrays
costs a Python-level comparison per row; factorizing each column into
integer codes once turns every later clause into a vectorized
``np.isin`` over ints.

:class:`ArrayMaskEvaluator` wraps a ``{attribute: values}`` mapping and
evaluates conjunctions against it.  Two entry points share the same
clause semantics:

* :meth:`ArrayMaskEvaluator.mask` — one predicate → one boolean row;
* :meth:`ArrayMaskEvaluator.evaluate_batch` — a predicate *set* → an
  ``(n_predicates, n_rows)`` boolean matrix, built attribute-by-attribute
  with one broadcast comparison (ranges) or code-lookup row (sets) per
  distinct clause, rather than a per-predicate Python loop.

The batch path is the foundation of the batched influence-scoring engine
(see :mod:`repro.core.influence`): each row of the matrix is exactly the
mask :meth:`mask` would return for that predicate, so scalar and batched
scoring see identical row sets.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import PredicateError
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate


def _factorize(values: np.ndarray) -> tuple[np.ndarray, dict]:
    """Integer codes plus a value → code table for a discrete column.

    Uses ``np.unique(return_inverse=True)`` (one vectorized pass) when the
    values are sortable; other object columns fall back to a
    first-appearance dict loop.  Only the *mapping* matters — callers
    translate clause values through the table and never compare codes
    across columns — so the two paths are interchangeable.
    """
    try:
        uniques, codes = np.unique(values, return_inverse=True)
    except TypeError:
        # Unorderable mixed types (e.g. ints and strings in one object
        # column).
        return _factorize_by_appearance(values)
    code_of = {value: code for code, value in enumerate(uniques.tolist())}
    if len(code_of) != len(uniques):
        # NaN objects among numbers: no order holds NaN, so the sort can
        # leave equal values apart, and ``!=`` splits a NaN object from
        # itself.  ``uniques`` then repeats a dict key, and the table
        # would miss codes the rows carry.
        return _factorize_by_appearance(values)
    return codes.astype(np.int64, copy=False).ravel(), code_of


def _factorize_by_appearance(values: np.ndarray) -> tuple[np.ndarray, dict]:
    """Codes in order of first appearance: two rows share a code exactly
    when their values are the same ``dict`` key."""
    code_of: dict = {}
    codes = np.empty(len(values), dtype=np.int64)
    for i, item in enumerate(values):
        code = code_of.get(item)
        if code is None:
            code = len(code_of)
            code_of[item] = code
        codes[i] = code
    return codes, code_of


class ArrayMaskEvaluator:
    """Evaluates predicates over pre-sliced per-attribute value arrays.

    Parameters
    ----------
    values_by_attr:
        Attribute name → values for the fixed row set.  Float arrays are
        treated as continuous, anything else as discrete (factorized).
    """

    def __init__(self, values_by_attr: Mapping[str, np.ndarray]):
        self._n_rows: int | None = None
        self._continuous: dict[str, np.ndarray] = {}
        self._codes: dict[str, np.ndarray] = {}
        self._code_of: dict[str, dict] = {}
        for name, values in values_by_attr.items():
            values = np.asarray(values)
            if self._n_rows is None:
                self._n_rows = len(values)
            elif len(values) != self._n_rows:
                raise PredicateError(
                    f"attribute {name!r} has {len(values)} rows, expected {self._n_rows}"
                )
            if values.dtype.kind == "f":
                self._continuous[name] = values
            else:
                self._codes[name], self._code_of[name] = _factorize(values)
        if self._n_rows is None:
            raise PredicateError("evaluator needs at least one attribute")

    @property
    def n_rows(self) -> int:
        assert self._n_rows is not None
        return self._n_rows

    def supports(self, attribute: str) -> bool:
        return attribute in self._continuous or attribute in self._codes

    def supports_predicate(self, predicate: Predicate) -> bool:
        """Whether every clause attribute is known to this evaluator."""
        return all(self.supports(clause.attribute) for clause in predicate)

    def resident_bytes(self) -> int:
        """Bytes of comparison-array data held (continuous values plus
        factorized codes; the small value → code dicts are ignored) —
        one term of the resident service's per-entry memory accounting."""
        return int(sum(values.nbytes for values in self._continuous.values())
                   + sum(codes.nbytes for codes in self._codes.values()))

    def clause_mask(self, clause) -> np.ndarray:
        """Boolean mask of rows satisfying one clause."""
        if isinstance(clause, RangeClause):
            try:
                values = self._continuous[clause.attribute]
            except KeyError:
                raise PredicateError(
                    f"no continuous attribute {clause.attribute!r} in evaluator"
                ) from None
            return clause.mask_values(values)
        if isinstance(clause, SetClause):
            try:
                codes = self._codes[clause.attribute]
                code_of = self._code_of[clause.attribute]
            except KeyError:
                raise PredicateError(
                    f"no discrete attribute {clause.attribute!r} in evaluator"
                ) from None
            wanted = [code_of[v] for v in clause.values if v in code_of]
            if not wanted:
                return np.zeros(self.n_rows, dtype=bool)
            if len(wanted) == 1:
                return codes == wanted[0]
            return np.isin(codes, np.asarray(wanted, dtype=np.int64))
        raise PredicateError(f"unknown clause kind {type(clause).__name__}")

    def mask(self, predicate: Predicate) -> np.ndarray:
        """Boolean mask of rows satisfying the conjunction."""
        mask = np.ones(self.n_rows, dtype=bool)
        for clause in predicate:
            mask &= self.clause_mask(clause)
        return mask

    # ------------------------------------------------------------------
    # Batched evaluation
    # ------------------------------------------------------------------
    def evaluate_batch(self, predicates: Sequence[Predicate] | Iterable[Predicate],
                       ) -> np.ndarray:
        """``(n_predicates, n_rows)`` boolean matrix of conjunction masks.

        Row ``i`` equals ``self.mask(predicates[i])`` exactly.  Instead of
        looping predicates, clauses are grouped by attribute, and each
        *distinct* clause of an attribute gets one mask row, however many
        predicates repeat it:

        * distinct range clauses become one broadcast ``(u, 1) ×
          (n_rows,)`` bound comparison;
        * distinct set clauses become a ``(u, n_codes)`` boolean lookup
          table indexed by the column's factorized codes.

        Each predicate's row then gathers its clause's mask and ANDs it
        in.  Unconstrained attributes (and ``TRUE`` predicates) leave
        their rows all-True.  Raises :class:`PredicateError` on
        attributes this evaluator does not hold, exactly like
        :meth:`clause_mask`.
        """
        predicates = list(predicates)
        m = len(predicates)
        # attribute -> (predicate rows, distinct clause key -> mask row,
        # each predicate row's mask row)
        by_attribute: dict[str, tuple[list[int], dict, list[int]]] = {}
        for i, predicate in enumerate(predicates):
            for clause in predicate:
                if isinstance(clause, RangeClause):
                    if clause.attribute not in self._continuous:
                        raise PredicateError(
                            f"no continuous attribute {clause.attribute!r} in evaluator"
                        )
                    key = (clause.lo, clause.hi, clause.include_hi)
                elif isinstance(clause, SetClause):
                    if clause.attribute not in self._codes:
                        raise PredicateError(
                            f"no discrete attribute {clause.attribute!r} in evaluator"
                        )
                    key = clause.values
                else:
                    raise PredicateError(
                        f"unknown clause kind {type(clause).__name__}")
                entry = by_attribute.get(clause.attribute)
                if entry is None:
                    entry = by_attribute[clause.attribute] = ([], {}, [])
                rows, distinct, which = entry
                rows.append(i)
                which.append(distinct.setdefault(key, len(distinct)))

        out = None
        for attribute, (rows, distinct, which) in by_attribute.items():
            masks = self._distinct_masks(attribute, list(distinct))
            if len(distinct) < len(rows):
                # Mask rows are numbered by first use, so with no repeat
                # ``which`` is already 0, 1, 2, ...
                masks = masks[which]
            # One clause per attribute per predicate → ``rows`` is unique
            # and ascending, and covers every predicate when it is full.
            if len(rows) < m:
                if out is None:
                    out = np.ones((m, self.n_rows), dtype=bool)
                out[rows] &= masks
            elif out is None:
                out = masks
            else:
                out &= masks
        return np.ones((m, self.n_rows), dtype=bool) if out is None else out

    def _distinct_masks(self, attribute: str, keys: list) -> np.ndarray:
        """One mask row per distinct clause key of ``attribute``:
        ``(lo, hi, include_hi)`` for a range, the value set for a set."""
        if attribute in self._continuous:
            values = self._continuous[attribute]
            los = np.array([lo for lo, _, _ in keys])[:, np.newaxis]
            his = np.array([hi for _, hi, _ in keys])[:, np.newaxis]
            closed = np.array([include_hi for _, _, include_hi in keys],
                              dtype=bool)[:, np.newaxis]
            if closed.all():
                masks = values <= his
            elif not closed.any():
                masks = values < his
            else:
                masks = np.where(closed, values <= his, values < his)
            masks &= values >= los
            return masks
        code_of = self._code_of[attribute]
        lookup = np.zeros((len(keys), len(code_of)), dtype=bool)
        for j, values in enumerate(keys):
            lookup[j, [code_of[v] for v in values if v in code_of]] = True
        return lookup[:, self._codes[attribute]]
