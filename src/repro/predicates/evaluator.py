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
  with broadcast comparisons (ranges) and code-lookup tables (sets)
  rather than a per-predicate Python loop.

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
    values are sortable; mixed-type object columns fall back to a
    first-appearance dict loop.  Only the *mapping* matters — callers
    translate clause values through the table and never compare codes
    across columns — so the two paths are interchangeable.
    """
    try:
        uniques, codes = np.unique(values, return_inverse=True)
    except TypeError:
        # Unorderable mixed types (e.g. ints and strings in one object
        # column): assign codes in order of first appearance.
        code_of: dict = {}
        codes = np.empty(len(values), dtype=np.int64)
        for i, item in enumerate(values):
            code = code_of.get(item)
            if code is None:
                code = len(code_of)
                code_of[item] = code
            codes[i] = code
        return codes, code_of
    code_of = {value: code for code, value in enumerate(uniques.tolist())}
    return codes.astype(np.int64, copy=False).ravel(), code_of


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
        looping predicates, clauses are grouped by attribute and each
        group is evaluated in one vectorized operation:

        * range clauses over one attribute become a broadcast
          ``(k, 1) × (n_rows,)`` bound comparison;
        * set clauses become a ``(k, n_codes)`` boolean lookup table
          indexed by the column's factorized codes.

        Unconstrained attributes (and ``TRUE`` predicates) leave their
        rows all-True.  Raises :class:`PredicateError` on attributes this
        evaluator does not hold, exactly like :meth:`clause_mask`.
        """
        predicates = list(predicates)
        out = np.ones((len(predicates), self.n_rows), dtype=bool)
        range_groups: dict[str, list[tuple[int, RangeClause]]] = {}
        set_groups: dict[str, list[tuple[int, SetClause]]] = {}
        for i, predicate in enumerate(predicates):
            for clause in predicate:
                if isinstance(clause, RangeClause):
                    if clause.attribute not in self._continuous:
                        raise PredicateError(
                            f"no continuous attribute {clause.attribute!r} in evaluator"
                        )
                    range_groups.setdefault(clause.attribute, []).append((i, clause))
                elif isinstance(clause, SetClause):
                    if clause.attribute not in self._codes:
                        raise PredicateError(
                            f"no discrete attribute {clause.attribute!r} in evaluator"
                        )
                    set_groups.setdefault(clause.attribute, []).append((i, clause))
                else:
                    raise PredicateError(
                        f"unknown clause kind {type(clause).__name__}")

        for attribute, items in range_groups.items():
            values = self._continuous[attribute]
            rows = np.fromiter((i for i, _ in items), dtype=np.int64,
                               count=len(items))
            los = np.array([clause.lo for _, clause in items])[:, np.newaxis]
            his = np.array([clause.hi for _, clause in items])[:, np.newaxis]
            closed = np.array([clause.include_hi for _, clause in items],
                              dtype=bool)[:, np.newaxis]
            if closed.all():
                below = values <= his
            elif not closed.any():
                below = values < his
            else:
                below = np.where(closed, values <= his, values < his)
            # One clause per attribute per predicate → ``rows`` is unique,
            # so in-place fancy-indexed AND touches each row once.
            out[rows] &= (values >= los) & below

        for attribute, items in set_groups.items():
            codes = self._codes[attribute]
            code_of = self._code_of[attribute]
            rows = np.fromiter((i for i, _ in items), dtype=np.int64,
                               count=len(items))
            lookup = np.zeros((len(items), len(code_of)), dtype=bool)
            for j, (_, clause) in enumerate(items):
                wanted = [code_of[v] for v in clause.values if v in code_of]
                lookup[j, wanted] = True
            out[rows] &= lookup[:, codes]

        return out
