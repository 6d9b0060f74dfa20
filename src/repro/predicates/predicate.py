"""Conjunctive predicates and their box algebra.

A :class:`Predicate` holds at most one clause per attribute (paper
Section 3.1); attributes without a clause are unconstrained.  The empty
conjunction is the ``TRUE`` predicate matching every row.

Geometric operations treat a predicate as an axis-aligned box over the
constrained attributes:

* :meth:`Predicate.intersect` — clause-wise intersection (MC's predicate
  refinement, Section 6.2);
* :meth:`Predicate.merge` — clause-wise bounding box / set union (the
  Merger, Section 4.3);
* :meth:`Predicate.is_adjacent_to` — no gap on any shared attribute, so a
  merge does not bridge empty space;
* :meth:`Predicate.subtract` — decompose ``p − q`` into disjoint boxes
  (used to split outlier partitions along hold-out partitions,
  Section 6.1.4).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.errors import PredicateError
from repro.predicates.clause import Clause, RangeClause, SetClause
from repro.table.table import Table


class Predicate:
    """An immutable conjunction of single-attribute clauses.

    >>> p = Predicate([RangeClause("voltage", 2.3, 2.4), SetClause("sensorid", [15])])
    >>> sorted(p.attributes)
    ['sensorid', 'voltage']
    >>> str(Predicate([]))
    'TRUE'
    """

    __slots__ = ("_clauses", "_hash")

    def __init__(self, clauses: Iterable[Clause]):
        by_attr: dict[str, Clause] = {}
        for clause in clauses:
            if clause.attribute in by_attr:
                raise PredicateError(
                    f"attribute {clause.attribute!r} appears in more than one clause"
                )
            by_attr[clause.attribute] = clause
        ordered = tuple(by_attr[a] for a in sorted(by_attr))
        self._clauses = ordered
        self._hash = hash(ordered)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def true(cls) -> "Predicate":
        """The always-true predicate (empty conjunction)."""
        return cls([])

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def clauses(self) -> tuple[Clause, ...]:
        return self._clauses

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(c.attribute for c in self._clauses)

    def clause_for(self, attribute: str) -> Clause | None:
        for clause in self._clauses:
            if clause.attribute == attribute:
                return clause
        return None

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    def is_true(self) -> bool:
        return not self._clauses

    def __iter__(self) -> Iterator[Clause]:
        return iter(self._clauses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return self._clauses == other._clauses

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Predicate({str(self)})"

    def __str__(self) -> str:
        if not self._clauses:
            return "TRUE"
        return " & ".join(str(c) for c in self._clauses)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def mask(self, table: Table) -> np.ndarray:
        """Boolean mask of rows satisfying the conjunction — ``p(D)``."""
        mask = np.ones(len(table), dtype=bool)
        for clause in self._clauses:
            mask &= clause.mask(table)
        return mask

    def filter(self, table: Table) -> Table:
        """Rows of ``table`` satisfying the predicate, as a new table."""
        return table.filter(self.mask(table))

    def mask_arrays(self, values_by_attr: Mapping[str, np.ndarray], n_rows: int,
                    ) -> np.ndarray:
        """Evaluate the conjunction over pre-sliced value arrays.

        ``values_by_attr`` maps attribute name to that attribute's values
        for some row subset of length ``n_rows``; attributes the predicate
        does not constrain may be omitted.  Used by the DT partitioner to
        score partition pieces without re-touching the full table.
        """
        mask = np.ones(n_rows, dtype=bool)
        for clause in self._clauses:
            mask &= clause.mask_values(values_by_attr[clause.attribute])
        return mask

    def selectivity(self, table: Table) -> float:
        """Fraction of ``table`` rows matched (0 for an empty table)."""
        if len(table) == 0:
            return 0.0
        return float(np.count_nonzero(self.mask(table))) / len(table)

    # ------------------------------------------------------------------
    # Containment
    # ------------------------------------------------------------------
    def contains(self, other: "Predicate") -> bool:
        """Syntactic containment: ``other``'s rows ⊆ ``self``'s rows for
        *any* dataset (sufficient condition for the paper's ``≺_D``)."""
        for clause in self._clauses:
            other_clause = other.clause_for(clause.attribute)
            if other_clause is None or not clause.contains(other_clause):
                return False
        return True

    def contained_in_wrt(self, other: "Predicate", table: Table) -> bool:
        """The paper's data-dependent ``self ≺_D other``:
        ``self(D) ⊂ other(D)`` (strict subset)."""
        self_mask = self.mask(table)
        other_mask = other.mask(table)
        return bool(np.all(other_mask[self_mask])) and bool(
            np.count_nonzero(self_mask) < np.count_nonzero(other_mask)
        )

    # ------------------------------------------------------------------
    # Box algebra
    # ------------------------------------------------------------------
    def intersect(self, other: "Predicate") -> "Predicate | None":
        """Conjunction of both predicates, or None if syntactically empty."""
        clauses: dict[str, Clause] = {c.attribute: c for c in self._clauses}
        for clause in other._clauses:
            existing = clauses.get(clause.attribute)
            if existing is None:
                clauses[clause.attribute] = clause
            else:
                merged = existing.intersect(clause)
                if merged is None:
                    return None
                clauses[clause.attribute] = merged
        return Predicate(clauses.values())

    def merge(self, other: "Predicate") -> "Predicate":
        """Bounding predicate: clause-wise bounding range / set union.

        An attribute constrained in only one operand becomes unconstrained
        in the merge (its bounding box with the full domain is the full
        domain).
        """
        clauses = []
        for clause in self._clauses:
            other_clause = other.clause_for(clause.attribute)
            if other_clause is not None:
                clauses.append(clause.merge(other_clause))
        return Predicate(clauses)

    def is_adjacent_to(self, other: "Predicate") -> bool:
        """The Merger's notion of neighbouring partitions.

        Two boxes are adjacent when they constrain the same attributes
        and overlap or touch on every one of them, with one restriction
        on discrete attributes: a merge may union discrete value sets
        only when *every other clause matches exactly* (and only one
        discrete attribute differs).  Hierarchically split partitions
        rarely share exact faces, so continuous extents may differ freely
        — but a "diagonal" merge that simultaneously widens a range and
        absorbs foreign discrete values bounds a region neither box
        covers, which is exactly how unrelated values leak into a growing
        predicate.
        """
        if set(self.attributes) != set(other.attributes):
            return False
        differing_discrete = 0
        differing_continuous = 0
        for clause in self._clauses:
            other_clause = other.clause_for(clause.attribute)
            assert other_clause is not None
            if not clause.touches(other_clause):
                return False
            if clause != other_clause:
                if isinstance(clause, SetClause):
                    differing_discrete += 1
                else:
                    differing_continuous += 1
        if differing_discrete == 0:
            return True
        return differing_discrete == 1 and differing_continuous == 0

    def subtract(self, other: "Predicate") -> "list[Predicate]":
        """Disjoint predicates covering exactly ``self − other``.

        Standard axis-sweep box subtraction: for each attribute that
        ``other`` constrains, peel off the part of the current remainder
        lying outside ``other``'s clause, then narrow the remainder to the
        overlap and continue.  Returns ``[self]`` untouched when the
        boxes do not intersect; returns ``[]`` when ``other`` syntactically
        covers ``self``.

        Disjointness caveat: when ``other`` has a *closed* upper bound
        strictly inside ``self``'s range, the right-hand piece shares that
        single boundary value with ``other`` (open lower bounds are not
        representable).  DT partitions follow a half-open ``[lo, hi)``
        discipline (closed tops only at the domain maximum), so the
        partition-combination step never hits this case.
        """
        if self.intersect(other) is None:
            return [self]
        pieces: list[Predicate] = []
        remainder: dict[str, Clause] = {c.attribute: c for c in self._clauses}
        for other_clause in other._clauses:
            attribute = other_clause.attribute
            current = remainder.get(attribute)
            outside = _clause_difference(current, other_clause)
            for piece_clause in outside:
                piece = dict(remainder)
                piece[piece_clause.attribute] = piece_clause
                pieces.append(Predicate(piece.values()))
            if current is None:
                narrowed = other_clause
            else:
                narrowed_maybe = current.intersect(other_clause)
                assert narrowed_maybe is not None  # checked via intersect above
                narrowed = narrowed_maybe
            remainder[attribute] = narrowed
        return pieces


def _clause_difference(current: Clause | None, cutter: Clause) -> list[Clause]:
    """Clauses covering the part of ``current`` outside ``cutter``.

    ``current is None`` means the attribute is unconstrained; for ranges
    we cannot represent the unbounded complement, so the caller must make
    sure subtraction happens within a bounded partitioning (DT partitions
    always carry explicit bounds for attributes they split on).  In that
    unconstrained-range case we conservatively return no outside pieces,
    which keeps results sound (pieces are a subset of the true
    difference).
    """
    if isinstance(cutter, RangeClause):
        if current is None:
            return []
        if not isinstance(current, RangeClause):
            raise PredicateError(
                f"clause kind mismatch on {cutter.attribute!r}: {current!r} vs {cutter!r}"
            )
        pieces: list[Clause] = []
        if current.lo < cutter.lo:
            pieces.append(
                RangeClause(current.attribute, current.lo, min(current.hi, cutter.lo),
                            include_hi=False)
            )
        cutter_open_top = not cutter.include_hi and current.include_hi
        if current.hi > cutter.hi or (current.hi == cutter.hi and cutter_open_top):
            lo = max(current.lo, cutter.hi)
            pieces.append(RangeClause(current.attribute, lo, current.hi, current.include_hi))
        return pieces
    if isinstance(cutter, SetClause):
        if current is None:
            return []
        if not isinstance(current, SetClause):
            raise PredicateError(
                f"clause kind mismatch on {cutter.attribute!r}: {current!r} vs {cutter!r}"
            )
        difference = current.difference(cutter)
        return [difference] if difference is not None else []
    raise PredicateError(f"unknown clause kind {type(cutter).__name__}")
