"""Attribute domains and the NAIVE predicate-space enumerator.

:class:`Domain` records, for every explanation attribute (``A_rest``),
its observed range (continuous) or distinct values (discrete).  All
partitioners derive their search space from it, and the Merger's
cached-tuple approximation uses it for relative box volumes.

:class:`PredicateEnumerator` generates the NAIVE search space lazily in
increasing complexity order — the Section 8.2 modification that lets the
exhaustive algorithm emit its best-so-far predicate under a time budget.
Complexity is graded exactly as the paper describes: first by the number
of clauses in the predicate, then by the size of its largest discrete
value-set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import PredicateError
from repro.predicates.clause import Clause, RangeClause, SetClause
from repro.predicates.discretizer import EquiWidthDiscretizer
from repro.predicates.predicate import Predicate
from repro.table.schema import ColumnKind
from repro.table.table import Table


@dataclass(frozen=True)
class AttributeDomain:
    """Observed domain of one attribute."""

    name: str
    kind: ColumnKind
    lo: float = 0.0
    hi: float = 0.0
    values: tuple = ()

    @property
    def is_continuous(self) -> bool:
        return self.kind is ColumnKind.CONTINUOUS

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def full_clause(self) -> Clause:
        """A clause covering the entire domain."""
        if self.is_continuous:
            return RangeClause(self.name, self.lo, self.hi, include_hi=True)
        return SetClause(self.name, self.values)


class Domain:
    """Domains of all explanation attributes, derived from a table.

    >>> # doctest setup omitted; see tests/test_space.py
    """

    def __init__(self, attributes: Sequence[AttributeDomain]):
        self._by_name = {a.name: a for a in attributes}
        self._order = tuple(a.name for a in attributes)
        if len(self._by_name) != len(self._order):
            raise PredicateError("duplicate attribute in domain")

    @classmethod
    def from_table(cls, table: Table, attributes: Iterable[str]) -> "Domain":
        """Observe attribute domains from the data."""
        domains = []
        for name in attributes:
            spec = table.schema[name]
            column = table.column(name)
            if spec.is_continuous:
                if len(column) == 0:
                    raise PredicateError(f"cannot derive domain of empty column {name!r}")
                # Missing values are skipped.  An attribute missing every
                # value keeps a NaN domain: predicates over it still score
                # (they match no row), and gridding it fails naming it.
                present = bool(column.notnull_mask().any())
                domains.append(AttributeDomain(
                    name=name, kind=ColumnKind.CONTINUOUS,
                    lo=column.min() if present else float("nan"),
                    hi=column.max() if present else float("nan"),
                ))
            else:
                domains.append(AttributeDomain(
                    name=name, kind=ColumnKind.DISCRETE,
                    values=tuple(column.distinct()),
                ))
        return cls(domains)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self._order

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> AttributeDomain:
        try:
            return self._by_name[name]
        except KeyError:
            raise PredicateError(f"attribute {name!r} not in domain") from None

    def __iter__(self) -> Iterator[AttributeDomain]:
        return (self._by_name[name] for name in self._order)

    def full_predicate(self) -> Predicate:
        """A predicate explicitly spanning the whole domain (used as the
        DT root partition)."""
        return Predicate(a.full_clause() for a in self)

    def simplify(self, predicate: Predicate) -> Predicate:
        """Drop clauses that cover their attribute's entire observed
        domain — they match every row, so the simplified predicate selects
        exactly the same tuples while reading like the paper's output
        (``sensorid = 15`` instead of four clauses spanning full ranges)."""
        kept = []
        for clause in predicate:
            if clause.attribute not in self._by_name:
                kept.append(clause)
                continue
            if not clause.contains(self._by_name[clause.attribute].full_clause()):
                kept.append(clause)
        return Predicate(kept)


class PredicateEnumerator:
    """Lazy, complexity-ordered enumeration of the NAIVE predicate space.

    Parameters
    ----------
    domain:
        Explanation-attribute domains.
    n_bins:
        Equi-width bins per continuous attribute (paper: 15).
    max_clauses:
        Cap on the number of clauses per predicate (None = all attributes).
    max_discrete_set_size:
        Cap on discrete value-set size (None = attribute cardinality).
    """

    def __init__(self, domain: Domain, n_bins: int = 15,
                 max_clauses: int | None = None,
                 max_discrete_set_size: int | None = None):
        if n_bins < 1:
            raise PredicateError(f"n_bins must be >= 1, got {n_bins}")
        self.domain = domain
        self.n_bins = n_bins
        self.max_clauses = max_clauses if max_clauses is not None else len(domain)
        self.max_discrete_set_size = max_discrete_set_size
        self._discretizers = {
            a.name: EquiWidthDiscretizer(a.name, a.lo, a.hi, n_bins)
            for a in domain if a.is_continuous
        }

    # ------------------------------------------------------------------
    # Clause inventories
    # ------------------------------------------------------------------
    def discretizer(self, attribute: str) -> EquiWidthDiscretizer:
        try:
            return self._discretizers[attribute]
        except KeyError:
            raise PredicateError(f"{attribute!r} is not continuous") from None

    def unit_clauses(self, attribute: str) -> list[Clause]:
        """Finest-granularity clauses: grid cells (continuous) or single
        values (discrete) — MC's initial units."""
        spec = self.domain[attribute]
        if spec.is_continuous:
            return list(self._discretizers[attribute].cells())
        return [SetClause(attribute, [v]) for v in spec.values]

    def continuous_clauses(self, attribute: str) -> list[Clause]:
        """All consecutive-cell ranges for a continuous attribute."""
        return list(self.discretizer(attribute).consecutive_ranges())

    def discrete_clauses(self, attribute: str, set_size: int) -> Iterator[Clause]:
        """All value subsets of exactly ``set_size`` for a discrete attribute."""
        spec = self.domain[attribute]
        if spec.is_continuous:
            raise PredicateError(f"{attribute!r} is not discrete")
        for combo in itertools.combinations(spec.values, set_size):
            yield SetClause(attribute, combo)

    def _clauses_at(self, attribute: str, set_size: int) -> Iterator[Clause]:
        """Clauses of the given discrete complexity for one attribute.

        Continuous attributes expose their full range inventory at
        ``set_size == 1`` and nothing at higher sizes, so each wave of the
        enumeration is duplicate-free.
        """
        spec = self.domain[attribute]
        if spec.is_continuous:
            if set_size == 1:
                yield from self.continuous_clauses(attribute)
            return
        if set_size <= spec.cardinality:
            yield from self.discrete_clauses(attribute, set_size)

    # ------------------------------------------------------------------
    # Full enumeration
    # ------------------------------------------------------------------
    def enumerate(self) -> Iterator[Predicate]:
        """Yield predicates in increasing complexity order.

        Wave ``(k, s)`` yields every conjunction of exactly ``k`` clauses
        whose largest discrete value-set has exactly ``s`` values; waves
        are ordered by ``k`` then ``s``.  Every predicate in the bounded
        space appears exactly once.
        """
        names = self.domain.attribute_names
        max_size = self._max_set_size()
        for k in range(1, self.max_clauses + 1):
            for s in range(1, max_size + 1):
                for attrs in itertools.combinations(names, k):
                    yield from self._conjunctions(attrs, s)

    def _max_set_size(self) -> int:
        cardinalities = [a.cardinality for a in self.domain if not a.is_continuous]
        limit = max(cardinalities) if cardinalities else 1
        if self.max_discrete_set_size is not None:
            limit = min(limit, self.max_discrete_set_size)
        return max(limit, 1)

    def _conjunctions(self, attrs: tuple[str, ...], max_set_size: int) -> Iterator[Predicate]:
        """Conjunctions over ``attrs`` whose largest discrete set size is
        exactly ``max_set_size``."""
        per_attr_upto: list[list[Clause]] = []
        for attribute in attrs:
            clauses = [c for size in range(1, max_set_size + 1)
                       for c in self._clauses_at(attribute, size)]
            if not clauses:
                return
            per_attr_upto.append(clauses)
        for combo in itertools.product(*per_attr_upto):
            if max_set_size > 1 and not any(
                isinstance(c, SetClause) and len(c.values) == max_set_size for c in combo
            ):
                continue  # counted in an earlier wave
            yield Predicate(combo)
