"""Grid units: the cells CLIQUE counts support in.

A :class:`GridUnit` is an axis-aligned cell over a subset of attributes,
identified by per-attribute unit keys (bin index for continuous
attributes, the value itself for discrete ones).  Units carry their
support — the row positions they contain — so joins are set
intersections, exactly as in the MC partitioner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionerError
from repro.predicates.clause import SetClause
from repro.predicates.discretizer import EquiWidthDiscretizer
from repro.predicates.predicate import Predicate
from repro.table.table import Table


@dataclass(frozen=True)
class GridUnit:
    """A cell of the (sub)grid with its supporting rows."""

    #: ``(attribute, unit key)`` pairs, sorted by attribute.
    keys: tuple[tuple[str, object], ...]
    support: frozenset

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(attr for attr, _ in self.keys)

    @property
    def dimensionality(self) -> int:
        return len(self.keys)

    def density(self, total_rows: int) -> float:
        if total_rows <= 0:
            return 0.0
        return len(self.support) / total_rows

    def join(self, other: "GridUnit") -> "GridUnit | None":
        """The (k+1)-dimensional unit combining two k-dimensional units
        that agree on their shared attributes, or None."""
        merged = dict(self.keys)
        for attr, key in other.keys:
            if attr in merged:
                if merged[attr] != key:
                    return None
            else:
                merged[attr] = key
        if len(merged) != self.dimensionality + 1:
            return None
        support = self.support & other.support
        if not support:
            return None
        return GridUnit(tuple(sorted(merged.items())), support)

    def is_adjacent_to(self, other: "GridUnit") -> bool:
        """Same attributes, identical on all but one, and differing by
        exactly one bin step on that one (discrete keys never count as
        adjacent — there is no order to step along)."""
        if self.attributes != other.attributes:
            return False
        differing = [
            (mine, theirs)
            for (_, mine), (_, theirs) in zip(self.keys, other.keys)
            if mine != theirs
        ]
        if len(differing) != 1:
            return False
        mine, theirs = differing[0]
        if isinstance(mine, (int, np.integer)) and isinstance(theirs, (int, np.integer)):
            return abs(int(mine) - int(theirs)) == 1
        return False


def grid_units(table: Table, attributes: list[str], n_bins: int = 10,
               ) -> tuple[list[GridUnit], dict[str, EquiWidthDiscretizer]]:
    """The 1-dimensional units of every attribute, plus the discretizers
    used for the continuous ones.  A row missing a continuous value (NaN)
    belongs to no unit of that attribute, as in MC's unit builder."""
    if not attributes:
        raise PartitionerError("grid_units needs at least one attribute")
    units: list[GridUnit] = []
    discretizers: dict[str, EquiWidthDiscretizer] = {}
    for name in attributes:
        spec = table.schema[name]
        values = table.values(name)
        positions: dict[object, list[int]] = {}
        if spec.is_continuous:
            column = table.column(name)
            grid = EquiWidthDiscretizer(name, column.min(), column.max(), n_bins)
            discretizers[name] = grid
            for i, value in enumerate(values):
                value = float(value)
                if value != value:
                    # A missing value lies in no cell: ``bin_index``
                    # would clamp NaN into the last one, whose range
                    # predicate does not match it.
                    continue
                positions.setdefault(grid.bin_index(value), []).append(i)
        else:
            for i, value in enumerate(values):
                positions.setdefault(value, []).append(i)
        for key in sorted(positions, key=repr):
            units.append(GridUnit(((name, key),), frozenset(positions[key])))
    return units, discretizers


def unit_predicate(unit: GridUnit, table: Table,
                   discretizers: dict[str, EquiWidthDiscretizer]) -> Predicate:
    """Materialize a unit as a Scorpion predicate."""
    clauses = []
    for attr, key in unit.keys:
        if attr in discretizers:
            clauses.append(discretizers[attr].cell(int(key)))
        else:
            clauses.append(SetClause(attr, [key]))
    return Predicate(clauses)
