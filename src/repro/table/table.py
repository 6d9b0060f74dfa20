"""The :class:`Table` relation — Scorpion's single input dataset ``D``.

A table is an ordered set of equal-length :class:`~repro.table.column.Column`
objects.  It supports exactly the relational operations the paper's
pipeline needs:

* row selection by boolean mask or integer indices (predicate application,
  ``p(D)``),
* column projection (``π_Aagg g_αi``),
* group-by partitioning with provenance (Section 4.1's Provenance
  component builds on :meth:`Table.group_indices`),
* construction from rows or columns, and pretty-printing for examples.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.table.column import Column
from repro.table.schema import ColumnKind, ColumnSpec, Schema


class Table:
    """An immutable-by-convention columnar relation.

    >>> t = Table.from_rows(
    ...     Schema([ColumnSpec("temp", ColumnKind.CONTINUOUS),
    ...             ColumnSpec("sensorid", ColumnKind.DISCRETE)]),
    ...     [(34.0, 1), (35.0, 2), (100.0, 3)])
    >>> len(t)
    3
    >>> t.column("temp").max()
    100.0
    """

    def __init__(self, columns: Sequence[Column]):
        columns = list(columns)
        if not columns:
            raise SchemaError("a table needs at least one column")
        length = len(columns[0])
        for col in columns:
            if len(col) != length:
                raise SchemaError(
                    f"column {col.name!r} has {len(col)} rows, expected {length}"
                )
        self._schema = Schema(col.spec for col in columns)
        self._columns = {col.name: col for col in columns}
        self._length = length

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence]) -> "Table":
        """Build a table from an iterable of row tuples matching ``schema``."""
        rows = list(rows)
        n_cols = len(schema)
        for row in rows:
            if len(row) != n_cols:
                raise SchemaError(
                    f"row {row!r} has {len(row)} fields, schema has {n_cols}"
                )
        columns = []
        for i, spec in enumerate(schema):
            columns.append(Column(spec, [row[i] for row in rows]))
        return cls(columns)

    @classmethod
    def from_columns(cls, schema: Schema, data: Mapping[str, Iterable]) -> "Table":
        """Build a table from a mapping of column name to values."""
        missing = [name for name in schema.names if name not in data]
        if missing:
            raise SchemaError(f"missing data for columns {missing}")
        extra = [name for name in data if name not in schema]
        if extra:
            raise SchemaError(f"data for unknown columns {extra}")
        return cls([Column(schema[name], data[name]) for name in schema.names])

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """A zero-row table with the given schema."""
        return cls([Column(spec, []) for spec in schema])

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    def __len__(self) -> int:
        return self._length

    @property
    def num_columns(self) -> int:
        return len(self._schema)

    def column(self, name: str) -> Column:
        """The column named ``name`` (raises :class:`SchemaError` if absent)."""
        self._schema[name]  # raise with a helpful message on unknown names
        return self._columns[name]

    def values(self, name: str) -> np.ndarray:
        """Shorthand for ``table.column(name).values``."""
        return self.column(name).values

    def row(self, index: int) -> dict:
        """Row ``index`` as a ``{column: value}`` dict."""
        if not (-self._length <= index < self._length):
            raise IndexError(f"row {index} out of range for table of {self._length} rows")
        return {name: self._columns[name][index] for name in self._schema.names}

    def iter_rows(self) -> Iterator[dict]:
        """Iterate over rows as dicts (for small tables / display only)."""
        for i in range(self._length):
            yield self.row(i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self._schema != other._schema or self._length != other._length:
            return False
        return all(self._columns[n] == other._columns[n] for n in self._schema.names)

    def __repr__(self) -> str:
        return f"Table({self._schema!r}, rows={self._length})"

    # ------------------------------------------------------------------
    # Relational operations
    # ------------------------------------------------------------------
    def filter(self, mask: np.ndarray) -> "Table":
        """New table with rows where boolean ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._length,):
            raise SchemaError(
                f"mask of shape {mask.shape} does not match table of {self._length} rows"
            )
        return Table([self._columns[n].filter(mask) for n in self._schema.names])

    def take(self, indices: Sequence[int] | np.ndarray) -> "Table":
        """New table with rows selected by integer ``indices`` (in order)."""
        indices = np.asarray(indices, dtype=np.int64)
        return Table([self._columns[n].take(indices) for n in self._schema.names])

    def project(self, names: Iterable[str]) -> "Table":
        """New table with only the named columns, in the given order."""
        names = list(names)
        return Table([self.column(n) for n in names])

    def concat(self, other: "Table") -> "Table":
        """Rows of ``self`` followed by rows of ``other`` (schemas must match)."""
        if self._schema != other._schema:
            raise SchemaError("cannot concat tables with different schemas")
        columns = []
        for name in self._schema.names:
            spec = self._schema[name]
            merged = np.concatenate(
                [self._columns[name].values, other._columns[name].values]
            )
            columns.append(Column(spec, merged))
        return Table(columns)

    # ------------------------------------------------------------------
    # Grouping
    # ------------------------------------------------------------------
    def group_indices(self, by: Sequence[str] | str) -> dict[tuple, np.ndarray]:
        """Partition row indices by the values of the ``by`` columns.

        Returns a dict mapping each distinct group key (always a tuple,
        even for a single group-by column) to the sorted array of row
        indices belonging to that group, in order of first appearance.
        This is the provenance primitive: the input group ``g_αi`` of an
        aggregate result is exactly one of these index arrays.

        Null keys group together, as in SQL: every ``None`` of a column
        is one key, and so is every NaN (the first NaN seen stands for
        them in the key).
        """
        if isinstance(by, str):
            by = [by]
        by = list(by)
        if not by:
            raise SchemaError("group_indices requires at least one column")
        key_columns = [self.column(name).values for name in by]
        groups: dict[tuple, list[int]] = {}
        for i in range(self._length):
            key = tuple(col[i] for col in key_columns)
            groups.setdefault(key, []).append(i)
        # NaN != NaN, so each NaN-keyed row opened its own group above;
        # merge them over the distinct keys.
        merged: dict[tuple, list] = {}
        for key, indices in groups.items():
            canonical = tuple(_NAN_KEY if _is_nan(item) else item for item in key)
            entry = merged.get(canonical)
            if entry is None:
                merged[canonical] = [key, [indices]]
            else:
                entry[1].append(indices)
        return {
            key: (np.asarray(parts[0], dtype=np.int64) if len(parts) == 1
                  else np.sort(np.concatenate(parts)).astype(np.int64))
            for key, parts in merged.values()
        }

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def to_string(self, max_rows: int = 20) -> str:
        """Fixed-width rendering of up to ``max_rows`` rows."""
        names = self._schema.names
        shown = min(self._length, max_rows)
        rendered: list[list[str]] = [list(names)]
        for i in range(shown):
            row = self.row(i)
            rendered.append([_format_cell(row[n]) for n in names])
        widths = [max(len(r[j]) for r in rendered) for j in range(len(names))]
        lines = []
        for r_index, r in enumerate(rendered):
            lines.append("  ".join(cell.rjust(widths[j]) for j, cell in enumerate(r)))
            if r_index == 0:
                lines.append("  ".join("-" * w for w in widths))
        if shown < self._length:
            lines.append(f"... ({self._length - shown} more rows)")
        return "\n".join(lines)


#: Stands for every NaN of a key column when grouping.
_NAN_KEY = object()


def _is_nan(value) -> bool:
    return isinstance(value, (float, np.floating)) and value != value


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.4g}"
    return str(value)
