"""CSV import/export for :class:`~repro.table.table.Table`.

The paper's datasets (Intel sensor trace, FEC expenses) ship as CSV files;
these helpers let users load their own data into the reproduction.  The
reader either receives an explicit schema or infers one: a column whose
every non-empty cell parses as a float is continuous, anything else is
discrete.  Empty cells of a continuous column load as NaN.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

from repro.errors import SchemaError
from repro.table.schema import ColumnKind, ColumnSpec, Schema
from repro.table.table import Table


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def infer_schema(header: list[str], rows: list[list[str]]) -> Schema:
    """Infer a schema from string cells: all-float columns are continuous."""
    specs = []
    for j, name in enumerate(header):
        cells = [row[j] for row in rows if row[j] != ""]
        continuous = bool(cells) and all(_parses_as_float(cell) for cell in cells)
        kind = ColumnKind.CONTINUOUS if continuous else ColumnKind.DISCRETE
        specs.append(ColumnSpec(name, kind))
    return Schema(specs)


def read_csv(path: str | Path, schema: Schema | None = None) -> Table:
    """Load a CSV file (with header row) into a :class:`Table`.

    Parameters
    ----------
    path:
        File to read.
    schema:
        Optional explicit schema.  Its column names must match the CSV
        header exactly (order included).  When omitted, the schema is
        inferred from the data.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path} is empty; expected a header row") from None
        rows = [row for row in reader if row]
    for row in rows:
        if len(row) != len(header):
            raise SchemaError(
                f"{path}: row {row!r} has {len(row)} cells, header has {len(header)}"
            )
    if schema is None:
        schema = infer_schema(header, rows)
    elif list(schema.names) != header:
        raise SchemaError(
            f"{path}: header {header} does not match schema columns {list(schema.names)}"
        )
    converted: list[list] = []
    for row in rows:
        out = []
        for spec, cell in zip(schema, row):
            if spec.is_continuous:
                try:
                    out.append(float(cell) if cell != "" else float("nan"))
                except ValueError:
                    raise SchemaError(
                        f"{path}: cell {cell!r} in continuous column {spec.name!r}"
                    ) from None
            else:
                out.append(cell)
        converted.append(out)
    return Table.from_rows(schema, converted)


def write_csv(table: Table, path: str | Path) -> None:
    """Write ``table`` to ``path`` as CSV with a header row."""
    path = Path(path)
    names: Iterable[str] = table.schema.names
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(names))
        for row in table.iter_rows():
            writer.writerow([row[name] for name in table.schema.names])
