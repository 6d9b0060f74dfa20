"""Unit tests for repro.table.io (CSV round-trips and inference)."""

import math

import pytest

from repro.errors import SchemaError
from repro.table import ColumnKind, ColumnSpec, Schema, Table, read_csv, write_csv

SCHEMA = Schema([
    ColumnSpec("name", ColumnKind.DISCRETE),
    ColumnSpec("value", ColumnKind.CONTINUOUS),
])


def test_round_trip(tmp_path):
    table = Table.from_rows(SCHEMA, [("a", 1.5), ("b", -2.0)])
    path = tmp_path / "t.csv"
    write_csv(table, path)
    loaded = read_csv(path, SCHEMA)
    assert loaded == table


def test_schema_inference(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("name,value\nalpha,1.5\nbeta,2\n")
    table = read_csv(path)
    assert table.schema["name"].is_discrete
    assert table.schema["value"].is_continuous
    assert table.values("value").tolist() == [1.5, 2.0]


def test_inference_mixed_column_is_discrete(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("v\n1.5\nnot-a-number\n")
    table = read_csv(path)
    assert table.schema["v"].is_discrete


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SchemaError):
        read_csv(path)


def test_ragged_row_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(SchemaError):
        read_csv(path)


def test_header_schema_mismatch_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(SchemaError):
        read_csv(path, SCHEMA)


def test_bad_continuous_cell_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("name,value\na,oops\n")
    with pytest.raises(SchemaError):
        read_csv(path, SCHEMA)


def test_empty_continuous_cells_load_as_nan(tmp_path):
    # The column is inferred continuous from its non-empty cells; its
    # empty cells are missing values, not a schema error.
    path = tmp_path / "t.csv"
    path.write_text("name,value\na,1.5\nb,\nc,2\n")
    for schema in (None, SCHEMA):
        table = read_csv(path, schema)
        assert table.schema["value"].is_continuous
        values = table.values("value").tolist()
        assert values[0] == 1.5 and math.isnan(values[1]) and values[2] == 2.0
