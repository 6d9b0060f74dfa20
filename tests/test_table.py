"""Unit tests for repro.table.table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.table import ColumnKind, ColumnSpec, Schema, Table

SCHEMA = Schema([
    ColumnSpec("g", ColumnKind.DISCRETE),
    ColumnSpec("x", ColumnKind.CONTINUOUS),
])
ROWS = [("a", 1.0), ("b", 2.0), ("a", 3.0), ("c", 4.0)]


def small() -> Table:
    return Table.from_rows(SCHEMA, ROWS)


class TestConstruction:
    def test_from_rows(self):
        table = small()
        assert len(table) == 4
        assert table.num_columns == 2

    def test_from_rows_wrong_width_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_rows(SCHEMA, [("a", 1.0, 9)])

    def test_from_columns(self):
        table = Table.from_columns(SCHEMA, {"g": ["a"], "x": [1.0]})
        assert table.row(0) == {"g": "a", "x": 1.0}

    def test_from_columns_missing_rejected(self):
        with pytest.raises(SchemaError, match="missing"):
            Table.from_columns(SCHEMA, {"g": ["a"]})

    def test_from_columns_extra_rejected(self):
        with pytest.raises(SchemaError, match="unknown"):
            Table.from_columns(SCHEMA, {"g": ["a"], "x": [1.0], "y": [2]})

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_columns(SCHEMA, {"g": ["a", "b"], "x": [1.0]})

    def test_empty(self):
        table = Table.empty(SCHEMA)
        assert len(table) == 0
        assert table.schema == SCHEMA

    def test_no_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table([])


class TestAccess:
    def test_column_and_values(self):
        assert small().values("x").tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            small().column("zz")

    def test_row_negative_index(self):
        assert small().row(-1) == {"g": "c", "x": 4.0}

    def test_row_out_of_range(self):
        with pytest.raises(IndexError):
            small().row(4)

    def test_iter_rows(self):
        rows = list(small().iter_rows())
        assert rows[2] == {"g": "a", "x": 3.0}

    def test_equality(self):
        assert small() == small()
        assert small() != small().take([0, 1, 2])


class TestRelationalOps:
    def test_filter(self):
        mask = np.asarray([True, False, True, False])
        assert small().filter(mask).values("x").tolist() == [1.0, 3.0]

    def test_filter_wrong_shape_rejected(self):
        with pytest.raises(SchemaError):
            small().filter(np.asarray([True]))

    def test_take_preserves_order(self):
        taken = small().take([3, 0])
        assert taken.values("x").tolist() == [4.0, 1.0]

    def test_take_allows_duplicates(self):
        assert len(small().take([0, 0, 0])) == 3

    def test_project(self):
        projected = small().project(["x"])
        assert projected.schema.names == ("x",)

    def test_concat(self):
        doubled = small().concat(small())
        assert len(doubled) == 8

    def test_concat_schema_mismatch_rejected(self):
        other = Table.from_columns(Schema([ColumnSpec("g", ColumnKind.DISCRETE)]),
                                   {"g": ["z"]})
        with pytest.raises(SchemaError):
            small().concat(other)


class TestGrouping:
    def test_group_indices_single_key(self):
        groups = small().group_indices("g")
        assert set(groups) == {("a",), ("b",), ("c",)}
        assert groups[("a",)].tolist() == [0, 2]

    def test_group_indices_multi_key(self):
        schema = Schema([
            ColumnSpec("a", ColumnKind.DISCRETE),
            ColumnSpec("b", ColumnKind.DISCRETE),
        ])
        table = Table.from_rows(schema, [("x", 1), ("x", 2), ("x", 1)])
        groups = table.group_indices(["a", "b"])
        assert groups[("x", 1)].tolist() == [0, 2]

    def test_group_indices_cover_all_rows(self):
        groups = small().group_indices("g")
        total = sum(len(ix) for ix in groups.values())
        assert total == len(small())

    def test_group_indices_empty_by_rejected(self):
        with pytest.raises(SchemaError):
            small().group_indices([])

    def test_nan_keys_form_one_group(self):
        # NaN != NaN, yet all NaN keys of a column are one group, as all
        # None keys are: a continuous NaN and distinct NaN objects in a
        # discrete column alike.
        schema = Schema([ColumnSpec("d", ColumnKind.DISCRETE),
                         ColumnSpec("c", ColumnKind.CONTINUOUS)])
        nan_a, nan_b = float("nan"), float("nan")
        table = Table.from_rows(schema, [(nan_a, 1.0), ("x", np.nan), (nan_b, np.nan),
                                         (None, 2.0), ("x", np.nan), (None, 1.0)])
        by_discrete = table.group_indices("d")
        assert [ix.tolist() for ix in by_discrete.values()] == [[0, 2], [1, 4], [3, 5]]
        assert list(by_discrete)[0][0] is nan_a
        by_continuous = table.group_indices("c")
        assert [ix.tolist() for ix in by_continuous.values()] == [[0, 5], [1, 2, 4], [3]]
        both = table.group_indices(["d", "c"])
        assert [ix.tolist() for ix in both.values()] == [[0], [1, 4], [2], [3], [5]]

    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(st.tuples(
        st.one_of(st.integers(-2, 2), st.sampled_from(["a", "b"]), st.none()),
        st.sampled_from([0.0, 1.5, -2.0])), min_size=1, max_size=40))
    def test_nan_free_keys_group_as_before(self, keys):
        # Without NaN keys, group order, key objects and index arrays are
        # those of the plain first-appearance loop.
        schema = Schema([ColumnSpec("d", ColumnKind.DISCRETE),
                         ColumnSpec("c", ColumnKind.CONTINUOUS)])
        table = Table.from_rows(schema, keys)
        for by in (["d"], ["c"], ["d", "c"], ["c", "d"]):
            columns = [table.values(name) for name in by]
            expected: dict = {}
            for i in range(len(table)):
                expected.setdefault(tuple(col[i] for col in columns), []).append(i)
            actual = table.group_indices(by)
            assert list(actual) == list(expected)
            for (got_key, got), (want_key, want) in zip(actual.items(), expected.items()):
                assert all(a is b or (type(a) is type(b) and a == b)
                           for a, b in zip(got_key, want_key))
                assert got.dtype == np.int64 and got.tolist() == want


class TestDisplay:
    def test_to_string_contains_header_and_rows(self):
        rendered = small().to_string()
        assert "g" in rendered and "x" in rendered
        assert "a" in rendered

    def test_to_string_truncates(self):
        rendered = small().to_string(max_rows=2)
        assert "more rows" in rendered
