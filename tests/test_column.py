"""Unit tests for repro.table.column."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.table.column import Column
from repro.table.schema import ColumnKind, ColumnSpec

CONT = ColumnSpec("x", ColumnKind.CONTINUOUS)
DISC = ColumnSpec("s", ColumnKind.DISCRETE)


class TestConstruction:
    def test_continuous_coerces_to_float(self):
        col = Column(CONT, [1, 2, 3])
        assert col.values.dtype == np.float64

    def test_discrete_preserves_objects(self):
        col = Column(DISC, ["a", 5, ("t",)])
        assert list(col) == ["a", 5, ("t",)]

    def test_backing_array_read_only(self):
        col = Column(CONT, [1.0, 2.0])
        with pytest.raises(ValueError):
            col.values[0] = 9.0

    def test_two_dimensional_rejected(self):
        with pytest.raises(SchemaError):
            Column(CONT, np.zeros((2, 2)))

    def test_non_numeric_continuous_rejected(self):
        with pytest.raises(ValueError):
            Column(CONT, ["a", "b"])

    def test_len_getitem(self):
        col = Column(CONT, [1.5, 2.5])
        assert len(col) == 2
        assert col[1] == 2.5

    def test_equality(self):
        assert Column(CONT, [1.0, 2.0]) == Column(CONT, [1.0, 2.0])
        assert Column(CONT, [1.0, 2.0]) != Column(CONT, [1.0, 3.0])
        assert Column(CONT, [1.0]) != Column(DISC, ["1.0"])

    def test_equality_with_nan(self):
        assert Column(CONT, [float("nan")]) == Column(CONT, [float("nan")])


class TestDerivations:
    def test_take(self):
        col = Column(CONT, [10.0, 20.0, 30.0])
        assert list(col.take([2, 0])) == [30.0, 10.0]

    def test_filter(self):
        col = Column(CONT, [10.0, 20.0, 30.0])
        assert list(col.filter(np.asarray([True, False, True]))) == [10.0, 30.0]

    def test_filter_wrong_length_rejected(self):
        col = Column(CONT, [1.0, 2.0])
        with pytest.raises(SchemaError):
            col.filter(np.asarray([True]))


class TestMasks:
    def test_range_mask_inclusive(self):
        col = Column(CONT, [1.0, 2.0, 3.0, 4.0])
        assert col.range_mask(2.0, 3.0).tolist() == [False, True, True, False]

    def test_range_mask_half_open(self):
        col = Column(CONT, [1.0, 2.0, 3.0])
        assert col.range_mask(1.0, 3.0, include_hi=False).tolist() == [True, True, False]

    def test_range_mask_on_discrete_rejected(self):
        with pytest.raises(SchemaError):
            Column(DISC, ["a"]).range_mask(0, 1)

    def test_membership_mask(self):
        col = Column(DISC, ["a", "b", "a", "c"])
        assert col.membership_mask(["a", "c"]).tolist() == [True, False, True, True]

    def test_membership_mask_unknown_values(self):
        col = Column(DISC, ["a", "b"])
        assert col.membership_mask(["zz"]).tolist() == [False, False]

    def test_membership_mask_empty_allowed(self):
        col = Column(DISC, ["a", "b"])
        assert col.membership_mask([]).tolist() == [False, False]

    def test_membership_mask_on_continuous_rejected(self):
        with pytest.raises(SchemaError):
            Column(CONT, [1.0]).membership_mask([1.0])

    def test_membership_repeated_calls_consistent(self):
        col = Column(DISC, list("abcabc"))
        first = col.membership_mask(["a"])
        second = col.membership_mask(["a"])
        assert first.tolist() == second.tolist()

    def test_membership_mixed_types(self):
        col = Column(DISC, [1, "1", 2])
        assert col.membership_mask([1]).tolist() == [True, False, False]


class TestStatistics:
    def test_distinct_continuous_sorted(self):
        col = Column(CONT, [3.0, 1.0, 3.0, 2.0])
        assert col.distinct() == [1.0, 2.0, 3.0]

    def test_distinct_discrete(self):
        col = Column(DISC, ["b", "a", "b"])
        assert col.distinct() == ["a", "b"]

    def test_distinct_unorderable_falls_back_to_repr(self):
        col = Column(DISC, [1, "a", 1])
        assert len(col.distinct()) == 2

    def test_min_max(self):
        col = Column(CONT, [5.0, -1.0, 3.0])
        assert col.min() == -1.0
        assert col.max() == 5.0

    def test_min_on_empty_rejected(self):
        with pytest.raises(SchemaError):
            Column(CONT, []).min()

    def test_min_on_discrete_rejected(self):
        with pytest.raises(SchemaError):
            Column(DISC, ["a"]).min()

    def test_min_max_ignore_missing_values(self):
        col = Column(CONT, [np.nan, 5.0, -1.0, np.nan])
        assert col.min() == -1.0
        assert col.max() == 5.0

    @pytest.mark.parametrize("op", ["min", "max"])
    def test_all_missing_rejected_naming_the_column(self, op):
        with pytest.raises(SchemaError, match="'x'.*every value is missing"):
            getattr(Column(CONT, [np.nan, np.nan]), op)()

    def test_cardinality(self):
        assert Column(DISC, ["a", "b", "a"]).cardinality() == 2
