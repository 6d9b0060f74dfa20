"""Unit tests for the regression-tree substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionerError
from repro.predicates.clause import RangeClause, SetClause
from repro.tree.node import TreeNode
from repro.tree.splits import (
    Split,
    node_error,
    range_split_errors,
    split_error,
)


class TestSplits:
    def test_range_left_mask(self):
        split = Split("x", "range", 5.0)
        values = np.asarray([1.0, 5.0, 9.0])
        assert split.left_mask(values).tolist() == [True, False, False]

    def test_set_left_mask(self):
        split = Split("s", "set", "a")
        values = np.asarray(["a", "b", "a"], dtype=object)
        assert split.left_mask(values).tolist() == [True, False, True]

    def test_range_child_clauses_half_open(self):
        parent = RangeClause("x", 0.0, 10.0)
        left, right = Split("x", "range", 4.0).child_clauses(parent)
        assert (left.lo, left.hi, left.include_hi) == (0.0, 4.0, False)
        assert (right.lo, right.hi, right.include_hi) == (4.0, 10.0, True)

    def test_range_child_outside_parent_rejected(self):
        with pytest.raises(PartitionerError):
            Split("x", "range", 11.0).child_clauses(RangeClause("x", 0, 10))

    def test_set_child_clauses(self):
        parent = SetClause("s", ["a", "b", "c"])
        left, right = Split("s", "set", "b").child_clauses(parent)
        assert left.values == frozenset(["b"])
        assert right.values == frozenset(["a", "c"])

    def test_set_child_needs_two_values(self):
        with pytest.raises(PartitionerError):
            Split("s", "set", "a").child_clauses(SetClause("s", ["a"]))

    def test_node_error_is_std(self):
        assert node_error(np.asarray([1.0, 3.0])) == pytest.approx(1.0)
        assert node_error(np.asarray([5.0])) == 0.0
        assert node_error(np.asarray([])) == 0.0

    def test_split_error_weighted(self):
        targets = np.asarray([0.0, 0.0, 10.0, 10.0])
        perfect = split_error(targets, np.asarray([True, True, False, False]))
        assert perfect == 0.0
        bad = split_error(targets, np.asarray([True, False, True, False]))
        assert bad > 0.0


class TestRangeSplitErrors:
    def test_matches_generic_path(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 100, 200)
        targets = rng.normal(0, 1, 200) + (values > 50) * 10
        thresholds = np.asarray([10.0, 50.0, 90.0])
        fast, n_left, n_right = range_split_errors(values, targets, thresholds)
        for threshold, fast_error, nl, nr in zip(thresholds, fast, n_left, n_right):
            mask = values < threshold
            assert nl == mask.sum() and nr == (~mask).sum()
            assert fast_error == pytest.approx(split_error(targets, mask))

    def test_empty_values(self):
        errors, nl, nr = range_split_errors(np.asarray([]), np.asarray([]),
                                            np.asarray([1.0]))
        assert errors.tolist() == [0.0]

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_property_matches_generic(self, data):
        n = data.draw(st.integers(min_value=2, max_value=60))
        values = np.asarray(data.draw(st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            min_size=n, max_size=n)))
        targets = np.asarray(data.draw(st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=n, max_size=n)))
        threshold = data.draw(st.floats(min_value=0, max_value=100,
                                        allow_nan=False))
        errors, _, _ = range_split_errors(values, targets,
                                          np.asarray([threshold]))
        expected = split_error(targets, values < threshold)
        assert errors[0] == pytest.approx(expected, rel=1e-6, abs=1e-6)


class TestTreeNode:
    def test_bisect_builds_children(self):
        node = TreeNode({"x": RangeClause("x", 0, 10)})
        left, right = node.bisect(Split("x", "range", 4.0))
        assert not node.is_leaf
        assert left.predicate().clause_for("x").hi == 4.0
        assert right.predicate().clause_for("x").lo == 4.0

    def test_leaves_iteration(self):
        node = TreeNode({"x": RangeClause("x", 0, 10)})
        left, right = node.bisect(Split("x", "range", 5.0))
        left.bisect(Split("x", "range", 2.0))
        assert len(list(node.leaves())) == 3
        assert node.count_nodes() == 5
        assert node.depth_below() == 2
