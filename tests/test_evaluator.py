"""Unit tests for the factorized ArrayMaskEvaluator."""

import numpy as np
import pytest

from repro.errors import PredicateError
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.evaluator import ArrayMaskEvaluator
from repro.predicates.predicate import Predicate

VALUES = {
    "x": np.asarray([0.0, 1.5, 3.0, 4.5]),
    "s": np.asarray(["a", "b", "a", "c"], dtype=object),
}


def evaluator() -> ArrayMaskEvaluator:
    return ArrayMaskEvaluator(VALUES)


def test_range_clause():
    mask = evaluator().clause_mask(RangeClause("x", 1.0, 3.0))
    assert mask.tolist() == [False, True, True, False]


def test_set_clause_single_value():
    mask = evaluator().clause_mask(SetClause("s", ["a"]))
    assert mask.tolist() == [True, False, True, False]


def test_set_clause_multiple_values():
    mask = evaluator().clause_mask(SetClause("s", ["a", "c"]))
    assert mask.tolist() == [True, False, True, True]


def test_set_clause_unknown_value():
    mask = evaluator().clause_mask(SetClause("s", ["zzz"]))
    assert not mask.any()


def test_conjunction():
    p = Predicate([RangeClause("x", 0.0, 3.0), SetClause("s", ["a"])])
    assert evaluator().mask(p).tolist() == [True, False, True, False]


def test_true_predicate():
    assert evaluator().mask(Predicate.true()).all()


def test_matches_table_independent_path():
    p = Predicate([RangeClause("x", 1.0, 4.5), SetClause("s", ["b", "c"])])
    expected = (RangeClause("x", 1.0, 4.5).mask_values(VALUES["x"])
                & SetClause("s", ["b", "c"]).mask_values(VALUES["s"]))
    np.testing.assert_array_equal(evaluator().mask(p), expected)


def test_unknown_attribute_rejected():
    with pytest.raises(PredicateError):
        evaluator().clause_mask(RangeClause("nope", 0, 1))


def test_kind_mismatch_rejected():
    with pytest.raises(PredicateError):
        evaluator().clause_mask(SetClause("x", [1.0]))


def test_length_mismatch_rejected():
    with pytest.raises(PredicateError):
        ArrayMaskEvaluator({"a": np.zeros(2), "b": np.zeros(3)})


def test_integer_arrays_are_discrete():
    ev = ArrayMaskEvaluator({"k": np.asarray([1, 2, 1], dtype=object)})
    assert ev.clause_mask(SetClause("k", [1])).tolist() == [True, False, True]


def test_supports():
    ev = evaluator()
    assert ev.supports("x") and ev.supports("s")
    assert not ev.supports("zz")


def test_supports_predicate():
    ev = evaluator()
    assert ev.supports_predicate(Predicate([RangeClause("x", 0, 1)]))
    assert not ev.supports_predicate(
        Predicate([RangeClause("x", 0, 1), RangeClause("zz", 0, 1)]))


def test_mixed_type_discrete_column_falls_back():
    # np.unique cannot sort ints against strings; the first-appearance
    # fallback must preserve code-table semantics.
    ev = ArrayMaskEvaluator({"k": np.asarray([1, "a", 1, "b"], dtype=object)})
    assert ev.clause_mask(SetClause("k", [1])).tolist() == [True, False, True, False]
    assert ev.clause_mask(SetClause("k", ["a", "b"])).tolist() == [False, True, False, True]
    assert not ev.clause_mask(SetClause("k", ["zzz"])).any()


def test_nan_objects_among_numbers_keep_dict_semantics():
    # np.unique sorts these without error, but NaN leaves the sort
    # without an order: the two 1.0 rows end up apart, and one NaN
    # object compares unequal to itself.
    nan, other_nan = float("nan"), float("nan")
    values = np.empty(6, dtype=object)
    values[:] = [1.0, nan, 1, nan, True, other_nan]
    ev = ArrayMaskEvaluator({"k": values})
    assert ev.clause_mask(SetClause("k", [1])).tolist() == [
        True, False, True, False, True, False]
    assert ev.clause_mask(SetClause("k", [nan])).tolist() == [
        False, True, False, True, False, False]
    matrix = ev.evaluate_batch([Predicate([SetClause("k", [other_nan])]),
                                Predicate([SetClause("k", [1.0, nan])])])
    assert matrix.tolist() == [[False, False, False, False, False, True],
                               [True, True, True, True, True, False]]


BATCH = [
    Predicate.true(),
    Predicate([RangeClause("x", 1.0, 3.0)]),
    Predicate([RangeClause("x", 0.0, 3.0, include_hi=False)]),
    Predicate([SetClause("s", ["a"])]),
    Predicate([SetClause("s", ["zzz"])]),
    Predicate([RangeClause("x", 1.0, 4.5), SetClause("s", ["b", "c"])]),
    Predicate([RangeClause("x", 1.0, 3.0)]),  # duplicate row is fine
]


def test_evaluate_batch_rows_equal_single_masks():
    ev = evaluator()
    matrix = ev.evaluate_batch(BATCH)
    assert matrix.shape == (len(BATCH), ev.n_rows)
    assert matrix.dtype == bool
    for row, predicate in zip(matrix, BATCH):
        np.testing.assert_array_equal(row, ev.mask(predicate))


def test_evaluate_batch_empty_list():
    matrix = evaluator().evaluate_batch([])
    assert matrix.shape == (0, 4)


def test_evaluate_batch_unknown_attribute_rejected():
    with pytest.raises(PredicateError):
        evaluator().evaluate_batch([Predicate([RangeClause("nope", 0, 1)])])


def test_evaluate_batch_kind_mismatch_rejected():
    with pytest.raises(PredicateError):
        evaluator().evaluate_batch([Predicate([SetClause("x", [1.0])])])
