"""Unit tests for attribute domains and the NAIVE enumerator."""

import itertools
import math

import pytest

from repro.errors import PredicateError
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.discretizer import EquiWidthDiscretizer
from repro.predicates.predicate import Predicate
from repro.predicates.space import Domain, PredicateEnumerator
from repro.table import ColumnKind, ColumnSpec, Schema, Table

TABLE = Table.from_columns(
    Schema([ColumnSpec("x", ColumnKind.CONTINUOUS),
            ColumnSpec("s", ColumnKind.DISCRETE),
            ColumnSpec("t", ColumnKind.DISCRETE)]),
    {
        "x": [0.0, 25.0, 50.0, 100.0],
        "s": ["a", "b", "c", "a"],
        "t": ["u", "u", "v", "v"],
    },
)


def domain() -> Domain:
    return Domain.from_table(TABLE, ["x", "s", "t"])


class TestDomain:
    def test_from_table_bounds(self):
        d = domain()
        assert d["x"].lo == 0.0 and d["x"].hi == 100.0
        assert set(d["s"].values) == {"a", "b", "c"}

    def test_from_table_bounds_skip_missing_values(self):
        table = Table.from_columns(
            Schema([ColumnSpec("x", ColumnKind.CONTINUOUS),
                    ColumnSpec("y", ColumnKind.CONTINUOUS)]),
            {"x": [float("nan"), 2.0, -1.0], "y": [float("nan")] * 3})
        d = Domain.from_table(table, ["x", "y"])
        assert d["x"].lo == -1.0 and d["x"].hi == 2.0
        # No value at all: the domain stays NaN, and a grid over it names
        # the attribute.
        assert math.isnan(d["y"].lo) and math.isnan(d["y"].hi)
        with pytest.raises(PredicateError, match="'y'"):
            EquiWidthDiscretizer("y", d["y"].lo, d["y"].hi, 4)

    def test_unknown_attribute_rejected(self):
        with pytest.raises(PredicateError):
            domain()["zz"]

    def test_full_predicate_matches_all(self):
        assert domain().full_predicate().mask(TABLE).all()

    def test_simplify_drops_full_span_clauses(self):
        p = Predicate([RangeClause("x", 0.0, 100.0),
                       SetClause("s", ["a"])])
        simplified = domain().simplify(p)
        assert simplified.attributes == ("s",)

    def test_simplify_keeps_partial_clauses(self):
        p = Predicate([RangeClause("x", 0.0, 99.0)])
        assert domain().simplify(p) == p

    def test_simplify_keeps_foreign_attributes(self):
        p = Predicate([RangeClause("other", 0, 1)])
        assert domain().simplify(p) == p


class TestEnumerator:
    def test_single_attribute_counts(self):
        enum = PredicateEnumerator(Domain.from_table(TABLE, ["x"]), n_bins=4)
        predicates = list(enum.enumerate())
        assert len(predicates) == 4 * 5 // 2

    def test_discrete_counts_all_subsets(self):
        enum = PredicateEnumerator(Domain.from_table(TABLE, ["s"]))
        predicates = list(enum.enumerate())
        # Non-empty subsets of a 3-value attribute: 2^3 − 1.
        assert len(predicates) == 7

    def test_no_duplicates(self):
        enum = PredicateEnumerator(domain(), n_bins=3)
        predicates = list(enum.enumerate())
        assert len(predicates) == len(set(predicates))

    def test_complexity_ordering(self):
        enum = PredicateEnumerator(domain(), n_bins=3)
        clause_counts = [p.num_clauses for p in enum.enumerate()]
        assert clause_counts == sorted(clause_counts)

    def test_max_clauses_cap(self):
        enum = PredicateEnumerator(domain(), n_bins=3, max_clauses=1)
        assert all(p.num_clauses == 1 for p in enum.enumerate())

    def test_max_discrete_set_size_cap(self):
        enum = PredicateEnumerator(Domain.from_table(TABLE, ["s"]),
                                   max_discrete_set_size=1)
        predicates = list(enum.enumerate())
        assert len(predicates) == 3

    def test_covers_cartesian_combinations(self):
        enum = PredicateEnumerator(Domain.from_table(TABLE, ["s", "t"]),
                                   max_discrete_set_size=1)
        two_dim = [p for p in enum.enumerate() if p.num_clauses == 2]
        assert len(two_dim) == 3 * 2

    def test_unit_clauses_continuous(self):
        enum = PredicateEnumerator(domain(), n_bins=5)
        units = enum.unit_clauses("x")
        assert len(units) == 5

    def test_unit_clauses_discrete(self):
        enum = PredicateEnumerator(domain())
        units = enum.unit_clauses("s")
        assert {tuple(u.values)[0] for u in units} == {"a", "b", "c"}

    def test_discrete_clauses_exact_size(self):
        enum = PredicateEnumerator(domain())
        pairs = list(enum.discrete_clauses("s", 2))
        assert len(pairs) == 3
        assert all(len(c.values) == 2 for c in pairs)

    def test_discretizer_for_discrete_rejected(self):
        with pytest.raises(PredicateError):
            PredicateEnumerator(domain()).discretizer("s")

    def test_enumeration_is_lazy(self):
        enum = PredicateEnumerator(domain(), n_bins=15)
        first_five = list(itertools.islice(enum.enumerate(), 5))
        assert len(first_five) == 5
