"""Unit tests for the CLIQUE subspace-clustering substrate."""

import numpy as np
import pytest

from repro.clustering.clique import Clique
from repro.clustering.units import GridUnit, grid_units, unit_predicate
from repro.errors import PartitionerError
from repro.table import ColumnKind, ColumnSpec, Schema, Table


def clustered_table(seed=0, n=400):
    """Points with a dense blob at x ∈ [20, 30], y ∈ [60, 70]."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 100, n)
    y = rng.uniform(0, 100, n)
    x[: n // 3] = rng.uniform(20, 30, n // 3)
    y[: n // 3] = rng.uniform(60, 70, n // 3)
    s = np.where(np.arange(n) < n // 3, "in", "out")
    return Table.from_columns(
        Schema([ColumnSpec("x", ColumnKind.CONTINUOUS),
                ColumnSpec("y", ColumnKind.CONTINUOUS),
                ColumnSpec("s", ColumnKind.DISCRETE)]),
        {"x": x, "y": y, "s": s})


class TestGridUnits:
    def test_units_cover_all_rows(self):
        table = clustered_table(n=100)
        units, _ = grid_units(table, ["x"], n_bins=10)
        covered = sorted(p for unit in units for p in unit.support)
        assert covered == list(range(100))

    def test_discrete_units_by_value(self):
        table = clustered_table(n=90)
        units, _ = grid_units(table, ["s"])
        assert {u.keys[0][1] for u in units} == {"in", "out"}

    def test_missing_value_lies_in_no_unit(self):
        table = Table.from_columns(
            Schema([ColumnSpec("x", ColumnKind.CONTINUOUS)]),
            {"x": np.array([1.0, 5.0, np.nan, 9.0])})
        units, grids = grid_units(table, ["x"], n_bins=4)
        by_key = {unit.keys: unit.support for unit in units}
        assert by_key[(("x", 3),)] == frozenset({3})
        assert all(2 not in unit.support for unit in units)
        for unit in units:
            matched = np.flatnonzero(unit_predicate(unit, table, grids)
                                     .mask(table))
            assert frozenset(matched.tolist()) == unit.support

    def test_join_shares_all_but_one(self):
        a = GridUnit((("x", 1),), frozenset({0, 1, 2}))
        b = GridUnit((("y", 4),), frozenset({1, 2, 3}))
        joined = a.join(b)
        assert joined.keys == (("x", 1), ("y", 4))
        assert joined.support == frozenset({1, 2})

    def test_join_conflicting_keys_is_none(self):
        a = GridUnit((("x", 1),), frozenset({0}))
        b = GridUnit((("x", 2),), frozenset({0}))
        assert a.join(b) is None

    def test_join_empty_support_is_none(self):
        a = GridUnit((("x", 1),), frozenset({0}))
        b = GridUnit((("y", 2),), frozenset({1}))
        assert a.join(b) is None

    def test_adjacency_one_step(self):
        a = GridUnit((("x", 1), ("y", 5)), frozenset({0}))
        b = GridUnit((("x", 2), ("y", 5)), frozenset({1}))
        c = GridUnit((("x", 2), ("y", 6)), frozenset({2}))
        assert a.is_adjacent_to(b)
        assert not a.is_adjacent_to(c)  # two steps away

    def test_discrete_keys_not_adjacent(self):
        a = GridUnit((("s", "in"),), frozenset({0}))
        b = GridUnit((("s", "out"),), frozenset({1}))
        assert not a.is_adjacent_to(b)

    def test_unit_predicate_materialization(self):
        table = clustered_table(n=60)
        units, grids = grid_units(table, ["x", "s"], n_bins=4)
        for unit in units:
            predicate = unit_predicate(unit, table, grids)
            mask = predicate.mask(table)
            assert set(np.flatnonzero(mask)) == set(unit.support)

    def test_empty_attributes_rejected(self):
        with pytest.raises(PartitionerError):
            grid_units(clustered_table(n=10), [])


class TestClique:
    def test_finds_dense_blob(self):
        table = clustered_table()
        clusters = Clique(density_threshold=0.08, n_bins=10).fit(table, ["x", "y"])
        two_d = [c for c in clusters if len(c.attributes) == 2]
        assert two_d, "expected a dense 2-d subspace"
        best = max(two_d, key=lambda c: len(c.support))
        x_clause = best.predicate.clause_for("x")
        y_clause = best.predicate.clause_for("y")
        assert x_clause.lo <= 25 <= x_clause.hi
        assert y_clause.lo <= 65 <= y_clause.hi

    def test_density_anti_monotone(self):
        table = clustered_table()
        clique = Clique(density_threshold=0.08, n_bins=10)
        clusters = clique.fit(table, ["x", "y"])
        total = len(table)
        for cluster in clusters:
            for unit in cluster.units:
                assert unit.density(total) >= clique.density_threshold

    def test_high_threshold_prunes_everything_above_1d(self):
        table = clustered_table()
        clusters = Clique(density_threshold=0.5, n_bins=10).fit(table, ["x", "y"])
        assert all(len(c.attributes) == 1 for c in clusters)

    def test_max_dimensionality(self):
        table = clustered_table()
        clusters = Clique(density_threshold=0.02, n_bins=5,
                          max_dimensionality=1).fit(table, ["x", "y", "s"])
        assert all(len(c.attributes) == 1 for c in clusters)

    def test_clusters_are_connected_components(self):
        table = clustered_table()
        clusters = Clique(density_threshold=0.05, n_bins=10).fit(table, ["x"])
        # Units inside one cluster must form a connected chain.
        for cluster in clusters:
            if len(cluster.units) < 2:
                continue
            for unit in cluster.units:
                assert any(unit.is_adjacent_to(other)
                           for other in cluster.units if other is not unit)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(PartitionerError):
            Clique(density_threshold=0.0)
