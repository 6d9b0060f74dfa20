"""Differential oracle for MC's array search.

:class:`ReferenceMC` is a frozen copy of the search MC ran before it
moved onto arrays: a ``frozenset`` support per cell, a scalar
refinement bound per cell (evaluated again as the level cap's sort
key), pairwise ``frozenset`` intersections, and a
:meth:`Predicate.contains` filter after each round.  The properties
below run it and :class:`MCPartitioner` on the same problems and require
the same cells, supports, bounds (``float.hex``), ranked predicates,
influences, scorer counters and Merger reports, round by round.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import Count, Sum
from repro.core.influence import INVALID_INFLUENCE, InfluenceScorer
from repro.core.mc import MCPartitioner, _OutlierIndex
from repro.core.merger import Merger, MergerParams
from repro.core.partition import (
    CandidatePredicate,
    PartitionerResult,
    ScoredPredicate,
)
from repro.core.problem import ScorpionQuery
from repro.datasets import ExpensesConfig, generate_expenses
from repro.obs.trace import span
from repro.predicates.clause import SetClause
from repro.predicates.discretizer import EquiWidthDiscretizer
from repro.predicates.predicate import Predicate
from repro.query.groupby import GroupByQuery
from repro.table import ColumnKind, ColumnSpec, Schema, Table

from tests.conftest import planted_sum_table


# ----------------------------------------------------------------------
# The frozen reference
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _RefCell:
    """A grid cell of the current dimensionality plus its outlier support
    (positions into the concatenated outlier rows)."""

    predicate: Predicate
    support: frozenset


class _RefOutlierIndex:
    """Per-outlier-row arrays for the scalar support-based bound."""

    def __init__(self, scorer: InfluenceScorer):
        self.scorer = scorer
        contexts = scorer.outlier_contexts
        self.n_groups = len(contexts)
        self.group_ids = np.concatenate([
            np.full(ctx.size, g, dtype=np.int64) for g, ctx in enumerate(contexts)
        ])
        self.influences = np.concatenate([
            np.nan_to_num(scorer.tuple_influences(ctx), nan=0.0,
                          posinf=0.0, neginf=0.0)
            for ctx in contexts
        ])

    def refinement_bound(self, cell: _RefCell) -> float:
        if not cell.support:
            return INVALID_INFLUENCE
        rows = np.fromiter(cell.support, dtype=np.int64, count=len(cell.support))
        groups = self.group_ids[rows]
        influences = self.influences[rows]
        total = 0.0
        for g in np.unique(groups):
            positive = influences[(groups == g) & (influences > 0)]
            if not len(positive):
                continue
            positive[::-1].sort()
            prefix = np.cumsum(positive)
            ks = np.arange(1, len(positive) + 1, dtype=np.float64)
            total += float(np.max(prefix / ks ** self.scorer.c))
        return self.scorer.lam * total / max(self.n_groups, 1)


class ReferenceMC(MCPartitioner):
    """MC with per-cell ``frozenset`` supports and scalar bounds.  Each
    round appends what it saw to ``rounds`` (see :func:`_round_record`)."""

    def __init__(self, **params):
        super().__init__(**params)
        self.rounds: list[dict] = []

    def run(self, query, scorer=None):
        start = time.perf_counter()
        scorer = scorer or InfluenceScorer(query)
        self._validate(query, scorer)
        merger = Merger(scorer, query.domain, params=self.merger_params)
        index = _RefOutlierIndex(scorer)

        cells = self._initial_units(query, scorer)
        best_influence = float("-inf")
        ranked: dict[Predicate, float] = {}
        max_rounds = self.max_iterations or len(query.attributes)

        for round_index in range(max_rounds):
            with span("mc_round") as rsp:
                if round_index > 0:
                    cells = self._intersect(cells)
                if not cells:
                    break
                produced = cells
                cells = self._prune(cells, index, best_influence)
                record = _round_record(
                    [(c.predicate, c.support) for c in produced],
                    [index.refinement_bound(c) for c in produced],
                    [(c.predicate, c.support) for c in cells])
                self.rounds.append(record)
                if rsp:
                    rsp.annotate(round=round_index + 1, cells=len(cells))
                if not cells:
                    break
                cell_scores = scorer.score_batch(
                    [cell.predicate for cell in cells], ignore_holdouts=True)
                candidates = [
                    CandidatePredicate(cell.predicate, score=float(score))
                    for cell, score in zip(cells, cell_scores)
                ]
                merged = merger.run(candidates)
                for scored in merged:
                    previous = ranked.get(scored.predicate)
                    if previous is None or scored.influence > previous:
                        ranked[scored.predicate] = scored.influence
                better = [sp for sp in merged if sp.influence > best_influence]
                if not better:
                    break
                best_influence = max(sp.influence for sp in better)
                promising = [sp.predicate for sp in better]
                cells = [cell for cell in cells
                         if any(pm.contains(cell.predicate) for pm in promising)]
                record["contained"] = [(c.predicate, c.support) for c in cells]

        ranked_list = [ScoredPredicate(p, inf) for p, inf in ranked.items()]
        ranked_list.sort(key=lambda sp: sp.influence, reverse=True)
        return PartitionerResult(
            candidates=[],
            ranked=ranked_list,
            elapsed=time.perf_counter() - start,
            n_evaluated=scorer.stats.mask_scores,
        )

    def _initial_units(self, query, scorer):
        cells: list[_RefCell] = []
        outlier_rows = np.concatenate(
            [ctx.indices for ctx in scorer.outlier_contexts])
        for spec in query.domain:
            values = query.table.values(spec.name)[outlier_rows]
            positions_by_unit: dict = {}
            if spec.is_continuous:
                grid = EquiWidthDiscretizer(spec.name, spec.lo, spec.hi, self.n_bins)
                for position, value in enumerate(values):
                    positions_by_unit.setdefault(
                        grid.bin_index(float(value)), []).append(position)
                for bin_index in sorted(positions_by_unit):
                    cells.append(_RefCell(
                        Predicate([grid.cell(bin_index)]),
                        frozenset(positions_by_unit[bin_index]),
                    ))
            else:
                for position, value in enumerate(values):
                    positions_by_unit.setdefault(value, []).append(position)
                for value in sorted(positions_by_unit, key=repr):
                    cells.append(_RefCell(
                        Predicate([SetClause(spec.name, [value])]),
                        frozenset(positions_by_unit[value]),
                    ))
        return cells

    def _intersect(self, cells):
        produced = self._produce(cells)
        return sorted(produced.values(), key=lambda cell: str(cell.predicate))

    def _produce(self, cells):
        """The intersections, in the order the pairwise loop made them."""
        by_attrs: dict[frozenset, list[_RefCell]] = {}
        for cell in cells:
            by_attrs.setdefault(frozenset(cell.predicate.attributes), []).append(cell)
        produced: dict[Predicate, _RefCell] = {}
        attr_sets = list(by_attrs)
        for set_a, set_b in itertools.combinations_with_replacement(attr_sets, 2):
            if len(set_a) != len(set_b) or len(set_a | set_b) != len(set_a) + 1:
                continue
            pairs = (
                itertools.combinations(by_attrs[set_a], 2)
                if set_a is set_b
                else itertools.product(by_attrs[set_a], by_attrs[set_b])
            )
            for cell_a, cell_b in pairs:
                support = cell_a.support & cell_b.support
                if not support:
                    continue
                intersection = cell_a.predicate.intersect(cell_b.predicate)
                if intersection is None or intersection.num_clauses != len(set_a) + 1:
                    continue
                if intersection not in produced:
                    produced[intersection] = _RefCell(intersection, support)
        return produced

    def _prune(self, cells, index, best_influence):
        if best_influence == float("-inf"):
            kept = list(cells)
        else:
            kept = [cell for cell in cells
                    if index.refinement_bound(cell) >= best_influence]
        if len(kept) > self.max_predicates_per_level:
            kept.sort(key=index.refinement_bound, reverse=True)
            kept = kept[: self.max_predicates_per_level]
        return kept


class RecordingMC(MCPartitioner):
    """:class:`MCPartitioner` appending the same per-round records."""

    def __init__(self, **params):
        super().__init__(**params)
        self.rounds: list[dict] = []

    def _prune(self, level, index, best_influence):
        kept, predicates = super()._prune(level, index, best_influence)
        self.rounds.append(_round_record(
            list(zip(level.predicates(), _supports(level))),
            index.bounds(level.supports).tolist(),
            list(zip(predicates, _supports(kept)))))
        return kept, predicates

    def _contained(self, level, promising):
        contained = super()._contained(level, promising)
        self.rounds[-1]["contained"] = list(zip(contained.predicates(),
                                                _supports(contained)))
        return contained


def _supports(level) -> list[frozenset]:
    return [frozenset(np.flatnonzero(row).tolist()) for row in level.supports]


def _round_record(produced, bounds, kept) -> dict:
    """One round: the cells pruning saw (with their supports and bounds,
    by predicate — the two searches produce them in different orders)
    and the cells it kept, in the order they ran."""
    return {
        "produced": {p: s for p, s in produced},
        "bounds": {p: float(b).hex() for (p, _), b in zip(produced, bounds)},
        "kept": [(str(p), p, s) for p, s in kept],
    }


@contextmanager
def _merger_reports():
    """Record a copy of the Merger's report after every ``run``."""
    reports: list[dict] = []
    original = Merger.run

    def run(self, *args, **kwargs):
        merged = original(self, *args, **kwargs)
        reports.append({f.name: getattr(self.report, f.name)
                        for f in fields(self.report) if f.name != "elapsed"})
        return merged

    with mock.patch.object(Merger, "run", run):
        yield reports


def _search(partitioner, problem):
    scorer = InfluenceScorer(problem)
    with _merger_reports() as reports:
        result = partitioner.run(problem, scorer)
    stats = scorer.stats
    return {
        "rounds": partitioner.rounds,
        "ranked": [(str(sp.predicate), sp.predicate, float(sp.influence).hex())
                   for sp in result.ranked],
        "counters": (stats.mask_scores, stats.batch_calls,
                     stats.batch_predicates, stats.cache_hits),
        "merger_reports": reports,
        "n_evaluated": result.n_evaluated,
    }


def _assert_matches_reference(problem, **params):
    expected = _search(ReferenceMC(**params), problem)
    actual = _search(RecordingMC(**params), problem)
    assert len(actual["rounds"]) == len(expected["rounds"])
    for got, want in zip(actual["rounds"], expected["rounds"]):
        assert got["produced"] == want["produced"]
        assert got["bounds"] == want["bounds"]
        assert got["kept"] == want["kept"]
        assert got.get("contained") == want.get("contained")
    assert actual == expected
    return actual


# ----------------------------------------------------------------------
# Random small problems
# ----------------------------------------------------------------------
#: Discrete values: "1" and 1 print alike (ties in the text order), and
#: 1, 1.0 and True are one dict key with three reprs.
_DISCRETE = ["a", "b", "c", "1", 1, 1.0, True]


def _sum_problem(columns, specs, names, n_outliers, aggregate, c, lam):
    table = Table.from_columns(Schema(specs), columns)
    return ScorpionQuery(table, GroupByQuery("g", aggregate, "v"),
                         outliers=names[:n_outliers], holdouts=names[n_outliers:],
                         error_vectors=+1.0, c=c, lam=lam)


@st.composite
def mc_problems(draw):
    """A small SUM or COUNT problem: 1-3 outlier and 0-2 hold-out groups
    of 1-30 rows, 1-3 continuous attributes (few or many distinct finite
    values, sometimes constant) and 0-2 discrete ones, at least two
    attributes in all, with random ``c`` and ``λ``."""
    n_outliers = draw(st.integers(1, 3))
    n_holdouts = draw(st.integers(0, 2))
    sizes = draw(st.lists(st.integers(1, 30), min_size=n_outliers + n_holdouts,
                          max_size=n_outliers + n_holdouts))
    levels = draw(st.lists(st.sampled_from([1, 3, 1000]), min_size=1, max_size=3))
    # One attribute alone never reaches a second level.
    n_discrete = draw(st.integers(0 if len(levels) > 1 else 1, 2))
    cardinalities = draw(st.lists(st.integers(1, len(_DISCRETE)),
                                  min_size=n_discrete, max_size=n_discrete))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = [f"g{i}" for i in range(len(sizes))]
    n = sum(sizes)
    columns = {"g": np.repeat(names, sizes).astype(object)}
    specs = [ColumnSpec("g", ColumnKind.DISCRETE)]
    for i, count in enumerate(levels):
        columns[f"x{i}"] = np.round(rng.uniform(0, 10, n) * count / 10) * (10 / count)
        specs.append(ColumnSpec(f"x{i}", ColumnKind.CONTINUOUS))
    # The first discrete attribute sometimes holds None or distinct NaN
    # objects (distinct dict keys that all print "nan").
    nulls = draw(st.sampled_from([None, "none", "nan"]))
    for i, cardinality in enumerate(cardinalities):
        pool = _DISCRETE[:cardinality]
        column = np.empty(n, dtype=object)
        for row, pick in enumerate(rng.integers(0, cardinality, n)):
            column[row] = pool[pick]
        if nulls and i == 0:
            for row in np.flatnonzero(rng.random(n) < 0.2):
                column[row] = None if nulls == "none" else float("nan")
        columns[f"s{i}"] = column
        specs.append(ColumnSpec(f"s{i}", ColumnKind.DISCRETE))
    # Small integers tie often, in influences and in bounds.
    value = rng.integers(0, draw(st.sampled_from([2, 5, 50])), n).astype(float)
    hot = np.isin(columns["g"], names[:n_outliers]) & (columns["x0"] > 5)
    value[hot] += draw(st.sampled_from([0.0, 20.0]))
    columns["v"] = value
    specs.append(ColumnSpec("v", ColumnKind.CONTINUOUS))
    if draw(st.booleans()):
        # Interleaved groups: a value's first object in the column can be
        # a hold-out row's.
        order = rng.permutation(n)
        columns = {name: column[order] for name, column in columns.items()}
    aggregate = draw(st.sampled_from([Sum, Count]))()
    c = draw(st.one_of(st.sampled_from([0.0, 0.05, 0.25, 0.3, 0.37, 0.5, 0.77, 1.0]),
                       st.floats(0.0, 1.0)))
    lam = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    return _sum_problem(columns, specs, names, n_outliers, aggregate, c, lam)


mc_params = st.fixed_dictionaries({
    "n_bins": st.integers(1, 8),
    "max_iterations": st.one_of(st.none(), st.integers(1, 4)),
    # Small caps truncate levels, often among equal bounds.
    "max_predicates_per_level": st.one_of(st.integers(1, 6), st.just(4096)),
    # Expanding every cell makes more attributes promising, so more
    # searches reach a third level.
    "merger_params": st.sampled_from(
        [None, MergerParams(expand_fraction=1.0, use_approximation=False)]),
})


class TestReferenceOracle:
    @settings(max_examples=150, deadline=None)
    @given(problem=mc_problems(), params=mc_params)
    def test_matches_reference_search(self, problem, params):
        _assert_matches_reference(problem, **params)

    def test_matches_reference_on_expenses_request(self):
        # The expenses-mc benchmark request: seed-0 EXPENSE at c = 0.5,
        # explained with the default MC parameters.
        dataset = generate_expenses(ExpensesConfig(rows_per_day=30, seed=0))
        actual = _assert_matches_reference(dataset.scorpion_query(c=0.5))
        assert len(actual["rounds"]) == 2
        assert actual["ranked"][0][0] == "file_num = 800316"

    @pytest.mark.parametrize("cap", [3, 4096])
    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
    def test_matches_reference_on_planted_sum(self, c, cap):
        table, outliers, holdouts = planted_sum_table(n_per_group=60)
        problem = ScorpionQuery(table, GroupByQuery("g", Sum(), "value"),
                                outliers=outliers, holdouts=holdouts,
                                error_vectors=+1.0, c=c)
        _assert_matches_reference(problem, n_bins=10,
                                  max_predicates_per_level=cap)

    @pytest.mark.parametrize("c", [0.3, 0.77])
    def test_matches_reference_with_many_outlier_groups(self, c):
        # Eleven outlier groups: a bound sums more terms than a pairwise
        # (blocked) summation adds one by one.
        rng = np.random.default_rng(11)
        names = [f"g{i:02d}" for i in range(13)]
        n = 13 * 40
        columns = {"g": np.repeat(names, 40).astype(object),
                   "x0": rng.uniform(0, 10, n), "x1": rng.uniform(0, 1, n),
                   "v": rng.uniform(0, 100, n)}
        specs = [ColumnSpec("g", ColumnKind.DISCRETE),
                 ColumnSpec("x0", ColumnKind.CONTINUOUS),
                 ColumnSpec("x1", ColumnKind.CONTINUOUS),
                 ColumnSpec("v", ColumnKind.CONTINUOUS)]
        problem = _sum_problem(columns, specs, names, 11, Sum(), c, 0.5)
        _assert_matches_reference(problem, n_bins=6)


def _cells(level) -> list[tuple]:
    return list(zip(level.predicates(), _supports(level)))


class TestLevelOperations:
    """Each level operation against the reference's, on random subsets
    of the levels in random order — orders a search rarely reaches."""

    @settings(max_examples=100, deadline=None)
    @given(problem=mc_problems(), n_bins=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_levels_match_reference(self, problem, n_bins, seed):
        rng = np.random.default_rng(seed)
        reference, mc = ReferenceMC(n_bins=n_bins), MCPartitioner(n_bins=n_bins)
        scorer = InfluenceScorer(problem)
        ref_index, index = _RefOutlierIndex(scorer), _OutlierIndex(scorer)
        cells = reference._initial_units(problem, scorer)
        level = mc._initial_units(problem, scorer)
        for _ in range(3):
            assert _cells(level) == [(c.predicate, c.support) for c in cells]
            assert ([float(b).hex() for b in index.bounds(level.supports)]
                    == [float(ref_index.refinement_bound(c)).hex() for c in cells])
            promising = [cells[i].predicate.merge(cells[j].predicate)
                         for i, j in rng.integers(0, len(cells), (3, 2))]
            assert _cells(mc._contained(level, promising)) == [
                (c.predicate, c.support) for c in cells
                if any(pm.contains(c.predicate) for pm in promising)]
            subset = rng.permutation(len(cells))[: rng.integers(1, len(cells) + 1)]
            cells = list(reference._produce([cells[i] for i in subset]).values())
            level = mc._intersect(level.take(subset))
            if not cells:
                assert not len(level)
                break
