"""The MC (bottom-up) partitioner for independent, anti-monotonic
aggregates (paper Section 6.2).

MC adapts CLIQUE-style subspace clustering: start from single-attribute
*unit* predicates (grid cells / single values), intersect pairs that
differ in exactly one attribute to refine dimensionality, prune with the
anti-monotonicity of ``Δ``, and merge adjacent survivors.  The search
stops as soon as a round of merging fails to beat the incumbent best.

Pruning keeps a predicate when its *refinement bound* — the best
influence any contained predicate could still achieve, given additive
Δ — reaches the incumbent.  This deviates from the paper on purpose:
Section 6.2 keeps a predicate when its own influence, or the influence
of its best single tuple, reaches the incumbent.  The bound dominates
both of those conditions and reduces to the single-tuple rule at
``c = 1``.  At ``c < 1`` the single-tuple rule is not sound — k matched
tuples can together score ``Σδ / k^c`` above any one of them — and it
would prune regions that hold the answer
(:meth:`InfluenceScorer.refinement_bound`).

Implementation note: the search runs on arrays, one level at a time.  A
level (:class:`_Level`) is a unit-id matrix — one row per cell, one
column per domain attribute, ``-1`` where the cell leaves the attribute
unconstrained — and a boolean *support* matrix marking the outlier rows
each cell matches.  Each attribute's units partition the outlier rows,
so two cells that share a row agree on every attribute both constrain:
their intersection is the elementwise ``max`` of their unit rows, and
its support the AND of theirs.  The refinement bounds of a whole level
come from one pass over its supports (:class:`_OutlierIndex`), and the
containment filter after each round looks up one boolean per unit for
each distinct clause of the promising predicates.  Predicates are built
only for the cells that survive pruning.  Their ranking —
``inf(O, ∅, p, V)`` for every surviving cell — goes through one
:meth:`InfluenceScorer.score_batch` call per round rather than a Scorer
round-trip per cell.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from repro.core.influence import INVALID_INFLUENCE, InfluenceScorer
from repro.core.merger import Merger, MergerParams
from repro.core.partition import (
    CandidatePredicate,
    PartitionerResult,
    ScoredPredicate,
)
from repro.core.problem import ScorpionQuery
from repro.errors import PartitionerError
from repro.obs.trace import span
from repro.predicates.clause import Clause, SetClause
from repro.predicates.discretizer import EquiWidthDiscretizer
from repro.predicates.predicate import Predicate
from repro.predicates.space import AttributeDomain
from repro.table.column import Column


class _Grid:
    """The units of one search.  Unit ``u`` is the clause ``clauses[u]``;
    the units of domain attribute ``j`` have the consecutive ids
    ``ids[j]``."""

    def __init__(self, attributes: list[str], clauses: list[list[Clause]]):
        #: Domain attribute -> its column in a level's unit matrix.
        self.columns = {name: j for j, name in enumerate(attributes)}
        self.clauses = [clause for unit_clauses in clauses for clause in unit_clauses]
        ends = np.cumsum([len(unit_clauses) for unit_clauses in clauses])
        self.ids = [np.arange(end - len(unit_clauses), end)
                    for end, unit_clauses in zip(ends, clauses)]

    def accepts(self, clause: Clause) -> np.ndarray:
        """Which units ``clause`` contains, by unit id, plus a trailing
        False that an unconstrained cell's ``-1`` picks."""
        accepted = np.zeros(len(self.clauses) + 1, dtype=bool)
        for unit in self.ids[self.columns[clause.attribute]]:
            accepted[unit] = clause.contains(self.clauses[unit])
        return accepted


@dataclass(frozen=True, eq=False)
class _Level:
    """The cells of one level: cell ``i`` constrains domain attribute
    ``j`` to unit ``units[i, j]`` (``-1``: unconstrained) and matches the
    outlier rows where ``supports[i]`` is True."""

    units: np.ndarray
    supports: np.ndarray
    grid: _Grid

    def __len__(self) -> int:
        return len(self.units)

    @property
    def dims(self) -> int:
        """Attributes each cell constrains (0 for an empty level)."""
        return int(np.count_nonzero(self.units[0] >= 0)) if len(self) else 0

    def take(self, cells: np.ndarray) -> "_Level":
        return _Level(self.units[cells], self.supports[cells], self.grid)

    def predicates(self) -> list[Predicate]:
        clauses = self.grid.clauses
        return [Predicate([clauses[unit] for unit in row if unit >= 0])
                for row in self.units.tolist()]


class _OutlierIndex:
    """Refinement bounds of whole levels.

    The positive-influence outlier rows are presorted once by (group,
    influence descending).  A cell's matched rows, read in that order,
    are the descending influences of each group it touches, so the
    bound of :meth:`InfluenceScorer.refinement_bound` — per group, the
    best ``(Σ top-k) / k^c``, summed over groups — takes one cumulative
    sum per (cell, group) run, with the scalar bound's exact operations
    and order."""

    def __init__(self, scorer: InfluenceScorer):
        self.scorer = scorer
        contexts = scorer.outlier_contexts
        self.n_groups = len(contexts)
        groups = np.concatenate([
            np.full(ctx.size, g, dtype=np.int64) for g, ctx in enumerate(contexts)
        ])
        influences = np.concatenate([
            np.nan_to_num(scorer.tuple_influences(ctx), nan=0.0,
                          posinf=0.0, neginf=0.0)
            for ctx in contexts
        ])
        positive = np.flatnonzero(influences > 0)
        self.order = positive[np.lexsort((-influences[positive], groups[positive]))]
        self.groups = groups[self.order]
        self.influences = influences[self.order]

    def bounds(self, supports: np.ndarray) -> np.ndarray:
        """Upper bound on any refinement's hold-out-free influence, for
        every cell (row) of ``supports``; ``INVALID_INFLUENCE`` for an
        empty support."""
        n_cells = len(supports)
        cell, position = np.nonzero(supports[:, self.order])
        groups = self.groups[position]
        starts = np.flatnonzero((np.diff(cell, prepend=-1) != 0)
                                | (np.diff(groups, prepend=-1) != 0))
        per_group = np.zeros((n_cells, self.n_groups))
        per_group[cell[starts], groups[starts]] = self._run_peaks(
            self.influences[position], starts)
        total = np.zeros(n_cells)
        for g in range(self.n_groups):  # left to right, as the scalar bound adds
            total += per_group[:, g]
        bounds = self.scorer.lam * total / max(self.n_groups, 1)
        bounds[~supports.any(axis=1)] = INVALID_INFLUENCE
        return bounds

    def _run_peaks(self, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """``max_k (Σ first k) / k^c`` of every run of ``values``.

        Runs are laid out as padded rows and summed along them.  Runs of
        similar length share a layout (lengths in ``(2^(s-1), 2^s]``), so
        the padding at most doubles the work: the pass costs
        O(total support), not O(runs × longest run)."""
        lengths = np.diff(starts, append=len(values))
        peaks = np.empty(len(starts))
        if not len(starts):
            return peaks
        run_of = np.repeat(np.arange(len(starts)), lengths)
        offsets = np.arange(len(values)) - starts[run_of]
        k_powers = (np.arange(1, lengths.max() + 1, dtype=np.float64)
                    ** self.scorer.c)
        size_class = np.frexp(lengths - 1)[1]
        for size in np.unique(size_class):
            runs = np.flatnonzero(size_class == size)
            width = int(lengths[runs].max())
            members = size_class[run_of] == size
            padded = np.zeros((len(runs), width))
            padded[np.searchsorted(runs, run_of[members]), offsets[members]] = \
                values[members]
            ratios = np.cumsum(padded, axis=1) / k_powers[:width]
            ratios[np.arange(width) >= lengths[runs, None]] = -np.inf
            peaks[runs] = ratios.max(axis=1)
        return peaks


def _continuous_units(spec: AttributeDomain, values: np.ndarray,
                      n_bins: int) -> tuple[list[Clause], np.ndarray]:
    """The grid cells ``values`` fall in, in bin order, and the cell of
    each value (``-1`` for a missing one)."""
    grid = EquiWidthDiscretizer(spec.name, spec.lo, spec.hi, n_bins)
    bins = np.searchsorted(grid.edges, values, side="right") - 1
    np.clip(bins, 0, grid.n_bins - 1, out=bins)  # clamped to the domain
    bins[np.isnan(values)] = -1
    present = np.unique(bins[bins >= 0])
    units = np.where(bins >= 0, np.searchsorted(present, bins), -1)
    return [grid.cell(int(b)) for b in present], units


def _discrete_units(column: Column, rows: np.ndarray,
                    ) -> tuple[list[Clause], np.ndarray]:
    """The values of ``column`` at ``rows`` as equality classes (``dict``
    keys), each named by its first object among ``rows`` and ordered by
    that object's ``repr``, then by first appearance; and the class of
    each row."""
    codes = column.codes()[0][rows]
    _, first, classes = np.unique(codes, return_index=True, return_inverse=True)
    objects = column.values[rows[first]]
    order = sorted(range(len(first)), key=lambda k: (repr(objects[k]), first[k]))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return ([SetClause(column.name, [objects[k]]) for k in order],
            rank[classes.reshape(-1)])


class MCPartitioner:
    """Bottom-up influential-subspace search.

    Parameters
    ----------
    n_bins:
        Equi-width cells per continuous attribute (paper: 15).
    max_iterations:
        Cap on refinement rounds (None = number of attributes).
    max_predicates_per_level:
        Keep at most this many predicates per round (best pruning
        bounds first) to bound worst-case blow-up.
    merger_params:
        Overrides for the internal Merger.  Defaults to exact scoring
        (the cached-state approximation is a DT-input optimization) with
        the Section 6.3 top-quartile expansion, which keeps merging cost
        linear-ish in the unit count on discrete-heavy data; pass
        ``MergerParams(expand_fraction=1.0, use_approximation=False)``
        for the paper's basic merger.
    require_check:
        Verify the aggregate's anti-monotonicity ``check`` on every
        labeled group's data and refuse to run when it fails.
    """

    name = "mc"

    def __init__(self, n_bins: int = 15, max_iterations: int | None = None,
                 max_predicates_per_level: int = 4096,
                 merger_params: MergerParams | None = None,
                 require_check: bool = True):
        if n_bins < 1:
            raise PartitionerError(f"n_bins must be >= 1, got {n_bins}")
        if max_predicates_per_level < 1:
            raise PartitionerError(
                f"max_predicates_per_level must be >= 1, got {max_predicates_per_level}")
        self.n_bins = n_bins
        self.max_iterations = max_iterations
        self.max_predicates_per_level = max_predicates_per_level
        self.merger_params = merger_params or MergerParams(
            expand_fraction=0.25, use_approximation=False)
        self.require_check = require_check

    # ------------------------------------------------------------------
    def run(self, query: ScorpionQuery, scorer: InfluenceScorer | None = None,
            ) -> PartitionerResult:
        start = time.perf_counter()
        scorer = scorer or InfluenceScorer(query)
        self._validate(query, scorer)
        merger = Merger(scorer, query.domain, params=self.merger_params)
        index = _OutlierIndex(scorer)

        level = self._initial_units(query, scorer)
        best_influence = float("-inf")
        ranked: dict[Predicate, float] = {}
        max_rounds = self.max_iterations or len(query.attributes)

        for round_index in range(max_rounds):
            with span("mc_round") as rsp:
                if round_index > 0:
                    level = self._intersect(level)
                if not len(level):
                    break
                level, predicates = self._prune(level, index, best_influence)
                if rsp:
                    rsp.annotate(round=round_index + 1, cells=len(level))
                if not len(level):
                    break
                cell_scores = scorer.score_batch(predicates, ignore_holdouts=True)
                candidates = [
                    CandidatePredicate(predicate, score=float(score))
                    for predicate, score in zip(predicates, cell_scores)
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
                level = self._contained(level, [sp.predicate for sp in better])

        ranked_list = [ScoredPredicate(p, inf) for p, inf in ranked.items()]
        ranked_list.sort(key=lambda sp: sp.influence, reverse=True)
        return PartitionerResult(
            candidates=[],
            ranked=ranked_list,
            elapsed=time.perf_counter() - start,
            n_evaluated=scorer.stats.mask_scores,
        )

    # ------------------------------------------------------------------
    def _validate(self, query: ScorpionQuery, scorer: InfluenceScorer) -> None:
        aggregate = query.aggregate
        if not aggregate.is_independent:
            raise PartitionerError(
                f"MC requires an independent aggregate; {aggregate.name} "
                "does not declare the property (Section 5.2)"
            )
        if not self.require_check:
            return
        for context in scorer.contexts:
            if not aggregate.check(context.agg_values):
                raise PartitionerError(
                    f"{aggregate.name}.check failed on group {context.key!r}: "
                    "Δ is not anti-monotone on this data (Section 5.3); "
                    "use the DT partitioner instead"
                )

    # ------------------------------------------------------------------
    # Unit predicates (the CLIQUE grid restricted to outlier support)
    # ------------------------------------------------------------------
    def _initial_units(self, query: ScorpionQuery,
                       scorer: InfluenceScorer) -> _Level:
        """Level 1: per domain attribute, the grid cells (continuous) or
        values (discrete) the outlier rows hold.  A row missing a
        continuous value joins no unit of that attribute."""
        outlier_rows = np.concatenate(
            [ctx.indices for ctx in scorer.outlier_contexts])
        clauses: list[list[Clause]] = []
        unit_of_row: list[np.ndarray] = []
        for spec in query.domain:
            if spec.is_continuous:
                values = query.table.values(spec.name)[outlier_rows]
                unit_clauses, units = _continuous_units(spec, values, self.n_bins)
            else:
                unit_clauses, units = _discrete_units(
                    query.table.column(spec.name), outlier_rows)
            clauses.append(unit_clauses)
            unit_of_row.append(units)
        grid = _Grid(list(query.domain.attribute_names), clauses)
        units = np.full((len(grid.clauses), len(clauses)), -1, dtype=np.int64)
        supports = np.zeros((len(grid.clauses), len(outlier_rows)), dtype=bool)
        for column, (ids, local) in enumerate(zip(grid.ids, unit_of_row)):
            units[ids, column] = ids
            rows = np.flatnonzero(local >= 0)
            supports[ids[local[rows]], rows] = True
        return _Level(units, supports, grid)

    # ------------------------------------------------------------------
    # Refinement: intersect pairs differing in exactly one attribute
    # ------------------------------------------------------------------
    def _intersect(self, level: _Level) -> _Level:
        """The cells one attribute finer: every conjunction of two cells
        whose attribute sets differ in one attribute each and whose
        supports share a row, each once, in the order a pairwise loop
        first meets it (attribute sets by first appearance, then their
        cells' product)."""
        if not len(level):
            return level
        n_cells, n_rows = level.supports.shape
        patterns, first, set_of = np.unique(
            level.units >= 0, axis=0, return_index=True, return_inverse=True)
        # The cells of one attribute set are disjoint: each row has at
        # most one owner among them.
        cell, row = np.nonzero(level.supports)
        owner = np.full((len(patterns), n_rows), -1, dtype=np.int64)
        owner[set_of.reshape(-1)[cell], row] = cell
        lefts, rights = [], []
        for i, j in itertools.combinations(np.argsort(first), 2):
            # Every cell of a level constrains as many attributes.
            if np.count_nonzero(patterns[i] != patterns[j]) != 2:
                continue
            shared = (owner[i] >= 0) & (owner[j] >= 0)
            pairs = np.unique(owner[i, shared] * n_cells + owner[j, shared])
            lefts.append(pairs // n_cells)
            rights.append(pairs % n_cells)
        left = np.concatenate(lefts) if lefts else np.empty(0, dtype=np.int64)
        right = np.concatenate(rights) if rights else np.empty(0, dtype=np.int64)
        units = np.maximum(level.units[left], level.units[right])
        _, first_made = np.unique(units, axis=0, return_index=True)
        first_made.sort()
        left, right = left[first_made], right[first_made]
        return _Level(units[first_made],
                      level.supports[left] & level.supports[right], level.grid)

    # ------------------------------------------------------------------
    # Anti-monotonicity pruning
    # ------------------------------------------------------------------
    def _prune(self, level: _Level, index: _OutlierIndex,
               best_influence: float) -> tuple[_Level, list[Predicate]]:
        """Drop cells no refinement of which can beat the incumbent, then
        keep at most ``max_predicates_per_level`` (best bounds first, ties
        in order).  Returns the kept cells and their predicates in the
        order they run: units in grid order and finer cells by their
        text, or by descending bound where the cap applied."""
        bounds = index.bounds(level.supports)
        if best_influence != float("-inf"):
            kept = np.flatnonzero(bounds >= best_influence)
            level, bounds = level.take(kept), bounds[kept]
        predicates = level.predicates()
        order = np.arange(len(level))
        if level.dims > 1:
            texts = [str(predicate) for predicate in predicates]
            order = np.array(sorted(order, key=texts.__getitem__), dtype=np.int64)
        if len(order) > self.max_predicates_per_level:
            order = order[np.argsort(-bounds[order], kind="stable")
                          [: self.max_predicates_per_level]]
        return level.take(order), [predicates[i] for i in order]

    # ------------------------------------------------------------------
    # Containment in the round's promising predicates
    # ------------------------------------------------------------------
    def _contained(self, level: _Level, promising: list[Predicate]) -> _Level:
        """The cells some ``promising`` predicate contains
        (:meth:`Predicate.contains`): every clause of it accepts the
        cell's unit on its attribute."""
        accepts: dict[Clause, np.ndarray] = {}
        kept = np.zeros(len(level), dtype=bool)
        for predicate in promising:
            inside = np.ones(len(level), dtype=bool)
            for clause in predicate:
                accepted = accepts.get(clause)
                if accepted is None:
                    accepted = accepts[clause] = level.grid.accepts(clause)
                inside &= accepted[level.units[:, level.grid.columns[clause.attribute]]]
            kept |= inside
        return level.take(np.flatnonzero(kept))
