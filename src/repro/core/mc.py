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

Implementation note: every level-``k`` predicate is a cell of the
``k``-dimensional grid, so its matched outlier rows (*support*) flow
through intersections as plain set intersections; supports drive the
pruning bounds, exactly like transaction lists in Apriori-style subspace
clustering.  The per-level candidate ranking — ``inf(O, ∅, p, V)`` for
every surviving cell — goes through one
:meth:`InfluenceScorer.score_batch` call per round rather than a Scorer
round-trip per cell.  Those rounds shard across the scorer's threads
when its ``workers`` knob is set — MC inherits the parallelism with no
changes here (see :mod:`repro.parallel`).
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
from repro.predicates.clause import SetClause
from repro.predicates.discretizer import EquiWidthDiscretizer
from repro.predicates.predicate import Predicate


@dataclass(frozen=True)
class _Cell:
    """A grid cell of the current dimensionality plus its outlier support
    (positions into the concatenated outlier rows)."""

    predicate: Predicate
    support: frozenset


class _OutlierIndex:
    """Precomputed per-outlier-row arrays for support-based pruning
    bounds.  (Candidate *scoring* goes through the Scorer's batch API;
    only the refinement bound still reads supports directly.)"""

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

    def refinement_bound(self, cell: _Cell) -> float:
        """Upper bound on any refinement's hold-out-free influence
        (top-``k`` prefix bound; see InfluenceScorer.refinement_bound)."""
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
                cells = self._prune(cells, index, best_influence)
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
                       scorer: InfluenceScorer) -> list[_Cell]:
        cells: list[_Cell] = []
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
                    cells.append(_Cell(
                        Predicate([grid.cell(bin_index)]),
                        frozenset(positions_by_unit[bin_index]),
                    ))
            else:
                for position, value in enumerate(values):
                    positions_by_unit.setdefault(value, []).append(position)
                for value in sorted(positions_by_unit, key=repr):
                    cells.append(_Cell(
                        Predicate([SetClause(spec.name, [value])]),
                        frozenset(positions_by_unit[value]),
                    ))
        return cells

    # ------------------------------------------------------------------
    # Refinement: intersect pairs differing in exactly one attribute
    # ------------------------------------------------------------------
    def _intersect(self, cells: list[_Cell]) -> list[_Cell]:
        by_attrs: dict[frozenset, list[_Cell]] = {}
        for cell in cells:
            by_attrs.setdefault(frozenset(cell.predicate.attributes), []).append(cell)
        produced: dict[Predicate, _Cell] = {}
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
                    produced[intersection] = _Cell(intersection, support)
        return sorted(produced.values(), key=lambda cell: str(cell.predicate))

    # ------------------------------------------------------------------
    # Anti-monotonicity pruning
    # ------------------------------------------------------------------
    def _prune(self, cells: list[_Cell], index: _OutlierIndex,
               best_influence: float) -> list[_Cell]:
        """Drop cells no refinement of which can beat the incumbent."""
        if best_influence == float("-inf"):
            kept = list(cells)
        else:
            kept = [cell for cell in cells
                    if index.refinement_bound(cell) >= best_influence]
        if len(kept) > self.max_predicates_per_level:
            kept.sort(key=index.refinement_bound, reverse=True)
            kept = kept[: self.max_predicates_per_level]
        return kept
