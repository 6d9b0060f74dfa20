"""The Merger: greedy coarsening of partitioner output (paper Sections
4.3 and 6.3).

Partitioners emit predicates at a finer granularity than ideal, so the
Merger repeatedly expands high-scoring predicates by merging them with
adjacent predicates as long as influence increases.

Optimizations from Section 6.3, both optional:

* **top-quartile expansion** — only predicates whose internal scores sit
  in the top quartile are expanded (the final predicate almost always
  grows from those);
* **cached-state approximation** — for incrementally removable
  aggregates, a merge's influence is estimated from the per-partition
  removal statistics (count + summed tuple state) under a
  uniform-density-within-partition assumption, avoiding Scorer calls
  inside the expansion loop entirely; only the final expanded predicates
  are scored exactly.

The approximation improves on the paper's replicate-the-cached-tuple
scheme by storing each partition's exact summed state (same constant
size, strictly more accurate — see DESIGN.md §4 item 7); partially
overlapping partitions contribute volume-weighted fractions of their
state exactly as Section 6.3's ``n_p`` estimates do.

The approximation is one vectorized kernel per expansion call
(:meth:`_ApproxIndex.estimate`): for P merged boxes over n candidate
partitions and G outlier groups it builds a ``(P, n)`` share matrix
from broadcast lo/hi bounds (discrete clauses through a
code-membership matrix), derives the removed count and state of all
P·G (merge, group) pairs, and recovers them through one
:meth:`~repro.core.kernel.BatchKernel.updated_from_removed_batch` call —
the same perturbation rules the scoring kernel applies.  Every estimate equals
the one-merge, one-group-at-a-time computation bit for bit, because
each reduction keeps that computation's order: removed counts are one
``shares[p] @ counts`` vector product per merge, removed states an
``einsum`` that sums candidates in ascending order, and the sum over
groups a left-to-right ``cumsum``.  A single ``(P, n) @ (n, G)`` BLAS
matmul is deliberately avoided, as in the scoring kernel (see the
equivalence contract in :mod:`repro.core.influence`): its blocked
reductions differ from the vector product's in the last bits.

When the approximation is *off* (the MC partitioner's default merger
configuration), each expansion round collects its candidate merges and
scores them through one :meth:`InfluenceScorer.score_batch` call, and
expansion starts are exact-scored in one warm-up batch, so the scalar
Scorer round-trip disappears from the expansion loop either way.

Expansions run in *lockstep*: every start advances one greedy round at
a time, and the round's winning merges — one per still-active start,
independent across starts — are adoption-verified through a single
``score_batch`` call (which shards across worker processes when the
scorer's ``workers`` knob is set).  The per-start accept/reject
decisions are identical to expanding each start to completion with
scalar verification: a start's trajectory reads only its own state and
the shared read-only candidate list, and ``score_batch`` returns
exactly what ``score`` would.  In approximation mode each adoption
check also records how far the estimate was from the exact score, in
the ``scorpion_merge_approx_error`` histogram and the ``merge_round``
span's ``approx_error_max`` attribute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.core.influence import INVALID_INFLUENCE, InfluenceScorer
from repro.core.kernel import _scalar_pow
from repro.core.partition import CandidatePredicate, ScoredPredicate
from repro.errors import PartitionerError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate
from repro.predicates.space import Domain

#: Buckets of ``scorpion_merge_approx_error``: the relative gap between
#: a proposal's estimated and exact influence.
APPROX_ERROR_BUCKETS = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0)


class _ApproxIndex:
    """Candidate partitions packed for the batched cached-state estimate.

    Built once per :meth:`Merger.run`.  Each candidate box is stored as
    ``(n, C)`` lo/hi arrays over the C continuous attributes (an
    unconstrained attribute spans its whole domain) and, per discrete
    attribute, a row of a 0/1 code-membership matrix over the value
    codes.  Each candidate's removal statistics are an ``(n, G)`` count
    matrix and an ``(n, G, k)`` summed-state tensor over the G outlier
    groups (zero where the candidate has no ``group_stats``).

    :meth:`shares` turns P predicates into the ``(P, n)`` fraction of
    every candidate box lying inside every predicate, and
    :meth:`estimate` turns those shares into P influence estimates with
    no per-merge or per-group Python loop.  Discrete overlaps are
    membership-matrix products: their 0/1 terms sum to the same small
    integers in any order, so BLAS is exact there.  The count and state
    reductions, whose terms are not integers, keep the scalar
    computation's order instead (see the module docstring).
    """

    def __init__(self, candidates: list[CandidatePredicate], domain: Domain,
                 scorer: InfluenceScorer):
        self.scorer = scorer
        self.continuous = [a for a in domain if a.is_continuous]
        self.discrete = [a for a in domain if not a.is_continuous]
        n = len(candidates)
        self.los = np.empty((n, len(self.continuous)))
        self.his = np.empty((n, len(self.continuous)))
        for i, candidate in enumerate(candidates):
            for j, attr in enumerate(self.continuous):
                clause = candidate.predicate.clause_for(attr.name)
                if isinstance(clause, RangeClause):
                    self.los[i, j] = clause.lo
                    self.his[i, j] = clause.hi
                else:
                    self.los[i, j] = attr.lo
                    self.his[i, j] = attr.hi
        self.widths = np.maximum(self.his - self.los, 0.0)
        #: Per discrete attribute: value → column code, the ``(n, V)``
        #: membership matrix, and each candidate's set size.
        self.codes: list[dict] = []
        self.members: list[np.ndarray] = []
        self.sizes: list[np.ndarray] = []
        for attr in self.discrete:
            sets = []
            for candidate in candidates:
                clause = candidate.predicate.clause_for(attr.name)
                sets.append(clause.values if isinstance(clause, SetClause)
                            else frozenset(attr.values))
            codes = {value: code for code, value
                     in enumerate(frozenset().union(*sets))}
            members = np.zeros((n, len(codes)))
            for i, values in enumerate(sets):
                members[i, [codes[value] for value in values]] = 1.0
            self.codes.append(codes)
            self.members.append(members)
            self.sizes.append(members.sum(axis=1))

        contexts = scorer.outlier_contexts
        key_index = {ctx.key: g for g, ctx in enumerate(contexts)}
        self.counts = np.zeros((n, len(contexts)))
        self.states = np.zeros((n, len(contexts),
                                contexts[0].total_state.shape[0]))
        for i, candidate in enumerate(candidates):
            if not candidate.group_stats:
                continue
            for key, stats in candidate.group_stats.items():
                g = key_index.get(key)
                if g is None:
                    continue
                self.counts[i, g] = stats.count
                if stats.state_sum is not None:
                    self.states[i, g] = stats.state_sum
        self.total_states = np.stack([ctx.total_state for ctx in contexts])
        self.mean_states = (np.stack([ctx.mean_state for ctx in contexts])
                            if scorer.perturbation == "mean" else None)
        self.total_values = np.asarray([ctx.total_value for ctx in contexts],
                                       dtype=np.float64)
        self.error_vectors = np.asarray(
            [ctx.error_vector for ctx in contexts], dtype=np.float64)

    def shares(self, predicates: list[Predicate]) -> np.ndarray:
        """``(P, n)``: the fraction of each candidate box lying inside
        each predicate, one factor per constrained attribute multiplied
        in domain order."""
        shares = np.ones((len(predicates), len(self.los)))
        for j, attr in enumerate(self.continuous):
            clauses = [p.clause_for(attr.name) for p in predicates]
            rows = [r for r, clause in enumerate(clauses) if clause is not None]
            if not rows:
                continue
            lo = np.asarray([[clauses[r].lo] for r in rows])
            hi = np.asarray([[clauses[r].hi] for r in rows])
            cand_lo, width = self.los[:, j], self.widths[:, j]
            overlap = np.clip(np.minimum(self.his[:, j], hi)
                              - np.maximum(cand_lo, lo), 0.0, None)
            with np.errstate(divide="ignore", invalid="ignore"):
                fraction = overlap / width
            # Zero-width candidate boxes: inside iff the point overlaps.
            point_inside = (cand_lo >= lo) & (cand_lo <= hi)
            shares[rows] *= np.where(width > 0, fraction,
                                     point_inside.astype(float))
        for d, attr in enumerate(self.discrete):
            clauses = [p.clause_for(attr.name) for p in predicates]
            rows = [r for r, clause in enumerate(clauses) if clause is not None]
            if not rows:
                continue
            codes = self.codes[d]
            wanted = np.zeros((len(rows), len(codes)))
            for w, r in enumerate(rows):
                wanted[w, [codes[v] for v in clauses[r].values
                           if v in codes]] = 1.0
            common = wanted @ self.members[d].T
            shares[rows] *= common / self.sizes[d]
        return shares

    def estimate(self, predicates: list[Predicate]) -> np.ndarray:
        """Cached-state influence estimates (Section 6.3), one per
        predicate.

        Every partition intersecting a predicate contributes the volume
        fraction of its rows (and of its summed state) that falls
        inside; Δ is recovered from each outlier group's state with that
        contribution removed, skipping groups that lose under half a
        row.  Hold-out terms are unknown at this level and treated as
        zero — the final expanded predicate is always scored exactly.
        """
        scorer = self.scorer
        shares = self.shares(predicates)
        # One vector product per merge: a (P, n) @ (n, G) matmul would
        # round differently (module docstring).
        counts = np.stack([row @ self.counts for row in shares])
        states = np.einsum("pi,igk->pgk", shares, self.states)
        active = counts >= 0.5
        merge_of, group_of = np.nonzero(active)
        removed = counts[active]
        updated = scorer.kernel.updated_from_removed_batch(
            self.total_states[group_of], states[active], removed,
            None if self.mean_states is None else self.mean_states[group_of])
        terms = np.zeros_like(counts)
        terms[active] = ((self.total_values[group_of] - updated)
                         / _scalar_pow(removed, scorer.c)
                         * self.error_vectors[group_of])
        # A left-to-right sum over groups; "+ 0.0" makes an all-(-0.0)
        # row +0.0, as a running total started at 0.0 would be.
        totals = np.cumsum(terms, axis=1)[:, -1] + 0.0
        scores = scorer.lam * totals / len(self.total_values)
        scores[merge_of[np.isnan(updated)]] = INVALID_INFLUENCE
        return scores


@dataclass
class _Expansion:
    """One start's greedy-expansion state inside the lockstep loop."""

    current: Predicate
    #: Exact influence of ``current`` (adoption baseline).
    exact: float
    #: Estimated influence of ``current`` (scan baseline).
    estimate: float
    #: Candidate predicates already absorbed (never re-merged).
    members: set[Predicate]
    #: Neighbourhood scans performed (capped at ``max_rounds``).
    scans: int = 0
    active: bool = True


@dataclass
class MergerParams:
    """Tuning knobs of the Merger."""

    #: Fraction of candidates (by internal score) that get expanded;
    #: 1.0 = the basic Section 4.3 merger, 0.25 = the Section 6.3
    #: top-quartile optimization.
    expand_fraction: float = 0.25
    #: Use the cached-state influence approximation inside the expansion
    #: loop when the aggregate supports it.
    use_approximation: bool = True
    #: Stop an expansion after this many successful merges.
    max_rounds: int = 32
    #: Evaluate at most this many adjacent neighbours per round.
    max_neighbors: int = 64


@dataclass
class MergerReport:
    """What a merge pass did (benchmarks inspect this)."""

    n_expanded: int = 0
    n_merge_evaluations: int = 0
    n_scorer_calls_saved: int = 0
    elapsed: float = 0.0


class Merger:
    """Greedy adjacent-merge coarsening with optional approximations."""

    def __init__(self, scorer: InfluenceScorer, domain: Domain,
                 params: MergerParams | None = None, **overrides):
        known = {field.name for field in fields(MergerParams)}
        for key in overrides:
            if key not in known:
                raise PartitionerError(f"unknown Merger parameter {key!r}")
        # A copy: the caller's params may be shared (Scorpion, MC).
        params = replace(params or MergerParams(), **overrides)
        if not 0 < params.expand_fraction <= 1:
            raise PartitionerError("expand_fraction must be in (0, 1]")
        self.scorer = scorer
        self.domain = domain
        self.params = params
        self.report = MergerReport()
        self._approx_ready = (
            params.use_approximation
            and scorer.uses_incremental
            and scorer.outlier_contexts[0].total_state is not None
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, candidates: list[CandidatePredicate],
            seeds: list[Predicate] | None = None) -> list[ScoredPredicate]:
        """Expand candidates and return deduped results, best first.

        ``seeds`` optionally overrides the expansion starting points
        (the Section 8.3.3 warm start: resume from a previous, higher-``c``
        merge result instead of from raw partitions).
        """
        start = time.perf_counter()
        self.report = MergerReport()
        if not candidates and not seeds:
            return []
        ranked = sorted(candidates, key=lambda c: c.score, reverse=True)
        self._index = None
        if self._approx_ready and any(c.group_stats for c in ranked):
            self._index = _ApproxIndex(ranked, self.domain, self.scorer)
        if seeds is None:
            n_expand = max(1, int(np.ceil(len(ranked) * self.params.expand_fraction)))
            expansion_starts = [c.predicate for c in ranked[:n_expand]]
        else:
            expansion_starts = list(seeds)
        if expansion_starts:
            # Declare the single-range starts to the prefix-aggregate
            # index: they (and the merges they grow through) are the
            # index fast path's shape.
            self.scorer.prepare_index({
                predicate.clauses[0].attribute
                for predicate in expansion_starts
                if predicate.num_clauses == 1
                and isinstance(predicate.clauses[0], RangeClause)
            })
        # _expand_lockstep opens by batch-scoring every start (and every
        # adoption downstream), so with caching on the scalar record()
        # calls below are all cache hits — no separate warm-up needed.
        expanded_by_start = self._expand_lockstep(expansion_starts, ranked)
        results: dict[Predicate, float] = {}

        def record(predicate: Predicate) -> None:
            if predicate not in results:
                results[predicate] = self.scorer.score(predicate)

        for predicate, expanded in zip(expansion_starts, expanded_by_start):
            record(expanded)
            # The start partition itself stays in the ranking: expansion
            # decisions are estimate-driven and an over-eager merge must
            # not erase its exactly-scored origin.
            record(predicate)
            self.report.n_expanded += 1
        scored = [ScoredPredicate(p, inf) for p, inf in results.items()
                  if np.isfinite(inf)]
        scored.sort(key=lambda sp: sp.influence, reverse=True)
        self.report.elapsed = time.perf_counter() - start
        return scored

    # ------------------------------------------------------------------
    # Expansion loop
    # ------------------------------------------------------------------
    def _expand_lockstep(self, starts: list[Predicate],
                         candidates: list[CandidatePredicate],
                         ) -> list[Predicate]:
        """Greedily grow every start while its influence increases,
        advancing all starts one round at a time.

        Candidate merges are ranked with :meth:`_estimate_batch` (cheap,
        possibly approximate); each round's *adoptions* — the best merge
        of each still-active start — are then verified with one exact
        :meth:`InfluenceScorer.score_batch` call, so approximation drift
        cannot walk an expansion past its best point and the per-round
        verification cost batches (and parallelizes) across starts.  The
        per-round candidate scans — the cost the Section 6.3
        approximation exists to cut — stay estimate-only.

        Per start, the scan/accept/reject sequence is exactly the scalar
        greedy loop's: at most ``max_rounds`` scans, stop when no
        adjacent merge improves the estimate, adopt only when the exact
        score improves.  Returns the expanded predicate of each start,
        aligned with ``starts``.
        """
        if not starts:
            return []
        start_exacts = self.scorer.score_batch(starts)
        if self._index is None:
            start_estimates = [self.scorer.score(p) for p in starts]
        else:
            start_estimates = self._estimate_batch(starts)
        states = [_Expansion(current=predicate, exact=float(exact),
                             estimate=estimate, members={predicate})
                  for predicate, exact, estimate
                  in zip(starts, start_exacts, start_estimates)]
        round_no = 0
        while True:
            round_no += 1
            with span("merge_round") as rsp:
                proposals: list[tuple[_Expansion, Predicate, Predicate,
                                      float]] = []
                for state in states:
                    if not state.active:
                        continue
                    if state.scans >= self.params.max_rounds:
                        state.active = False
                        continue
                    state.scans += 1
                    merges: list[tuple[Predicate, Predicate]] = []
                    neighbors = 0
                    for other in candidates:
                        if other.predicate in state.members:
                            continue
                        if not state.current.is_adjacent_to(other.predicate):
                            continue
                        neighbors += 1
                        if neighbors > self.params.max_neighbors:
                            break
                        merges.append((state.current.merge(other.predicate),
                                       other.predicate))
                    if not merges:
                        state.active = False
                        continue
                    estimates = self._estimate_batch([m for m, _ in merges])
                    self.report.n_merge_evaluations += len(merges)
                    best_index = int(np.argmax(estimates))
                    estimate = float(estimates[best_index])
                    if not estimate > state.estimate:
                        state.active = False
                        continue
                    merged, member = merges[best_index]
                    proposals.append((state, merged, member, estimate))
                if rsp:
                    rsp.annotate(round=round_no, proposals=len(proposals))
                if not proposals:
                    break
                exacts = self.scorer.score_batch(
                    [merged for _, merged, _, _ in proposals])
                if self._index is not None:
                    self._record_approx_error(
                        [estimate for *_, estimate in proposals], exacts, rsp)
                adopted = 0
                for (state, merged, member, estimate), exact in zip(proposals,
                                                                    exacts):
                    if float(exact) <= state.exact:
                        state.active = False
                        continue
                    state.current = merged
                    state.estimate = estimate
                    state.exact = float(exact)
                    state.members.add(member)
                    adopted += 1
                if rsp:
                    rsp.annotate(adopted=adopted)
        return [state.current for state in states]

    # ------------------------------------------------------------------
    # Influence estimation
    # ------------------------------------------------------------------
    def _estimate_batch(self, predicates: list[Predicate]) -> np.ndarray:
        """Influences of a batch of merges (or expansion starts).  Without
        the cached-state index every merge needs an exact score — batched
        through the Scorer's vectorized path; with it, one
        :meth:`_ApproxIndex.estimate` call avoids the Scorer entirely."""
        if self._index is None:
            return self.scorer.score_batch(predicates)
        self.report.n_scorer_calls_saved += len(predicates)
        return self._index.estimate(predicates)

    @staticmethod
    def _record_approx_error(estimates: list[float], exacts: np.ndarray,
                             rsp) -> None:
        """Approximation provenance: the relative gap between each
        adoption proposal's estimate and its exact score.  The estimate
        omits hold-out terms, so the gap includes the hold-out penalty.
        Non-finite gaps (an invalid estimate or score) are not
        recorded."""
        with np.errstate(invalid="ignore"):
            gaps = (np.abs(np.asarray(estimates) - exacts)
                    / np.maximum(np.abs(exacts), 1e-12))
        gaps = gaps[np.isfinite(gaps)]
        if not len(gaps):
            return
        histogram = REGISTRY.histogram(
            "scorpion_merge_approx_error",
            "Relative gap between the Merger's cached-state estimate and "
            "the exact influence of each adoption proposal",
            buckets=APPROX_ERROR_BUCKETS)
        for gap in gaps.tolist():
            histogram.observe(gap)
        if rsp:
            rsp.annotate(approx_error_max=float(gaps.max()))
