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

The approximation deviates from the paper on purpose.  Section 6.3
caches one representative tuple per partition and stands in for a
merged partition's rows with ``n_p`` copies of it.  Here each partition
caches its exact summed removal state instead: the same constant size
per (partition, group), and exact whenever a merge covers whole
partitions, where replicated tuples are exact only for partitions of
identical values.  Partially overlapping partitions contribute
volume-weighted fractions of their state, exactly as Section 6.3's
``n_p`` estimates do.

The Merger works in box space.  :class:`_Boxes` packs the ranked
candidates once per :meth:`Merger.run`, in both modes, over the
domain's attributes: per candidate an id of its attribute set, lo, hi
and ``include_hi`` per continuous attribute, and an interned id of its
value set per discrete attribute.  It owns the candidate order that
neighbour indices, member masks and the cached-state estimate all refer
to.  One vectorized test per start and round reproduces
:meth:`Predicate.is_adjacent_to` against every candidate, excludes the
start's members and keeps the first ``max_neighbors`` hits in rank
order.  A :class:`Predicate` is built only where a score needs one.

The approximation (:class:`_ApproxIndex`) reads the same packed bounds.
For P merges over n candidate partitions and G outlier groups it builds
a ``(P, n)`` share matrix from broadcast bounds (discrete clauses
through a code-membership matrix), derives the removed count and state
of all P·G (merge, group) pairs, and folds them through
:meth:`~repro.core.kernel.BatchKernel.fold` — the scoring kernel's own
back half, so the same perturbation rules apply.  A start's candidate
merges are estimated from arrays (lo = min, hi = max, code membership
OR-ed); only its winning merge is built as a :class:`Predicate`, for
the adoption check.  Every estimate equals the one-merge,
one-group-at-a-time computation bit for bit, because each reduction
keeps that computation's order: removed counts are one
``shares[p] @ counts`` vector product per merge, removed states an
``einsum`` that sums candidates in ascending order, and the sum over
groups a left-to-right ``cumsum``.  A single ``(P, n) @ (n, G)`` BLAS
matmul is deliberately avoided, as in the scoring kernel (see the
equivalence contract in :mod:`repro.core.influence`): its blocked
reductions differ from the vector product's in the last bits.

Expansions run in *lockstep*.  Each round first scans every active
start for its neighbours, then estimates.  When the approximation is
*off* (the MC partitioner's default merger configuration), every active
start's merges go through one :meth:`InfluenceScorer.score_batch` call
per round, which chunks, dedupes repeated merges and shards across
worker processes when the scorer's ``workers`` knob is set.  With the
approximation on, each start keeps its own estimate pass of at most
``max_neighbors`` rows: one pass for a whole round would hold every
start's (merges × candidates × groups) share and state arrays at once,
multiplying the Merger's transient memory for no measured time gain,
and estimate rows are independent, so pass boundaries cannot change a
value.  Each start's decision reads only its own slice of the
estimates.  The round's winning merges — one per still-active start —
are then adoption-verified through a single ``score_batch`` call.  The
per-start accept/reject decisions are identical to expanding each start
to completion with scalar verification: a start's trajectory reads
only its own state and the shared read-only candidate list, and
``score_batch`` returns exactly what ``score`` would.  In approximation
mode each adoption check also records how far the estimate was from the
exact score, in the ``scorpion_merge_approx_error`` histogram and the
``merge_round`` span's ``approx_error_max`` attribute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from repro.core.influence import InfluenceScorer
from repro.core.partition import CandidatePredicate, ScoredPredicate
from repro.errors import PartitionerError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.predicates.clause import RangeClause
from repro.predicates.predicate import Predicate
from repro.predicates.space import Domain

#: Buckets of ``scorpion_merge_approx_error``: the relative gap between
#: a proposal's estimated and exact influence.
APPROX_ERROR_BUCKETS = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0)


class _Packed(NamedTuple):
    """P boxes packed over the domain's C continuous and D discrete
    attributes, one row per box.

    ``signature`` ``(P,)`` interns each box's attribute set.  ``lo``,
    ``hi`` and ``include_hi`` are ``(P, C)``, with ``ranged`` marking
    the attributes a range constrains; elsewhere lo and hi are the
    domain's bounds (a candidate there spans its whole domain) and
    ``include_hi`` is False.  ``sets`` ``(P, D)`` holds interned value-set
    ids, -1 where no set constrains the attribute."""

    signature: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    include_hi: np.ndarray
    ranged: np.ndarray
    sets: np.ndarray


class _Boxes:
    """The ranked candidates packed as boxes: the Merger's one packed
    form.

    Built once per :meth:`Merger.run`.  :meth:`pack` packs any predicate
    over the same domain the same way; one no candidate resembles (a
    warm-start seed) gets fresh signature and value-set ids, which match
    no candidate's.  Predicates are interned too, so member exclusion
    matches by equality, as the scalar loop's ``other in members`` did.
    """

    def __init__(self, candidates: list[CandidatePredicate], domain: Domain):
        self.candidates = candidates
        self.predicates = [c.predicate for c in candidates]
        self.continuous = [a for a in domain if a.is_continuous]
        self.discrete = [a for a in domain if not a.is_continuous]
        self._kinds = {a.name: a.is_continuous for a in domain}
        self._signatures: dict[frozenset, int] = {}
        self._set_ids: list[dict[frozenset, int]] = [{} for _ in self.discrete]
        interned: dict[Predicate, int] = {}
        self.ids = np.asarray([interned.setdefault(p, len(interned))
                               for p in self.predicates], dtype=np.int64)
        self._interned = interned
        self.packed = self.pack(self.predicates)

    def pack(self, predicates: list[Predicate]) -> _Packed:
        """``predicates`` as a :class:`_Packed`, one row each."""
        n = len(predicates)
        lo = np.zeros((n, len(self.continuous)))
        hi = np.zeros_like(lo)
        include_hi = np.zeros(lo.shape, dtype=bool)
        ranged = np.zeros(lo.shape, dtype=bool)
        sets = np.full((n, len(self.discrete)), -1, dtype=np.int64)
        signature = np.empty(n, dtype=np.int64)
        for r, predicate in enumerate(predicates):
            clauses = {clause.attribute: clause for clause in predicate}
            for clause in clauses.values():
                if (self._kinds.get(clause.attribute)
                        != isinstance(clause, RangeClause)):
                    raise PartitionerError(
                        f"Merger input {predicate} has a clause its "
                        f"domain does not describe: {clause}")
            signature[r] = self._signatures.setdefault(
                frozenset(clauses), len(self._signatures))
            for j, attr in enumerate(self.continuous):
                clause = clauses.get(attr.name)
                if clause is None:
                    lo[r, j], hi[r, j] = attr.lo, attr.hi
                else:
                    lo[r, j], hi[r, j] = clause.lo, clause.hi
                    include_hi[r, j] = clause.include_hi
                    ranged[r, j] = True
            for d, attr in enumerate(self.discrete):
                clause = clauses.get(attr.name)
                if clause is not None:
                    ids = self._set_ids[d]
                    sets[r, d] = ids.setdefault(clause.values, len(ids))
        return _Packed(signature, lo, hi, include_hi, ranged, sets)

    def members_of(self, predicate: Predicate) -> np.ndarray:
        """Boolean mask of the candidates equal to ``predicate``."""
        return self.ids == self._interned.get(predicate, -1)

    def neighbours(self, box: _Packed, members: np.ndarray,
                   limit: int) -> np.ndarray:
        """Indices of the first ``limit`` candidates, in rank order, that
        are adjacent to the one-row ``box`` and not ``members``.

        :meth:`Predicate.is_adjacent_to` as one vectorized test: equal
        signatures, ``lo <= other.hi and other.lo <= hi`` on every
        range, and either no differing set clause or exactly one with
        no differing range.  A range differs when ``lo``, ``hi`` or
        ``include_hi`` does; a set differs when its values do.  Only the
        box's ranges are compared: equal signatures leave the other
        continuous attributes unconstrained on both sides.
        """
        packed = self.packed
        adjacent = (packed.signature == box.signature) & ~members
        touching = (box.lo <= packed.hi) & (packed.lo <= box.hi)
        adjacent &= np.all(touching | ~box.ranged, axis=1)
        ranges_differ = np.any(((packed.lo != box.lo) | (packed.hi != box.hi)
                                | (packed.include_hi != box.include_hi))
                               & box.ranged, axis=1)
        sets_differ = np.count_nonzero(packed.sets != box.sets, axis=1)
        adjacent &= (sets_differ == 0) | ((sets_differ == 1) & ~ranges_differ)
        return np.flatnonzero(adjacent)[:limit]


class _ApproxIndex:
    """The cached-state estimate over the packed candidates.

    Built once per :meth:`Merger.run` when the approximation is on, from
    the run's :class:`_Boxes`, whose bounds it reads.  It adds what only
    the estimate needs: per discrete attribute a 0/1 code-membership
    matrix over the values the candidates hold (n × values, which is
    why it is not part of the packing exact mode builds too: EXPENSE's
    1,566 recipient names alone would make it megabytes), and each
    candidate's removal statistics as an ``(n, G)`` count matrix and an
    ``(n, G, k)`` summed-state tensor over the G outlier groups (zero
    where the candidate has no ``group_stats``).

    :meth:`shares` turns P boxes into the ``(P, n)`` fraction of every
    candidate box lying inside every box, and the estimates fold those
    shares into P influence estimates with no per-merge or per-group
    Python loop.  Discrete overlaps are membership-matrix products:
    their 0/1 terms sum to the same small integers in any order, so BLAS
    is exact there.  The count and state reductions, whose terms are not
    integers, keep the scalar computation's order instead (see the
    module docstring).
    """

    def __init__(self, boxes: _Boxes, scorer: InfluenceScorer):
        self.boxes = boxes
        self.scorer = scorer
        packed = boxes.packed
        widths = np.maximum(packed.hi - packed.lo, 0.0)
        #: Which candidate boxes have positive width, per continuous
        #: attribute, and their widths with 1.0 standing in for the
        #: others (:meth:`_shares` point-tests those instead).
        self._wide = widths > 0
        self._widths = np.where(self._wide, widths, 1.0)
        #: Per discrete attribute: value → column code over the values
        #: the candidates hold (all of the domain's for a candidate the
        #: attribute leaves unconstrained), and the domain's row.
        self.codes: list[dict] = []
        self._domain_rows: list[np.ndarray] = []
        for attr in boxes.discrete:
            values = set()
            for predicate in boxes.predicates:
                clause = predicate.clause_for(attr.name)
                values.update(attr.values if clause is None else clause.values)
            codes = {value: code for code, value in enumerate(values)}
            row = np.zeros(len(codes))
            row[[codes[value] for value in attr.values if value in codes]] = 1.0
            self.codes.append(codes)
            self._domain_rows.append(row)
        #: Per discrete attribute, the ``(n, V)`` membership matrix and
        #: each candidate's set size.
        self.members = self._memberships(boxes.predicates)
        self.sizes = [members.sum(axis=1) for members in self.members]

        contexts = scorer.outlier_contexts
        key_index = {ctx.key: g for g, ctx in enumerate(contexts)}
        n = len(boxes.candidates)
        self.counts = np.zeros((n, len(contexts)))
        self.states = np.zeros((n, len(contexts),
                                contexts[0].total_state.shape[0]))
        for i, candidate in enumerate(boxes.candidates):
            if not candidate.group_stats:
                continue
            for key, stats in candidate.group_stats.items():
                g = key_index.get(key)
                if g is None:
                    continue
                self.counts[i, g] = stats.count
                if stats.state_sum is not None:
                    self.states[i, g] = stats.state_sum

    def _memberships(self, predicates: list[Predicate]) -> list[np.ndarray]:
        """Per discrete attribute, a ``(P, V)`` 0/1 row per predicate: its
        set's value codes (values no candidate holds match no code), or
        the domain's where it leaves the attribute unconstrained."""
        rows = [np.zeros((len(predicates), len(codes))) for codes in self.codes]
        for d, attr in enumerate(self.boxes.discrete):
            codes = self.codes[d]
            for r, predicate in enumerate(predicates):
                clause = predicate.clause_for(attr.name)
                if clause is None:
                    rows[d][r] = self._domain_rows[d]
                else:
                    rows[d][r, [codes[v] for v in clause.values
                                if v in codes]] = 1.0
        return rows

    def shares(self, predicates: list[Predicate]) -> np.ndarray:
        """``(P, n)``: the fraction of each candidate box lying inside
        each predicate."""
        packed = self.boxes.pack(predicates)
        return self._shares(packed.lo, packed.hi, packed.ranged,
                            self._memberships(predicates), packed.sets >= 0)

    def _shares(self, lo: np.ndarray, hi: np.ndarray, ranged: np.ndarray,
                wanted: list[np.ndarray], chosen: np.ndarray) -> np.ndarray:
        """``(P, n)`` shares of P boxes given as arrays — ``(P, C)``
        bounds with ``ranged`` marking the constrained continuous
        attributes, ``(P, V)`` code rows per discrete attribute with
        ``chosen`` marking the constrained ones; the two masks may be
        single rows that hold for all P boxes.  One factor per
        constrained attribute, multiplied in domain order; an
        unconstrained one multiplies by exactly 1.0."""
        packed = self.boxes.packed
        shares = np.ones((len(lo), len(self._widths)))
        for j in range(lo.shape[1]):
            if not ranged[:, j].any():
                continue
            cand_lo = packed.lo[:, j]
            overlap = (np.minimum(packed.hi[:, j], hi[:, j, np.newaxis])
                       - np.maximum(cand_lo, lo[:, j, np.newaxis]))
            # A zero-width candidate box is inside iff its point is, that
            # is iff the overlap is not negative.
            factor = np.where(self._wide[:, j],
                              np.maximum(overlap, 0.0) / self._widths[:, j],
                              overlap >= 0)
            shares *= np.where(ranged[:, j, np.newaxis], factor, 1.0)
        for d in range(len(wanted)):
            if not chosen[:, d].any():
                continue
            common = wanted[d] @ self.members[d].T
            shares *= np.where(chosen[:, d, np.newaxis],
                               common / self.sizes[d], 1.0)
        return shares

    def estimate(self, predicates: list[Predicate]) -> np.ndarray:
        """Cached-state influence estimates (Section 6.3), one per
        predicate (the expansion starts)."""
        return self._estimate_shares(self.shares(predicates))

    def estimate_merges(self, current: Predicate,
                        hits: np.ndarray) -> np.ndarray:
        """Estimates of ``current`` merged with each of its neighbours
        ``hits`` (candidate indices), from arrays: the merged box's lo is
        the min and hi the max of the two (ties keep ``current``'s
        bound, as :meth:`RangeClause.merge` does), its code membership
        the OR.  A neighbour constrains the attributes ``current`` does,
        and so does every merge."""
        box = self.boxes.pack([current])
        packed = self.boxes.packed
        cand_lo, cand_hi = packed.lo[hits], packed.hi[hits]
        return self._estimate_shares(self._shares(
            np.where(cand_lo < box.lo, cand_lo, box.lo),
            np.where(cand_hi > box.hi, cand_hi, box.hi), box.ranged,
            [np.maximum(row, members[hits]) for row, members
             in zip(self._memberships([current]), self.members)],
            box.sets >= 0))

    def _estimate_shares(self, shares: np.ndarray) -> np.ndarray:
        """Every partition intersecting a box contributes the volume
        fraction of its rows (and of its summed state) that falls
        inside; :meth:`~repro.core.kernel.BatchKernel.fold` recovers Δ
        from each outlier group's state with that contribution removed,
        skipping groups that lose under half a row.  Hold-out terms are
        unknown at this level and treated as zero — the final expanded
        predicate is always scored exactly."""
        scorer = self.scorer
        # One vector product per merge: a (P, n) @ (n, G) matmul would
        # round differently (module docstring).
        counts = np.stack([row @ self.counts for row in shares])
        states = np.einsum("pi,igk->pgk", shares, self.states)
        return scorer.kernel.fold(counts, states, True, scorer.c,
                                  scorer.c_holdout, scorer.lam,
                                  count_deltas=False)


@dataclass
class _Expansion:
    """One start's greedy-expansion state inside the lockstep loop."""

    current: Predicate
    #: ``current`` packed for the adjacency test (one row).
    box: _Packed
    #: Exact influence of ``current`` (adoption baseline).
    exact: float
    #: Estimated influence of ``current`` (scan baseline).
    estimate: float
    #: Candidates already absorbed (never re-merged), as a mask over the
    #: ranked candidates.
    members: np.ndarray
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
        for name in ("max_rounds", "max_neighbors"):
            if getattr(params, name) < 0:
                raise PartitionerError(f"{name} must be >= 0")
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
        boxes = _Boxes(ranked, self.domain)
        self._index = None
        if self._approx_ready and any(c.group_stats for c in ranked):
            self._index = _ApproxIndex(boxes, self.scorer)
        if seeds is None:
            n_expand = max(1, int(np.ceil(len(ranked) * self.params.expand_fraction)))
            expansion_starts = [c.predicate for c in ranked[:n_expand]]
        else:
            expansion_starts = list(seeds)
        # _expand_lockstep opens by batch-scoring every start (and every
        # adoption downstream), so with caching on the scalar record()
        # calls below are all cache hits — no separate warm-up needed.
        expanded_by_start = self._expand_lockstep(expansion_starts, boxes)
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
                         boxes: _Boxes) -> list[Predicate]:
        """Greedily grow every start while its influence increases,
        advancing all starts one round at a time.

        Each round scans every active start for its neighbours in box
        space (:meth:`_Boxes.neighbours`), then ranks the candidate
        merges with :meth:`_estimate_round` (cheap, possibly
        approximate); the round's *adoptions* — the best merge of each
        still-active start — are then verified with one exact
        :meth:`InfluenceScorer.score_batch` call, so approximation drift
        cannot walk an expansion past its best point and the per-round
        verification cost batches (and parallelizes) across starts.

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
            self.report.n_scorer_calls_saved += len(starts)
            start_estimates = self._index.estimate(starts)
        states = [_Expansion(current=predicate, box=boxes.pack([predicate]),
                             exact=float(exact), estimate=estimate,
                             members=boxes.members_of(predicate))
                  for predicate, exact, estimate
                  in zip(starts, start_exacts, start_estimates)]
        round_no = 0
        while True:
            round_no += 1
            with span("merge_round") as rsp:
                scans: list[tuple[_Expansion, np.ndarray]] = []
                for state in states:
                    if not state.active:
                        continue
                    if state.scans >= self.params.max_rounds:
                        state.active = False
                        continue
                    state.scans += 1
                    hits = boxes.neighbours(state.box, state.members,
                                            self.params.max_neighbors)
                    if not len(hits):
                        state.active = False
                        continue
                    scans.append((state, hits))
                proposals: list[tuple[_Expansion, Predicate, int, float]] = []
                for (state, hits), estimates in zip(
                        scans, self._estimate_round(scans, boxes)):
                    self.report.n_merge_evaluations += len(hits)
                    best_index = int(np.argmax(estimates))
                    estimate = float(estimates[best_index])
                    if not estimate > state.estimate:
                        state.active = False
                        continue
                    member = int(hits[best_index])
                    proposals.append((
                        state, state.current.merge(boxes.predicates[member]),
                        member, estimate))
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
                    state.box = boxes.pack([merged])
                    state.estimate = estimate
                    state.exact = float(exact)
                    state.members |= boxes.ids == boxes.ids[member]
                    adopted += 1
                if rsp:
                    rsp.annotate(adopted=adopted)
        return [state.current for state in states]

    # ------------------------------------------------------------------
    # Influence estimation
    # ------------------------------------------------------------------
    def _estimate_round(self, scans: list[tuple[_Expansion, np.ndarray]],
                        boxes: _Boxes) -> list[np.ndarray]:
        """Influences of every scanned start's merges with its ``hits``,
        one array per start.

        Without the cached-state index every merge needs an exact score,
        so all of the round's merges are built and go through one
        :meth:`InfluenceScorer.score_batch` call.  With it, each start
        gets one :meth:`_ApproxIndex.estimate_merges` pass over arrays,
        and no merge is built here."""
        if not scans:
            return []
        if self._index is not None:
            self.report.n_scorer_calls_saved += sum(
                len(hits) for _, hits in scans)
            return [self._index.estimate_merges(state.current, hits)
                    for state, hits in scans]
        values = self.scorer.score_batch(
            [state.current.merge(boxes.predicates[i])
             for state, hits in scans for i in hits])
        ends = np.cumsum([len(hits) for _, hits in scans])
        return np.split(values, ends[:-1])

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
