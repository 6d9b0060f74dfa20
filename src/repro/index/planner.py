"""Routing predicates between the index fast paths and the mask kernel.

The :class:`IndexPlanner` decides, per predicate of a ``score_batch``
call, which execution tier answers it:

* **range tier** — exactly one :class:`~repro.predicates.clause.RangeClause`
  over a continuous labeled attribute: two binary searches per group
  (see :mod:`repro.index.prefix`);
* **discrete-bucket tier** — exactly one
  :class:`~repro.predicates.clause.SetClause` over a factorized discrete
  labeled attribute: O(|codes|) bucket lookups per group (see
  :mod:`repro.index.discrete`);
* **conjunction tier** — exactly two clauses, both over attributes the
  index holds raw arrays for: the planner counts each side's matched
  rows exactly (one vectorized pass over the per-group views, which are
  built anyway for the probe itself), probes the *rarer* side's sorted
  slice or code buckets, and mask-tests only those k rows against the
  other clause;
* **mask kernel** — everything else: 3+-clause conjunctions, clauses
  over attributes without a prepared index view, black-box aggregates
  (the scorer builds no index at all then), user predicates over
  non-``A_rest`` attributes — and any *supported* shape whose index
  tier the cost model prices above the mask kernel.

Every eligible predicate is routed by **estimated cost**: the planner
prices the candidate tier and the mask alternative with the shared
:class:`~repro.index.cost.CostModel` (single clauses at the worst-case
``k = n``, where the per-matched-row terms largely cancel;
conjunctions at their exact probe counts) and picks the argmin.  The
old fixed ``PROBE_FRACTION_CAP`` heuristic is gone — unselective
probes now lose on price, not on a threshold.  Each decision is
tallied in the route's ``cost_routed_*`` counters, which surface as
``scorer_stats`` so the differential oracle can replay a partition and
assert serial/parallel routing parity.

Everything the planner rejects flows to
:meth:`~repro.predicates.evaluator.ArrayMaskEvaluator.evaluate_batch`
unchanged, so routing is purely an execution-strategy choice — results
are identical on every path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.index.cost import CostModel
from repro.index.prefix import PrefixAggregateIndex
from repro.predicates.clause import Clause, RangeClause, SetClause
from repro.predicates.predicate import Predicate


@dataclass(frozen=True)
class ConjunctionPlan:
    """An executable 2-clause conjunction: probe the ``probe`` clause's
    index view, mask-test its rows against ``other``.  Picklable — the
    parent plans, workers only execute."""

    probe: Clause
    other: Clause
    #: The probe side's estimated (exact) matched-row total across
    #: groups at plan time — diagnostics only, never re-checked.
    probe_count: int = 0


@dataclass
class IndexRoute:
    """One chunk-sized routing decision: which predicates take which
    index tier (with their clauses / plans pre-extracted) and which fall
    back to the mask-matrix kernel."""

    ranges: list[tuple[Predicate, RangeClause]] = field(default_factory=list)
    sets: list[tuple[Predicate, SetClause]] = field(default_factory=list)
    conjunctions: list[tuple[Predicate, ConjunctionPlan]] = field(
        default_factory=list)
    masked: list[Predicate] = field(default_factory=list)
    #: 2-clause predicates the planner examined for the conjunction tier
    #: but sent to the mask kernel instead (missing index view, or the
    #: cost model pricing the probe above the mask kernel).
    conjunction_fallbacks: int = 0
    #: Cost-model decisions, by winning route.  These count only
    #: predicates the planner actually priced (index-eligible shapes);
    #: structurally unsupported predicates go to the mask kernel without
    #: a decision and appear in none of them.
    cost_routed_mask: int = 0
    cost_routed_prefix: int = 0
    cost_routed_bucket: int = 0
    cost_routed_gather: int = 0
    cost_routed_conj: int = 0

    @property
    def indexed_total(self) -> int:
        """Predicates answered by any index tier."""
        return len(self.ranges) + len(self.sets) + len(self.conjunctions)


class IndexPlanner:
    """Chooses the scoring path for each predicate of a batch by
    estimated cost (see the module docstring).

    ``cost_model`` defaults to the process-wide
    :meth:`~repro.index.cost.CostModel.shared` model, so every planner
    — serial or parallel, in any process — prices from the same
    constants.
    """

    def __init__(self, index: PrefixAggregateIndex | None,
                 cost_model: CostModel | None = None):
        self.index = index
        #: The model pricing this planner's decisions.
        self.cost_model = (cost_model if cost_model is not None
                           else CostModel.shared())
        #: Memoized clause → matched-row totals (clauses are immutable
        #: and the labeled rows never change, so counts are stable; the
        #: search re-submits the same clauses constantly).
        self._count_cache: dict = {}
        #: Memoized single-clause decisions — pure functions of the
        #: index shape (and, for set clauses, the wanted-code count).
        self._range_choice: bool | None = None
        self._set_choices: dict[int, bool] = {}

    def _clause_count(self, clause) -> int:
        count = self._count_cache.get(clause)
        if count is None:
            assert self.index is not None
            count = self.index.estimate_clause_count(clause)
            self._count_cache[clause] = count
        return count

    def prime_clause_counts(self, clauses: Iterable[Clause]) -> None:
        """Batch-count every not-yet-cached clause in one vectorized
        pass (see :meth:`PrefixAggregateIndex.estimate_clause_counts`).
        Per-clause Python counting loops used to dominate planning on
        large conjunction batches — the old ``conj/sum`` perf cliff."""
        assert self.index is not None
        fresh = [clause for clause in dict.fromkeys(clauses)
                 if clause not in self._count_cache]
        if not fresh:
            return
        counts = self.index.estimate_clause_counts(fresh)
        for clause, count in zip(fresh, counts):
            self._count_cache[clause] = int(count)

    @property
    def enabled(self) -> bool:
        return self.index is not None

    def fast_clause(self, predicate: Predicate) -> RangeClause | None:
        """The predicate's range-tier clause, or None when that tier
        cannot answer it."""
        if self.index is None or predicate.num_clauses != 1:
            return None
        clause = predicate.clauses[0]
        if not isinstance(clause, RangeClause):
            return None
        if not self.index.supports(clause.attribute):
            return None
        return clause

    def fast_set_clause(self, predicate: Predicate) -> SetClause | None:
        """The predicate's discrete-bucket-tier clause, or None when
        that tier cannot answer it."""
        if self.index is None or predicate.num_clauses != 1:
            return None
        clause = predicate.clauses[0]
        if not isinstance(clause, SetClause):
            return None
        if not self.index.supports_discrete(clause.attribute):
            return None
        return clause

    # ------------------------------------------------------------------
    # Cost decisions
    # ------------------------------------------------------------------
    def single_range_decision(self) -> bool:
        """Whether the range tier beats the mask kernel for single-range
        predicates on this index's shape.  Both sides are priced at the
        worst case ``k = n`` (counting first would cost as much as the
        exact tier's answer), where the per-matched-row terms largely
        cancel and the decision reduces to per-group search cost versus
        per-row comparison cost."""
        if self._range_choice is None:
            index = self.index
            n = index.n_labeled_rows
            model = self.cost_model
            tier = model.range_cost(index.n_groups, n, index.all_exact)
            mask = model.mask_cost(n, n, n_range_clauses=1)
            self._range_choice = tier <= mask
        return self._range_choice

    def single_set_decision(self, n_codes: int) -> bool:
        """Whether the bucket tier beats the mask kernel for a single
        set clause wanting ``n_codes`` codes (same worst-case ``k = n``
        pricing as :meth:`single_range_decision`)."""
        choice = self._set_choices.get(n_codes)
        if choice is None:
            index = self.index
            n = index.n_labeled_rows
            model = self.cost_model
            tier = model.set_cost(index.n_groups, n_codes, n,
                                  index.all_exact)
            mask = model.mask_cost(n, n, n_range_clauses=0, n_set_clauses=1)
            choice = tier <= mask
            self._set_choices[n_codes] = choice
        return choice

    def conjunction_decision(self, predicate: Predicate,
                             ) -> ConjunctionPlan | None:
        """Price the conjunction tier against the mask kernel for an
        index-eligible 2-clause predicate (both clauses already verified
        supported, counts already cached or cheaply countable).

        The probe is the rarer side; the tier's cost scales with its
        exact matched total ``k_probe``, the mask alternative with the
        full row count plus a scatter term at the expected intersection
        size ``k_probe / 2``.  Returns the plan when the tier wins, else
        None (the caller masks the predicate and counts a fallback).
        """
        first, second = predicate.clauses
        first_count = self._clause_count(first)
        second_count = self._clause_count(second)
        if first_count <= second_count:
            probe, other, k_probe = first, second, first_count
        else:
            probe, other, k_probe = second, first, second_count
        index = self.index
        model = self.cost_model
        probe_is_set = isinstance(probe, SetClause)
        n_probe_codes = 0
        if probe_is_set:
            n_probe_codes = min(len(probe.values),
                                index.n_codes(probe.attribute))
        tier = model.conjunction_cost(index.n_groups, k_probe,
                                      probe_is_set, n_probe_codes)
        n_set = sum(isinstance(c, SetClause) for c in (first, second))
        mask = model.mask_cost(index.n_labeled_rows, k_probe / 2,
                               n_range_clauses=2 - n_set,
                               n_set_clauses=n_set)
        if tier > mask:
            return None
        return ConjunctionPlan(probe, other, k_probe)

    def plan_conjunction(self, predicate: Predicate) -> ConjunctionPlan | None:
        """An executable plan for a 2-clause conjunction, or None when
        either clause lacks a prepared index view or the cost model
        prices the probe above the mask kernel (the caller falls back to
        the mask kernel — never an error; see the fallback contract in
        the module docstring)."""
        if self.index is None or predicate.num_clauses != 2:
            return None
        first, second = predicate.clauses
        # Both sides must be backed by raw index arrays: the probe side
        # needs a sorted/bucketed view, the other side needs the value
        # or code array its membership test reads.
        if not (self.index.supports_clause(first)
                and self.index.supports_clause(second)):
            return None
        return self.conjunction_decision(predicate)

    def partition(self, predicates: Sequence[Predicate] | Iterable[Predicate],
                  ) -> IndexRoute:
        """Split a batch across the index tiers and the mask path by
        estimated cost.

        Two passes: single clauses are decided inline (their decisions
        are memoized pure functions of the index shape), while
        index-eligible pairs are deferred, their clause counts primed in
        one vectorized batch, and then priced individually.  Relative
        order is preserved within each tier's list; cost-masked pairs
        join ``masked`` after the first pass's rejects (order across
        paths carries no meaning — the scorer reassembles by position).
        """
        route = IndexRoute()
        pending_pairs: list[Predicate] = []
        for predicate in predicates:
            clause = self.fast_clause(predicate)
            if clause is not None:
                if self.single_range_decision():
                    route.ranges.append((predicate, clause))
                    if self.index.all_exact:
                        route.cost_routed_prefix += 1
                    else:
                        route.cost_routed_gather += 1
                else:
                    route.cost_routed_mask += 1
                    route.masked.append(predicate)
                continue
            set_clause = self.fast_set_clause(predicate)
            if set_clause is not None:
                n_codes = min(len(set_clause.values),
                              self.index.n_codes(set_clause.attribute))
                if self.single_set_decision(n_codes):
                    route.sets.append((predicate, set_clause))
                    if self.index.all_exact:
                        route.cost_routed_bucket += 1
                    else:
                        route.cost_routed_gather += 1
                else:
                    route.cost_routed_mask += 1
                    route.masked.append(predicate)
                continue
            if self.index is not None and predicate.num_clauses == 2:
                first, second = predicate.clauses
                if (self.index.supports_clause(first)
                        and self.index.supports_clause(second)):
                    pending_pairs.append(predicate)
                    continue
                route.conjunction_fallbacks += 1
            route.masked.append(predicate)
        if pending_pairs:
            self.prime_clause_counts(
                clause for p in pending_pairs for clause in p.clauses)
            for predicate in pending_pairs:
                plan = self.conjunction_decision(predicate)
                if plan is not None:
                    route.conjunctions.append((predicate, plan))
                    route.cost_routed_conj += 1
                else:
                    route.conjunction_fallbacks += 1
                    route.cost_routed_mask += 1
                    route.masked.append(predicate)
        return route
