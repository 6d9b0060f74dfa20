"""Unit tests for the Merger (paper Sections 4.3 and 6.3)."""

import dataclasses
import functools
import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.merger as merger_module
from repro.aggregates import Avg, Count, StdDev, Sum
from repro.core.dt import DTPartitioner
from repro.core.influence import INVALID_INFLUENCE, InfluenceScorer
from repro.core.merger import Merger, MergerParams, _ApproxIndex, _Boxes
from repro.core.partition import CandidatePredicate, GroupRemovalStats
from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion
from repro.errors import PartitionerError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer, span
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate
from repro.predicates.space import AttributeDomain, Domain
from repro.query.groupby import GroupByQuery
from repro.table import ColumnKind, ColumnSpec, Schema, Table

from tests.test_dt import avg_problem


def dt_candidates(problem, scorer):
    return DTPartitioner(seed=1).run(problem, scorer).candidates


def approx_index(candidates, domain, scorer):
    return _ApproxIndex(_Boxes(candidates, domain), scorer)


# ----------------------------------------------------------------------
# Reference estimator: the one-merge, one-group-at-a-time cached-state
# approximation that _ApproxIndex.estimate batches, kept verbatim as the
# bit-for-bit oracle for the kernel.
# ----------------------------------------------------------------------
class ReferenceApproxIndex:
    """Per-predicate overlap geometry (the pre-batching _ApproxIndex)."""

    def __init__(self, candidates, domain, scorer):
        self.domain = domain
        self.continuous = [a for a in domain if a.is_continuous]
        self.discrete = [a for a in domain if not a.is_continuous]
        n = len(candidates)
        self.los = np.empty((n, len(self.continuous)))
        self.his = np.empty((n, len(self.continuous)))
        self.sets: list[list[frozenset]] = []
        for i, candidate in enumerate(candidates):
            row_sets = []
            for j, attr in enumerate(self.continuous):
                clause = candidate.predicate.clause_for(attr.name)
                if isinstance(clause, RangeClause):
                    self.los[i, j] = clause.lo
                    self.his[i, j] = clause.hi
                else:
                    self.los[i, j] = attr.lo
                    self.his[i, j] = attr.hi
            for attr in self.discrete:
                clause = candidate.predicate.clause_for(attr.name)
                if isinstance(clause, SetClause):
                    row_sets.append(clause.values)
                else:
                    row_sets.append(frozenset(attr.values))
            self.sets.append(row_sets)
        self.widths = np.maximum(self.his - self.los, 0.0)

        self.group_keys = [ctx.key for ctx in scorer.outlier_contexts]
        key_index = {key: g for g, key in enumerate(self.group_keys)}
        self.counts = np.zeros((n, len(self.group_keys)))
        state_size = (scorer.outlier_contexts[0].total_state.shape[0]
                      if scorer.outlier_contexts[0].total_state is not None else 0)
        self.states = np.zeros((n, len(self.group_keys), state_size))
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

    def overlap_shares(self, predicate: Predicate) -> np.ndarray:
        """Fraction of each candidate box lying inside ``predicate``."""
        n = len(self.los)
        shares = np.ones(n)
        for j, attr in enumerate(self.continuous):
            clause = predicate.clause_for(attr.name)
            if clause is None:
                continue
            assert isinstance(clause, RangeClause)
            overlap = (np.minimum(self.his[:, j], clause.hi)
                       - np.maximum(self.los[:, j], clause.lo))
            overlap = np.clip(overlap, 0.0, None)
            with np.errstate(divide="ignore", invalid="ignore"):
                fraction = overlap / self.widths[:, j]
            # Zero-width candidate boxes: inside iff the point overlaps.
            point_inside = ((self.los[:, j] >= clause.lo)
                            & (self.los[:, j] <= clause.hi))
            fraction = np.where(self.widths[:, j] > 0, fraction,
                                point_inside.astype(float))
            shares *= fraction
        for d_index, attr in enumerate(self.discrete):
            clause = predicate.clause_for(attr.name)
            if clause is None:
                continue
            assert isinstance(clause, SetClause)
            for i in range(n):
                if shares[i] == 0.0:
                    continue
                candidate_values = self.sets[i][d_index]
                shares[i] *= (len(candidate_values & clause.values)
                              / len(candidate_values))
        return shares


def reference_approximate(scorer, index, predicate) -> float:
    """Cached-state influence estimate (Section 6.3), one merge and one
    outlier group at a time."""
    shares = index.overlap_shares(predicate)
    removed_counts = shares @ index.counts           # (n_groups,)
    removed_states = np.einsum("i,igk->gk", shares, index.states)
    total = 0.0
    for g, context in enumerate(scorer.outlier_contexts):
        count = removed_counts[g]
        if count < 0.5:
            continue
        updated = scorer.kernel.updated_from_removed(
            context, removed_states[g], count)
        if np.isnan(updated):
            return INVALID_INFLUENCE
        delta = context.total_value - updated
        total += delta / (count ** scorer.c) * context.error_vector
    return scorer.lam * total / max(len(scorer.outlier_contexts), 1)


class ReferenceEstimator:
    """Drop-in for _ApproxIndex whose estimates are the reference loop."""

    def __init__(self, boxes, scorer):
        self.scorer = scorer
        self.candidates = boxes.candidates
        self.index = ReferenceApproxIndex(
            boxes.candidates, boxes.continuous + boxes.discrete, scorer)

    def estimate(self, predicates):
        return np.asarray([reference_approximate(self.scorer, self.index, p)
                           for p in predicates], dtype=np.float64)

    def estimate_merges(self, current, hits):
        """The box-array entry, answered by rebuilding every merged
        Predicate and estimating it with the reference loop."""
        return self.estimate([current.merge(self.candidates[i].predicate)
                              for i in hits])


@dataclass
class _ScalarExpansion:
    current: Predicate
    exact: float
    estimate: float
    members: set
    scans: int = 0
    active: bool = True


class PerStartMerger(Merger):
    """The Merger with the per-start expansion loop that the box-space
    loop reproduces: a Python scan calling ``Predicate.is_adjacent_to``
    and ``Predicate.merge`` per candidate, then one estimate call
    (``score_batch`` or ``_ApproxIndex.estimate``) per start and round."""

    def _estimate_batch(self, predicates):
        if self._index is None:
            return self.scorer.score_batch(predicates)
        self.report.n_scorer_calls_saved += len(predicates)
        return self._index.estimate(predicates)

    def _expand_lockstep(self, starts, boxes):
        if not starts:
            return []
        start_exacts = self.scorer.score_batch(starts)
        if self._index is None:
            start_estimates = [self.scorer.score(p) for p in starts]
        else:
            start_estimates = self._estimate_batch(starts)
        states = [_ScalarExpansion(current=predicate, exact=float(exact),
                                   estimate=estimate, members={predicate})
                  for predicate, exact, estimate
                  in zip(starts, start_exacts, start_estimates)]
        while True:
            with span("merge_round") as rsp:
                proposals = []
                for state in states:
                    if not state.active:
                        continue
                    if state.scans >= self.params.max_rounds:
                        state.active = False
                        continue
                    state.scans += 1
                    merges = []
                    neighbors = 0
                    for other in boxes.candidates:
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
                if not proposals:
                    break
                exacts = self.scorer.score_batch(
                    [merged for _, merged, _, _ in proposals])
                if self._index is not None:
                    self._record_approx_error(
                        [estimate for *_, estimate in proposals], exacts, rsp)
                for (state, merged, member, estimate), exact in zip(proposals,
                                                                    exacts):
                    if float(exact) <= state.exact:
                        state.active = False
                        continue
                    state.current = merged
                    state.estimate = estimate
                    state.exact = float(exact)
                    state.members.add(member)
        return [state.current for state in states]


def bits(values) -> bytes:
    """Exact float64 bit pattern (tells -0.0 from 0.0 and NaN payloads)."""
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


class TestBasicMerging:
    def test_merges_fragments_into_planted_region(self):
        problem = avg_problem(n_per_group=300)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        merger = Merger(scorer, problem.domain,
                        params=MergerParams(expand_fraction=1.0,
                                            use_approximation=False))
        merged = merger.run(candidates)
        assert merged
        best = merged[0]
        clause = best.predicate.clause_for("x")
        assert clause is not None and clause.lo <= 45 and clause.hi >= 55

    def test_merged_influence_at_least_best_candidate(self):
        problem = avg_problem(n_per_group=300)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        merger = Merger(scorer, problem.domain,
                        params=MergerParams(expand_fraction=1.0))
        merged = merger.run(candidates)
        best_candidate_influence = max(
            scorer.score(c.predicate) for c in candidates)
        assert merged[0].influence >= best_candidate_influence - 1e-9

    def test_results_sorted_and_deduped(self):
        problem = avg_problem(n_per_group=200)
        scorer = InfluenceScorer(problem)
        merged = Merger(scorer, problem.domain).run(dt_candidates(problem, scorer))
        influences = [sp.influence for sp in merged]
        assert influences == sorted(influences, reverse=True)
        predicates = [sp.predicate for sp in merged]
        assert len(predicates) == len(set(predicates))

    def test_empty_input(self):
        problem = avg_problem(n_per_group=100)
        scorer = InfluenceScorer(problem)
        assert Merger(scorer, problem.domain).run([]) == []

    def test_unknown_param_rejected(self):
        problem = avg_problem(n_per_group=100)
        scorer = InfluenceScorer(problem)
        with pytest.raises(PartitionerError):
            Merger(scorer, problem.domain, nope=3)

    def test_negative_caps_rejected(self):
        # A negative cap used to switch merging off without a word.
        problem = avg_problem(n_per_group=100)
        scorer = InfluenceScorer(problem)
        for name in ("max_rounds", "max_neighbors"):
            with pytest.raises(PartitionerError, match=name):
                Merger(scorer, problem.domain, **{name: -1})
        candidates = dt_candidates(problem, scorer)
        for name in ("max_rounds", "max_neighbors"):
            merger = Merger(scorer, problem.domain, **{name: 0})
            assert merger.run(candidates)
            assert merger.report.n_merge_evaluations == 0

    def test_bad_expand_fraction_rejected(self):
        problem = avg_problem(n_per_group=100)
        scorer = InfluenceScorer(problem)
        with pytest.raises(PartitionerError):
            Merger(scorer, problem.domain, expand_fraction=0.0)

    def test_overrides_leave_caller_params_untouched(self):
        # The caller's MergerParams may be shared (Scorpion and MC keep
        # one for every Merger they build), so overrides go on a copy.
        problem = avg_problem(n_per_group=100)
        scorer = InfluenceScorer(problem)
        params = MergerParams()
        merger = Merger(scorer, problem.domain, params=params, max_rounds=3)
        assert merger.params.max_rounds == 3
        assert params == MergerParams()
        with pytest.raises(PartitionerError):
            Merger(scorer, problem.domain, params=params, expand_fraction=0.0)
        with pytest.raises(PartitionerError):
            Merger(scorer, problem.domain, params=params, max_rounds=3,
                   nope=1)
        assert params == MergerParams()


class TestQuartileOptimization:
    def test_expands_fewer_candidates(self):
        problem = avg_problem(n_per_group=300)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        full = Merger(scorer, problem.domain,
                      params=MergerParams(expand_fraction=1.0))
        quart = Merger(scorer, problem.domain,
                       params=MergerParams(expand_fraction=0.25))
        full.run(candidates)
        quart.run(candidates)
        assert quart.report.n_expanded < full.report.n_expanded
        assert quart.report.n_expanded >= int(np.ceil(len(candidates) * 0.25))


class TestApproximation:
    def test_saves_scorer_calls(self):
        problem = avg_problem(n_per_group=300)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        approx = Merger(scorer, problem.domain,
                        params=MergerParams(use_approximation=True))
        approx.run(candidates)
        assert approx.report.n_scorer_calls_saved > 0

    def test_estimate_close_to_exact_on_whole_partitions(self):
        problem = avg_problem(n_per_group=400, with_holdouts=False)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        index = approx_index(candidates, problem.domain, scorer)
        predicates = [candidate.predicate for candidate in candidates[:10]]
        estimates = index.estimate(predicates)
        for predicate, estimate in zip(predicates, estimates):
            exact = scorer.score(predicate, ignore_holdouts=True)
            # A candidate's own stats are exact: estimate == exact score.
            assert estimate == pytest.approx(exact, rel=1e-6, abs=1e-9)

    def test_overlap_shares_geometry(self):
        problem = avg_problem(n_per_group=100, with_holdouts=False)
        scorer = InfluenceScorer(problem)
        stats = {scorer.outlier_contexts[0].key: GroupRemovalStats(10.0)}
        candidates = [
            CandidatePredicate(
                Predicate([RangeClause("x", 0, 10), RangeClause("y", 0, 10)]),
                score=1.0, group_stats=stats, volume=0.01),
        ]
        index = approx_index(candidates, problem.domain, scorer)
        contained = Predicate([RangeClause("x", 0, 20), RangeClause("y", 0, 20)])
        half = Predicate([RangeClause("x", 0, 5), RangeClause("y", 0, 10)])
        disjoint = Predicate([RangeClause("x", 50, 60), RangeClause("y", 0, 10)])
        shares = index.shares([contained, half, disjoint])
        assert shares.shape == (3, 1)
        assert shares[:, 0] == pytest.approx([1.0, 0.5, 0.0])
        assert shares[2, 0] == 0.0

    def test_overlap_shares_discrete(self, sum_problem):
        # sum_problem's domain has the discrete rest attribute "state".
        scorer = InfluenceScorer(sum_problem)
        stats = {scorer.outlier_contexts[0].key: GroupRemovalStats(10.0)}
        candidates = [
            CandidatePredicate(
                Predicate([SetClause("state", ["TX", "CA"])]),
                score=1.0, group_stats=stats, volume=0.5),
        ]
        index = approx_index(candidates, sum_problem.domain, scorer)
        one = Predicate([SetClause("state", ["TX"])])
        both = Predicate([SetClause("state", ["TX", "CA", "NY"])])
        none = Predicate([SetClause("state", ["WA"])])
        shares = index.shares([one, both, none])
        assert shares[:, 0] == pytest.approx([0.5, 1.0, 0.0])
        assert shares[2, 0] == 0.0

    def test_disabled_for_black_box_inputs(self):
        problem = avg_problem(n_per_group=100)
        scorer = InfluenceScorer(problem, use_incremental=False)
        merger = Merger(scorer, problem.domain,
                        params=MergerParams(use_approximation=True))
        assert not merger._approx_ready


AGGREGATES = {"sum": Sum, "count": Count, "avg": Avg, "stddev": StdDev}
STATES = ("CA", "NY", "TX", "WA")
KINDS = ("a", "b", "c")
#: Grid points (and beyond-domain points) so boxes share edges, touch,
#: contain each other and collapse to zero width; -0.0 ties 0.0.
BOUNDS = st.sampled_from([-5.0, -0.0, 0.0, 12.5, 25.0, 40.0, 50.0, 60.0,
                          75.0, 100.0, 105.0]) | st.floats(-5.0, 105.0)


@functools.lru_cache(maxsize=None)
def kernel_scorer(aggregate: str, perturbation: str, c: float):
    """A small problem with two continuous and two discrete explanation
    attributes, three outlier groups and one hold-out."""
    rng = np.random.default_rng(7)
    n_groups, per_group = 4, 15
    n = n_groups * per_group
    x = rng.uniform(0, 100, n)
    x[:2] = (0.0, 100.0)
    y = rng.uniform(0, 100, n)
    y[:2] = (0.0, 100.0)
    table = Table.from_columns(
        Schema([ColumnSpec("g", ColumnKind.DISCRETE),
                ColumnSpec("x", ColumnKind.CONTINUOUS),
                ColumnSpec("y", ColumnKind.CONTINUOUS),
                ColumnSpec("state", ColumnKind.DISCRETE),
                ColumnSpec("kind", ColumnKind.DISCRETE),
                ColumnSpec("v", ColumnKind.CONTINUOUS)]),
        {"g": np.repeat([f"g{i}" for i in range(n_groups)], per_group),
         "x": x, "y": y,
         "state": np.resize(np.asarray(STATES), n),
         "kind": rng.choice(KINDS, n),
         "v": rng.normal(10.0, 3.0, n)})
    problem = ScorpionQuery(
        table, GroupByQuery("g", AGGREGATES[aggregate](), "v"),
        outliers=["g0", "g1", "g2"], holdouts=["g3"], c=c,
        perturbation=perturbation)
    return InfluenceScorer(problem)


@st.composite
def boxes(draw):
    """A predicate constraining a random subset of the attributes:
    ranges (closed, half-open or zero-width) and value sets, which may
    name a value ("ZZ") outside the domain."""
    clauses = []
    for attribute in ("x", "y"):
        if draw(st.booleans()):
            lo, hi = sorted((draw(BOUNDS), draw(BOUNDS)))
            include_hi = lo == hi or draw(st.booleans())
            clauses.append(RangeClause(attribute, lo, hi, include_hi))
    for attribute, values in (("state", STATES), ("kind", KINDS)):
        if draw(st.booleans()):
            chosen = draw(st.sets(st.sampled_from(values + ("ZZ",)),
                                  min_size=1))
            clauses.append(SetClause(attribute, chosen))
    return Predicate(clauses)


@st.composite
def kernel_cases(draw):
    """(scorer, candidates, merges) over every aggregate, perturbation
    and c the kernel must reproduce."""
    scorer = kernel_scorer(draw(st.sampled_from(sorted(AGGREGATES))),
                           draw(st.sampled_from(["delete", "mean"])),
                           draw(st.sampled_from([0.0, 0.3, 1.0])))
    keys = [ctx.key for ctx in scorer.contexts]
    k = scorer.outlier_contexts[0].total_state.shape[0]
    real = st.floats(-60.0, 60.0, allow_nan=False)
    stats = st.builds(
        GroupRemovalStats,
        count=st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, 15.0])
        | st.floats(0.0, 20.0),
        state_sum=st.none() | st.lists(real, min_size=k, max_size=k).map(
            np.asarray))
    group_stats = st.none() | st.dictionaries(st.sampled_from(keys), stats)
    candidates = draw(st.lists(
        st.builds(CandidatePredicate, predicate=boxes(), score=st.just(1.0),
                  group_stats=group_stats),
        min_size=1, max_size=10))
    merges = draw(st.lists(boxes(), min_size=1, max_size=8))
    return scorer, candidates, merges + draw(siblings(candidates))


@st.composite
def siblings(draw, candidates):
    """Per candidate, the candidate with one clause redrawn: a likely
    neighbour that differs from it in exactly one range or value set."""
    out = []
    for candidate in candidates:
        clauses = list(candidate.predicate.clauses)
        if not clauses:
            continue
        i = draw(st.integers(0, len(clauses) - 1))
        clause = clauses[i]
        if isinstance(clause, SetClause):
            values = STATES if clause.attribute == "state" else KINDS
            clauses[i] = SetClause(clause.attribute, draw(st.sets(
                st.sampled_from(values + ("ZZ",)), min_size=1)))
        else:
            lo, hi = sorted((draw(BOUNDS), draw(BOUNDS)))
            clauses[i] = RangeClause(clause.attribute, lo, hi,
                                     lo == hi or draw(st.booleans()))
        out.append(Predicate(clauses))
    return out


class TestBatchedEstimator:
    """``_ApproxIndex`` estimates against the per-merge reference."""

    @settings(max_examples=150, deadline=None)
    @given(case=kernel_cases())
    def test_kernel_matches_reference_bit_for_bit(self, case):
        # estimate() over the drawn boxes, and estimate_merges() — merged
        # boxes as arrays — for each drawn box and candidate grown with
        # its neighbours: the same bits as merging Predicates one by one.
        scorer, candidates, merges = case
        domain = scorer.query.domain
        boxes = _Boxes(candidates, domain)
        index = _ApproxIndex(boxes, scorer)
        reference = ReferenceApproxIndex(candidates, domain, scorer)
        with np.errstate(all="ignore"):
            shares = index.shares(merges)
            for row, merge in zip(shares, merges):
                assert bits(row) == bits(reference.overlap_shares(merge))
            expected = [reference_approximate(scorer, reference, merge)
                        for merge in merges]
            assert bits(index.estimate(merges)) == bits(expected)
            for current in merges + [c.predicate for c in candidates]:
                hits = boxes.neighbours(boxes.pack([current]),
                                        boxes.members_of(current), 64)
                if not len(hits):
                    continue
                merged = [current.merge(candidates[i].predicate)
                          for i in hits]
                expected = [reference_approximate(scorer, reference, merge)
                            for merge in merged]
                assert bits(index.estimate_merges(current, hits)) == \
                    bits(index.estimate(merged)) == bits(expected)

    @settings(max_examples=40, deadline=None)
    @given(case=kernel_cases(), seed=st.integers(0, 2**16))
    def test_estimate_independent_of_batch(self, case, seed):
        scorer, candidates, merges = case
        index = approx_index(candidates, scorer.query.domain, scorer)
        order = list(range(len(merges)))
        random.Random(seed).shuffle(order)
        with np.errstate(all="ignore"):
            batch = index.estimate(merges)
            shuffled = index.estimate([merges[i] for i in order])
            for position, i in enumerate(order):
                assert bits(shuffled[position]) == bits(batch[i])
                assert bits(index.estimate([merges[i]])) == bits(batch[i])

    @pytest.mark.parametrize("case", ["avg", "sum_discrete", "exact", "seeds"])
    def test_run_matches_reference_estimator(self, case, sum_problem,
                                             monkeypatch):
        # The box-space loop against the per-start reference loop, and
        # (with the approximation on) its array estimates against the
        # reference estimator rebuilding every merged Predicate.
        problem = avg_problem(n_per_group=300) if case == "avg" else sum_problem
        params = MergerParams(expand_fraction=1.0,
                              use_approximation=case != "exact")

        def run(merger_class=Merger):
            scorer = InfluenceScorer(problem)
            candidates = dt_candidates(problem, scorer)
            seeds = (warm_start_seeds(scorer, problem, candidates)
                     if case == "seeds" else None)
            merger = merger_class(scorer, problem.domain, params=params)
            merged = merger.run(candidates, seeds=seeds)
            assert (merger._index is None) == (case == "exact")
            counters = {name: getattr(scorer.stats, name)
                        for name in CONTRACT_COUNTERS}
            return (merged, dataclasses.replace(merger.report, elapsed=0.0),
                    counters)

        def assert_same(run_a, run_b):
            (merged_a, report_a, counters_a) = run_a
            (merged_b, report_b, counters_b) = run_b
            assert [sp.predicate for sp in merged_a] == \
                [sp.predicate for sp in merged_b]
            assert bits([sp.influence for sp in merged_a]) == \
                bits([sp.influence for sp in merged_b])
            assert report_a == report_b
            assert counters_a == counters_b

        batched = run()
        assert batched[0]
        assert batched[1].n_merge_evaluations > 0
        assert_same(batched, run(PerStartMerger))
        if case != "exact":
            monkeypatch.setattr(merger_module, "_ApproxIndex",
                                ReferenceEstimator)
            assert_same(batched, run())


#: Scorer counters a Merger run must reproduce exactly whatever the
#: batching of its score_batch calls.
CONTRACT_COUNTERS = ("incremental_deltas", "masked_predicates")


def warm_start_seeds(scorer, problem, candidates):
    """Expansion starts as a warm start hands them over: the best
    results of an earlier merge pass (mostly not candidates), plus one
    holding a set value that no candidate has."""
    earlier = Merger(scorer, problem.domain).run(candidates)
    seeds = [sp.predicate for sp in earlier[:3]]
    with_set = next(c.predicate for c in candidates
                    if any(isinstance(clause, SetClause)
                           for clause in c.predicate.clauses))
    seeds.append(Predicate([
        SetClause(clause.attribute, clause.values | {"ZZ"})
        if isinstance(clause, SetClause) else clause
        for clause in with_set.clauses]))
    return seeds


#: Bounds on a coarse grid, so ranges share faces, coincide and collapse
#: to zero width.
GRID = (0.0, 1.0, 2.0, 3.0)
#: Ranges on x, y and k, value sets on s and t.
ADJACENCY_DOMAIN = Domain(
    [AttributeDomain(name, ColumnKind.CONTINUOUS, lo=GRID[0], hi=GRID[-1])
     for name in ("x", "y", "k")]
    + [AttributeDomain(name, ColumnKind.DISCRETE, values=("a", "b", "c"))
       for name in ("s", "t")])


@st.composite
def grid_ranges(draw, attribute):
    lo = draw(st.sampled_from(GRID))
    hi = draw(st.sampled_from([bound for bound in GRID if bound >= lo]))
    include_hi = lo == hi or draw(st.booleans())
    return RangeClause(attribute, lo, hi, include_hi)


@st.composite
def adjacency_boxes(draw, foreign=False):
    """A predicate over a random subset of :data:`ADJACENCY_DOMAIN`.
    ``foreign`` lets sets hold a value ("Z") that no candidate holds."""
    pool = "abcZ" if foreign else "abc"
    clauses = [draw(grid_ranges(attribute)) for attribute in ("x", "y", "k")
               if draw(st.booleans())]
    clauses += [SetClause(attribute, draw(st.sets(st.sampled_from(pool),
                                                  min_size=1)))
                for attribute in ("s", "t") if draw(st.booleans())]
    return Predicate(clauses)


def reference_neighbours(current, members, candidates, limit):
    """The scalar scan: is_adjacent_to per candidate, members skipped,
    stopping after the first ``limit`` hits."""
    hits = []
    for i, other in enumerate(candidates):
        if other in members or not current.is_adjacent_to(other):
            continue
        if len(hits) == limit:
            break
        hits.append(i)
    return hits


def adjacency_boxes_of(predicates):
    return _Boxes([CandidatePredicate(p, score=1.0) for p in predicates],
                  ADJACENCY_DOMAIN)


class TestBoxSpaceNeighbours:
    """``_Boxes.neighbours`` against the scalar scan it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(candidates=st.lists(adjacency_boxes(), max_size=14),
           data=st.data(), limit=st.integers(0, 6) | st.just(64))
    def test_matches_reference_scan(self, candidates, data, limit):
        # Starts are candidates, merges of two candidates (ranges and
        # sets no candidate has) or foreign seeds; the member set holds
        # the start and some candidates.
        choice = data.draw(st.sampled_from(["candidate", "merge", "seed"])
                           if candidates else st.just("seed"))
        if choice == "candidate":
            current = data.draw(st.sampled_from(candidates))
        elif choice == "merge":
            current = data.draw(st.sampled_from(candidates))
            other = data.draw(st.sampled_from(candidates))
            if current.is_adjacent_to(other):
                current = current.merge(other)
        else:
            current = data.draw(adjacency_boxes(foreign=True))
        members = {current}
        if candidates:
            members |= set(data.draw(st.lists(st.sampled_from(candidates),
                                              max_size=4)))
        boxes = adjacency_boxes_of(candidates)
        mask = np.zeros(len(candidates), dtype=bool)
        for member in members:
            mask |= boxes.members_of(member)
        hits = boxes.neighbours(boxes.pack([current]), mask, limit)
        assert hits.tolist() == reference_neighbours(current, members,
                                                     candidates, limit)

    def test_empty_candidate_list(self):
        boxes = adjacency_boxes_of([])
        seed = Predicate([RangeClause("x", 0.0, 1.0),
                          SetClause("s", ["Z"])])
        hits = boxes.neighbours(boxes.pack([seed]), np.zeros(0, dtype=bool),
                                64)
        assert hits.tolist() == []

    def test_duplicate_candidates_excluded_together(self):
        # Member exclusion matches by equality, as the scalar scan's
        # ``other in members`` does: equal candidates leave together.
        a = Predicate([RangeClause("x", 0.0, 1.0, include_hi=False)])
        b = Predicate([RangeClause("x", 1.0, 2.0)])
        boxes = adjacency_boxes_of([a, b, a])
        members = boxes.members_of(b)
        assert boxes.neighbours(boxes.pack([b]), members, 64).tolist() == \
            [0, 2]
        members |= boxes.members_of(a)
        assert boxes.neighbours(boxes.pack([b]), members, 64).tolist() == []

    @pytest.mark.parametrize("clause", [SetClause("x", ["a"]),
                                        RangeClause("s", 0.0, 1.0),
                                        RangeClause("w", 0.0, 1.0)])
    def test_clause_outside_domain_rejected(self, clause):
        with pytest.raises(PartitionerError, match="domain"):
            adjacency_boxes_of([Predicate([clause])])
        with pytest.raises(PartitionerError, match="domain"):
            adjacency_boxes_of([]).pack([Predicate([clause])])


def _approx_error_count() -> int:
    histogram = REGISTRY.get("scorpion_merge_approx_error")
    return 0 if histogram is None else histogram.count


class TestApproximationProvenance:
    #: Scorer counters a traced and an untraced run must agree on.
    COUNTERS = ("predicate_scores", "mask_scores", "incremental_deltas",
                "cache_hits", "batch_calls", "batch_predicates",
                "masked_predicates")

    def _run(self, problem, traced: bool):
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        merger = Merger(scorer, problem.domain,
                        params=MergerParams(expand_fraction=1.0))
        tracer = Tracer().activate() if traced else None
        try:
            merged = merger.run(candidates)
        finally:
            if tracer is not None:
                tracer.deactivate()
        counters = {name: getattr(scorer.stats, name)
                    for name in self.COUNTERS}
        return merged, counters, tracer

    def test_one_observation_per_proposal(self):
        problem = avg_problem(n_per_group=300)
        before = _approx_error_count()
        merged, counters, tracer = self._run(problem, traced=True)
        rounds = [sp for sp in tracer.export() if sp["name"] == "merge_round"]
        proposals = sum(sp["attrs"]["proposals"] for sp in rounds)
        assert proposals > 0
        assert _approx_error_count() - before == proposals
        for sp in rounds:
            if sp["attrs"]["proposals"]:
                assert 0.0 <= sp["attrs"]["approx_error_max"] < np.inf
            else:
                assert "approx_error_max" not in sp["attrs"]

        untraced, untraced_counters, _ = self._run(problem, traced=False)
        assert [sp.predicate for sp in merged] == \
            [sp.predicate for sp in untraced]
        assert bits([sp.influence for sp in merged]) == \
            bits([sp.influence for sp in untraced])
        assert counters == untraced_counters

    def test_exact_mode_mc_records_nothing(self, sum_problem):
        before = _approx_error_count()
        result = Scorpion(algorithm="mc").explain(sum_problem)
        assert result.explanations
        assert _approx_error_count() == before


class TestAdoptionVerification:
    def test_expansion_never_ends_below_start(self):
        problem = avg_problem(n_per_group=300)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        merger = Merger(scorer, problem.domain)
        merged = merger.run(candidates)
        for start in candidates[:5]:
            start_influence = scorer.score(start.predicate)
            assert merged[0].influence >= start_influence - 1e-9

    def test_adoptions_verified_through_batches(self):
        # A round's winning merges are exact-checked via one score_batch
        # call across expansion starts: no adoption check ever reaches
        # the scalar mask path (every scalar score() call downstream of
        # run() is a cache hit on a batch-computed value).
        problem = avg_problem(n_per_group=300)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        merger = Merger(scorer, problem.domain,
                        params=MergerParams(expand_fraction=1.0))
        before = scorer.stats.mask_scores
        batches_before = scorer.stats.batch_calls
        merged = merger.run(candidates)
        assert merged
        per_batch_mask_scores = (scorer.stats.mask_scores - before)
        # Scalar-path mask evaluations would show up as mask_scores not
        # attributable to batch chunks; with caching on there are none.
        assert scorer.stats.cache_hits > 0
        assert scorer.stats.batch_calls > batches_before
        assert per_batch_mask_scores == scorer.stats.masked_predicates

    def test_lockstep_equals_uncached_run(self):
        # Accept/reject decisions depend only on influence values, which
        # score_batch reproduces bit for bit — so a run without the memo
        # cache (every verification recomputed) lands on identical
        # predicates and influences.
        problem = avg_problem(n_per_group=300)
        cached_scorer = InfluenceScorer(problem)
        uncached_scorer = InfluenceScorer(problem, cache_scores=False)
        candidates = dt_candidates(problem, cached_scorer)
        params = MergerParams(expand_fraction=1.0, use_approximation=False)
        cached = Merger(cached_scorer, problem.domain, params=params).run(
            candidates)
        uncached = Merger(uncached_scorer, problem.domain, params=params).run(
            dt_candidates(problem, uncached_scorer))
        assert [sp.predicate for sp in cached] == \
            [sp.predicate for sp in uncached]
        assert [sp.influence for sp in cached] == \
            [sp.influence for sp in uncached]

    def test_parallel_scorer_preserves_merger_output(self):
        problem = avg_problem(n_per_group=300)
        serial_scorer = InfluenceScorer(problem)
        parallel_scorer = InfluenceScorer(problem, workers=2, batch_chunk=8)
        try:
            candidates = dt_candidates(problem, serial_scorer)
            params = MergerParams(expand_fraction=1.0)
            serial = Merger(serial_scorer, problem.domain, params=params).run(
                candidates)
            parallel = Merger(parallel_scorer, problem.domain,
                              params=params).run(
                dt_candidates(problem, parallel_scorer))
            assert [sp.predicate for sp in serial] == \
                [sp.predicate for sp in parallel]
            assert [sp.influence for sp in serial] == \
                [sp.influence for sp in parallel]
        finally:
            parallel_scorer.close()


class TestSeeds:
    def test_seeded_run_expands_seeds(self):
        problem = avg_problem(n_per_group=200)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        seed = [candidates[0].predicate]
        merger = Merger(scorer, problem.domain)
        merged = merger.run(candidates, seeds=seed)
        assert merger.report.n_expanded == 1
        assert merged
