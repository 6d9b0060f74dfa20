"""Unit tests for the Merger (paper Sections 4.3 and 6.3)."""

import dataclasses
import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.merger as merger_module
from repro.aggregates import Avg, Count, StdDev, Sum
from repro.core.dt import DTPartitioner
from repro.core.influence import INVALID_INFLUENCE, InfluenceScorer
from repro.core.merger import Merger, MergerParams, _ApproxIndex
from repro.core.partition import CandidatePredicate, GroupRemovalStats
from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion
from repro.errors import PartitionerError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate
from repro.query.groupby import GroupByQuery
from repro.table import ColumnKind, ColumnSpec, Schema, Table

from tests.test_dt import avg_problem


def dt_candidates(problem, scorer):
    return DTPartitioner(seed=1).run(problem, scorer).candidates


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
    """Drop-in for _ApproxIndex whose estimate is the reference loop."""

    def __init__(self, candidates, domain, scorer):
        self.scorer = scorer
        self.index = ReferenceApproxIndex(candidates, domain, scorer)

    def estimate(self, predicates):
        return np.asarray([reference_approximate(self.scorer, self.index, p)
                           for p in predicates], dtype=np.float64)


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
        index = _ApproxIndex(candidates, problem.domain, scorer)
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
        index = _ApproxIndex(candidates, problem.domain, scorer)
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
        index = _ApproxIndex(candidates, sum_problem.domain, scorer)
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
#: contain each other and collapse to zero width.
BOUNDS = st.sampled_from([-5.0, 0.0, 12.5, 25.0, 40.0, 50.0, 60.0, 75.0,
                          100.0, 105.0]) | st.floats(-5.0, 105.0)


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
    return scorer, candidates, merges


class TestBatchedEstimator:
    """``_ApproxIndex.estimate`` against the per-merge reference."""

    @settings(max_examples=150, deadline=None)
    @given(case=kernel_cases())
    def test_kernel_matches_reference_bit_for_bit(self, case):
        scorer, candidates, merges = case
        domain = scorer.query.domain
        index = _ApproxIndex(candidates, domain, scorer)
        reference = ReferenceApproxIndex(candidates, domain, scorer)
        with np.errstate(all="ignore"):
            shares = index.shares(merges)
            for row, merge in zip(shares, merges):
                assert bits(row) == bits(reference.overlap_shares(merge))
            expected = [reference_approximate(scorer, reference, merge)
                        for merge in merges]
            assert bits(index.estimate(merges)) == bits(expected)

    @settings(max_examples=40, deadline=None)
    @given(case=kernel_cases(), seed=st.integers(0, 2**16))
    def test_estimate_independent_of_batch(self, case, seed):
        scorer, candidates, merges = case
        index = _ApproxIndex(candidates, scorer.query.domain, scorer)
        order = list(range(len(merges)))
        random.Random(seed).shuffle(order)
        with np.errstate(all="ignore"):
            batch = index.estimate(merges)
            shuffled = index.estimate([merges[i] for i in order])
            for position, i in enumerate(order):
                assert bits(shuffled[position]) == bits(batch[i])
                assert bits(index.estimate([merges[i]])) == bits(batch[i])

    @pytest.mark.parametrize("problem_name", ["avg", "sum_discrete"])
    def test_run_matches_reference_estimator(self, problem_name,
                                             sum_problem, monkeypatch):
        problem = (avg_problem(n_per_group=300) if problem_name == "avg"
                   else sum_problem)
        params = MergerParams(expand_fraction=1.0)

        def run():
            scorer = InfluenceScorer(problem)
            merger = Merger(scorer, problem.domain, params=params)
            merged = merger.run(dt_candidates(problem, scorer))
            assert merger._index is not None
            return merged, merger.report

        batched, batched_report = run()
        monkeypatch.setattr(merger_module, "_ApproxIndex", ReferenceEstimator)
        reference, reference_report = run()
        assert batched
        assert [sp.predicate for sp in batched] == \
            [sp.predicate for sp in reference]
        assert bits([sp.influence for sp in batched]) == \
            bits([sp.influence for sp in reference])
        assert dataclasses.replace(batched_report, elapsed=0.0) == \
            dataclasses.replace(reference_report, elapsed=0.0)


def _approx_error_count() -> int:
    histogram = REGISTRY.get("scorpion_merge_approx_error")
    return 0 if histogram is None else histogram.count


class TestApproximationProvenance:
    #: Scorer counters a traced and an untraced run must agree on.
    COUNTERS = ("predicate_scores", "mask_scores", "incremental_deltas",
                "cache_hits", "batch_calls", "batch_predicates",
                "indexed_predicates", "masked_predicates")

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
