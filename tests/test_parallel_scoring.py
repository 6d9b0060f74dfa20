"""Parallel-vs-serial equivalence for sharded ``score_batch`` execution.

The contract (see :mod:`repro.parallel`): ``score_batch`` with
``workers=N`` returns bit-for-bit the influences of ``workers=1`` on
every aggregate/predicate shape, merged stats counters match a serial
run's, an exception raised in a shard propagates as the serial loop
would raise it, and close() joins the shard threads.
"""

import os

import numpy as np
import pytest

from repro.aggregates import Avg, Median, StdDev, Sum, Variance
from repro.core.influence import InfluenceScorer
from repro.core.kernel import BatchKernel
from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion
from repro.errors import ParallelError
from repro.parallel import choose_shard_size, resolve_workers
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate
from repro.query.groupby import GroupByQuery

from tests.conftest import (
    POOL_COUNTERS,
    assert_no_live_workers,
    assert_scoring_paths_agree,
    planted_sum_table,
    shard_threads,
)

#: Integer counters that must be identical between a serial and a
#: parallel run of the same batches (timing counters and the
#: parallel-only shard counters are excluded by design).
COMPARED_COUNTERS = (
    "predicate_scores", "mask_scores", "incremental_deltas",
    "full_recomputes", "cache_hits", "batch_calls", "batch_predicates",
    "largest_batch", "masked_predicates",
)


def make_problem(aggregate, c: float = 0.5, **kwargs) -> ScorpionQuery:
    table, outliers, holdouts = planted_sum_table()
    return ScorpionQuery(table, GroupByQuery("g", aggregate, "value"),
                         outliers=outliers, holdouts=holdouts,
                         error_vectors=+1.0, c=c, **kwargs)


def routed_batch(n: int = 24) -> list[Predicate]:
    """Single continuous ranges."""
    return [Predicate([RangeClause("a1", 4.0 * i, 4.0 * i + 22.0,
                                   include_hi=bool(i % 2))])
            for i in range(n)]


def set_batch() -> list[Predicate]:
    """Single set clauses, including a value the table never takes."""
    return [
        Predicate([SetClause("state", ["TX"])]),
        Predicate([SetClause("state", ["CA", "NY"])]),
        Predicate([SetClause("state", ["CA", "TX", "WA"])]),
        Predicate([SetClause("state", ["ZZ"])]),  # matches nothing
    ]


def conj_batch(n: int = 12) -> list[Predicate]:
    """2-clause conjunctions, with widths swept so either side can be
    the narrower one."""
    batch = [Predicate([RangeClause("a1", 8.0 * i, 8.0 * i + 30.0),
                        SetClause("state", ["TX", "CA"])])
             for i in range(n)]
    batch.append(Predicate([RangeClause("a1", 49.0, 51.0),
                            SetClause("state", ["TX"])]))
    batch.append(Predicate([RangeClause("a1", 0.0, 100.0),
                            SetClause("state", ["ZZ"])]))  # matches nothing
    return batch


def masked_batch() -> list[Predicate]:
    """TRUE: deletes whole groups."""
    return [Predicate.true()]


def mixed_batch() -> list[Predicate]:
    batch = routed_batch() + set_batch() + conj_batch() + masked_batch()
    batch.append(batch[0])  # duplicate submission
    return batch


def assert_parallel_equals_serial(problem, batch, workers: int,
                                  batch_chunk: int = 8,
                                  ignore_holdouts: bool = False,
                                  **scorer_kwargs) -> None:
    """Every oracle leg, with the parallel legs required to actually use
    the thread pool."""
    assert_scoring_paths_agree(problem, batch, workers=workers,
                               batch_chunk=batch_chunk,
                               ignore_holdouts=ignore_holdouts,
                               expect_pool=True, **scorer_kwargs)


class TestParallelEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("aggregate", [Sum, Avg, StdDev, Variance])
    def test_aggregates_mixed_shapes(self, aggregate, workers):
        assert_parallel_equals_serial(make_problem(aggregate()),
                                      mixed_batch(), workers)

    @pytest.mark.parametrize("aggregate", [Sum, StdDev])
    def test_mask_kernel_only(self, aggregate):
        # use_incremental=False sends every shard through the mask
        # kernel's black-box half: Δ recomputed from the raw values.
        assert_parallel_equals_serial(make_problem(aggregate()),
                                      mixed_batch(), workers=2,
                                      use_incremental=False)

    def test_ignore_holdouts(self):
        assert_parallel_equals_serial(make_problem(Sum()), mixed_batch(),
                                      workers=2, ignore_holdouts=True)

    def test_mean_perturbation(self):
        assert_parallel_equals_serial(make_problem(Avg(), perturbation="mean"),
                                      mixed_batch(), workers=2)

    def test_black_box_aggregate(self):
        # Median has no incremental removal: every shape takes mask
        # shards that recompute per predicate from the shared agg-value
        # views.
        assert_parallel_equals_serial(make_problem(Median()),
                                      masked_batch() + set_batch()
                                      + conj_batch(6) + routed_batch(8),
                                      workers=2)

    def test_fractional_c(self):
        assert_parallel_equals_serial(make_problem(Sum(), c=0.3),
                                      mixed_batch(), workers=2)

    def test_counters_match_serial_exactly(self):
        problem = make_problem(Sum())
        batch = mixed_batch()
        serial = InfluenceScorer(problem, cache_scores=False, workers=1)
        parallel = InfluenceScorer(problem, cache_scores=False, workers=2,
                                   batch_chunk=8)
        try:
            serial.score_batch(batch)
            serial.score_batch(batch[:10])
            parallel.score_batch(batch)
            parallel.score_batch(batch[:10])
            for name in COMPARED_COUNTERS:
                assert getattr(parallel.stats, name) == \
                    getattr(serial.stats, name), name
            assert parallel.stats.parallel_batches >= 1
            assert serial.stats.parallel_batches == 0
        finally:
            parallel.close()

    def test_rebind_reaches_warm_pool_workers(self):
        # The kernel takes (c, c_holdout, lam) per call; a resident
        # scorer rebound between batches must hand the live scalars to
        # each shard on its warm pool, or the shards keep scoring at
        # the stale values.
        problem = make_problem(Sum(), c=0.5)
        batch = mixed_batch()
        scorer = InfluenceScorer(problem, cache_scores=False, workers=2,
                                 batch_chunk=8)
        try:
            scorer.score_batch(batch)  # pool is warm at c=0.5
            for c, lam in ((0.1, 0.5), (0.1, 0.9), (0.8, 0.2)):
                rebound = problem.with_params(c=c, lam=lam)
                scorer.rebind(rebound)
                warm = scorer.score_batch(batch)
                cold = InfluenceScorer(rebound, cache_scores=False,
                                       workers=1).score_batch(batch)
                assert np.array_equal(np.asarray(warm), np.asarray(cold)), \
                    (c, lam)
            assert scorer.stats.parallel_batches >= 1
        finally:
            scorer.close()

    def test_shared_cache_coherence(self):
        # Batch results must populate the same memo cache score() reads.
        problem = make_problem(Sum())
        scorer = InfluenceScorer(problem, workers=2, batch_chunk=8)
        try:
            batch = mixed_batch()
            values = scorer.score_batch(batch)
            before = scorer.stats.cache_hits
            assert scorer.score(batch[0]) == values[0]
            assert scorer.stats.cache_hits == before + 1
        finally:
            scorer.close()


class TestAutomaticSplit:
    def test_one_chunk_batch_is_split_onto_the_pool(self):
        # Few predicates over enough rows that a quarter of the batch
        # clears the default dispatch gate: the scorer must cut its one
        # batch_chunk-sized chunk into shards for the two workers.
        table, outliers, holdouts = planted_sum_table(n_per_group=1000)
        problem = ScorpionQuery(table, GroupByQuery("g", Sum(), "value"),
                                outliers=outliers, holdouts=holdouts,
                                error_vectors=+1.0, c=0.5)
        batch = mixed_batch()
        size = choose_shard_size(len(set(batch)), len(table), 2, len(batch))
        assert 1 <= size < len(batch)
        serial = InfluenceScorer(problem, cache_scores=False, workers=1,
                                 batch_chunk=len(batch))
        parallel = InfluenceScorer(problem, cache_scores=False, workers=2,
                                   batch_chunk=len(batch))
        try:
            np.testing.assert_array_equal(parallel.score_batch(batch),
                                          serial.score_batch(batch))
            assert parallel.stats.parallel_shards >= 2
            for name in POOL_COUNTERS:
                assert getattr(parallel.stats, name) == \
                    getattr(serial.stats, name), name
        finally:
            parallel.close()


class TestEndToEnd:
    @pytest.mark.parametrize("algorithm", ["dt", "mc"])
    def test_scorpion_explanations_identical(self, algorithm):
        problem = make_problem(Sum())
        serial = Scorpion(algorithm=algorithm, batch_chunk=16,
                          workers=1).explain(problem)
        parallel = Scorpion(algorithm=algorithm, batch_chunk=16,
                            workers=2).explain(problem)
        assert [e.predicate for e in parallel.explanations] == \
            [e.predicate for e in serial.explanations]
        assert [e.influence for e in parallel.explanations] == \
            [e.influence for e in serial.explanations]
        for name in COMPARED_COUNTERS:
            assert parallel.scorer_stats[name] == serial.scorer_stats[name], name


class ShardFailure(Exception):
    """Raised by a patched kernel inside one shard."""


def fail_second_shard(monkeypatch, batch, exc) -> None:
    """Patch the kernel to raise ``exc`` on the batch's second
    ``batch_chunk=8`` shard (its unique predicates 8..15), whichever
    thread scores it."""
    second = list(dict.fromkeys(batch))[8:16]
    real = BatchKernel.score_masked_chunk

    def score_masked_chunk(kernel, predicates, *args):
        if list(predicates) == second:
            raise exc
        return real(kernel, predicates, *args)

    monkeypatch.setattr(BatchKernel, "score_masked_chunk", score_masked_chunk)


class TestShardFailures:
    """A shard fails as the serial loop would: its exception propagates
    from ``score_batch`` and nothing is retried or re-run serially."""

    def test_shard_exception_propagates_and_leaves_no_partial_result(
            self, monkeypatch):
        problem = make_problem(Sum())
        batch = mixed_batch()
        expected = InfluenceScorer(problem, cache_scores=False,
                                   workers=1).score_batch(batch)
        scorer = InfluenceScorer(problem, workers=2, batch_chunk=8)
        try:
            fail_second_shard(monkeypatch, batch, ShardFailure("shard 2"))
            with pytest.raises(ShardFailure, match="shard 2"):
                scorer.score_batch(batch)
            assert scorer.stats.parallel_batches == 0
            monkeypatch.undo()
            # No shard of the failed batch entered the memo cache: the
            # next batch scores every predicate afresh, and correctly.
            np.testing.assert_array_equal(scorer.score_batch(batch), expected)
            assert scorer.stats.cache_hits == 0
            assert scorer.stats.parallel_batches == 1
        finally:
            scorer.close()

    def test_keyboard_interrupt_propagates_with_clean_teardown(
            self, monkeypatch):
        problem = make_problem(Sum())
        batch = mixed_batch()
        baseline = shard_threads()
        scorer = InfluenceScorer(problem, cache_scores=False, workers=2,
                                 batch_chunk=8)
        fail_second_shard(monkeypatch, batch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            scorer.score_batch(batch)
        scorer.close()
        assert_no_live_workers(baseline)


class TestLifecycle:
    def test_serial_scorer_never_starts_a_pool(self):
        scorer = InfluenceScorer(make_problem(Sum()), cache_scores=False,
                                 workers=1)
        scorer.score_batch(mixed_batch())
        assert scorer.workers == 1
        assert scorer._pool is None
        assert scorer.stats.parallel_shards == 0

    def test_single_shard_batches_skip_the_pool(self):
        scorer = InfluenceScorer(make_problem(Sum()), cache_scores=False,
                                 workers=2, batch_chunk=4096)
        try:
            scorer.score_batch(routed_batch(6))
            assert scorer._pool is None
            assert scorer.stats.parallel_shards == 0
        finally:
            scorer.close()

    def test_close_terminates_workers(self):
        baseline = shard_threads()
        scorer = InfluenceScorer(make_problem(Sum()), cache_scores=False,
                                 workers=2, batch_chunk=8)
        scorer.score_batch(mixed_batch())
        threads = shard_threads() - baseline
        assert threads and all(thread.is_alive() for thread in threads)
        pool = scorer._pool
        scorer.close()
        assert not any(thread.is_alive() for thread in threads)
        assert_no_live_workers(baseline)
        # close() is idempotent, and the next parallel batch starts a
        # new pool.
        scorer.close()
        assert len(scorer.score_batch(mixed_batch())) == len(mixed_batch())
        assert scorer._pool is not None and scorer._pool is not pool
        assert shard_threads() - baseline - threads
        scorer.close()
        assert_no_live_workers(baseline)


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("SCORPION_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SCORPION_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("SCORPION_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ParallelError):
            resolve_workers(-1)

    def test_scorer_reads_env(self, monkeypatch):
        monkeypatch.setenv("SCORPION_WORKERS", "2")
        scorer = InfluenceScorer(make_problem(Sum()))
        assert scorer.workers == 2
        scorer.close()


class TestStatsConsistency:
    """Resets start a fresh counting window, and shard counters merge
    back by plain addition."""

    def test_reset_clears_parallel_counters(self):
        scorer = InfluenceScorer(make_problem(Sum()), cache_scores=False,
                                 workers=2, batch_chunk=8)
        try:
            scorer.score_batch(mixed_batch())
            assert scorer.stats.parallel_shards > 0
            scorer.stats.reset()
            assert scorer.stats.parallel_batches == 0
            assert scorer.stats.parallel_shards == 0
        finally:
            scorer.close()

    def test_each_shard_counts_into_its_own_window(self, monkeypatch):
        # Shards run concurrently, so no two may write the same
        # ScorerStats: a += from two threads can lose an update.
        seen = []
        real = BatchKernel.score_masked_chunk

        def score_masked_chunk(kernel, predicates, *args):
            seen.append(kernel.stats)
            return real(kernel, predicates, *args)

        monkeypatch.setattr(BatchKernel, "score_masked_chunk",
                            score_masked_chunk)
        scorer = InfluenceScorer(make_problem(Sum()), cache_scores=False,
                                 workers=2, batch_chunk=8)
        try:
            scorer.score_batch(mixed_batch())
        finally:
            scorer.close()
        assert len(seen) == scorer.stats.parallel_shards >= 2
        assert len({id(stats) for stats in seen}) == len(seen)
        assert all(stats is not scorer.stats for stats in seen)

    def test_worker_counter_merge_arithmetic(self):
        from repro.core.influence import ScorerStats

        stats = ScorerStats()
        stats.incremental_deltas = 5
        window = ScorerStats()
        window.incremental_deltas = 3
        window.full_recomputes = 2
        stats.merge_worker_counters(window.worker_counters())
        assert stats.incremental_deltas == 8
        assert stats.full_recomputes == 2
        assert set(window.worker_counters()) == set(ScorerStats.WORKER_MERGED)
