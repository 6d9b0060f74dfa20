"""Parallel-vs-serial equivalence for the sharded scoring executor.

The contract (see :mod:`repro.parallel`): ``score_batch`` with
``workers=N`` returns bit-for-bit the influences of ``workers=1`` on
every aggregate/predicate shape, merged stats counters match a serial
run's, pool failures (crash or timeout) fall back to serial scoring
with a warning instead of hanging, and close() terminates the pool's
workers.
"""

import multiprocessing
import os
import pickle
import signal
import warnings

import numpy as np
import pytest

from repro.aggregates import Avg, Median, StdDev, Sum, Variance
from repro.core.influence import InfluenceScorer
from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion
from repro.errors import ParallelError
from repro.obs.metrics import REGISTRY
from repro.parallel import (
    ParallelRecovery,
    ShardedScoringExecutor,
    choose_shard_size,
    resolve_workers,
)
from repro.parallel.executor import _resolve_timeout
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate
from repro.query.groupby import GroupByQuery

from tests.conftest import (
    POOL_COUNTERS,
    assert_no_live_workers,
    assert_scoring_paths_agree,
    planted_sum_table,
)
from tests.test_chaos_oracle import chaos_batch

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
    the worker pool."""
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
        # Warm workers hold the kernel, which takes (c, c_holdout, lam)
        # per call; a resident scorer rebound between batches must ship
        # the live scalars with each shard or warm workers keep scoring
        # at the stale values.
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


def _counter(name: str) -> float:
    metric = REGISTRY.get(name)
    return metric.value if metric is not None else 0.0


class TestSelfHealing:
    """Pool failures retry, restart, and degrade per batch — never
    permanently (the pre-ISSUE-9 `_disable_parallel` is gone)."""

    def test_worker_crash_retries_and_recovers(self):
        problem = make_problem(Sum())
        batch = mixed_batch()
        expected = InfluenceScorer(problem, cache_scores=False,
                                   workers=1).score_batch(batch)
        scorer = InfluenceScorer(problem, cache_scores=False, workers=2,
                                 batch_chunk=8)
        scorer._recovery = ParallelRecovery(retries=2, restarts=10,
                                            backoff_base=0.0)
        np.testing.assert_array_equal(scorer.score_batch(batch), expected)
        retries0 = _counter("scorpion_pool_retries_total")
        restarts0 = _counter("scorpion_pool_restarts_total")
        pool = scorer._executor._pool
        for process in list(pool._processes.values()):
            os.kill(process.pid, signal.SIGKILL)
        # The crash is absorbed by a transparent pool restart: no
        # warning, bit-for-bit results, and the batch still ran parallel.
        shards_before = scorer.stats.parallel_shards
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = scorer.score_batch(batch)
        np.testing.assert_array_equal(got, expected)
        assert scorer.uses_parallel
        assert scorer.stats.parallel_shards > shards_before
        assert _counter("scorpion_pool_retries_total") >= retries0 + 1
        assert _counter("scorpion_pool_restarts_total") >= restarts0 + 1
        scorer.close()

    def test_persistent_failure_opens_circuit_then_reprobes(
            self, monkeypatch):
        problem = make_problem(Sum())
        batch = mixed_batch()
        expected = InfluenceScorer(problem, cache_scores=False,
                                   workers=1).score_batch(batch)
        scorer = InfluenceScorer(problem, cache_scores=False, workers=2,
                                 batch_chunk=8)
        clock = [0.0]
        scorer._recovery = ParallelRecovery(
            retries=1, restarts=2, window=1000.0, cooldown=5.0,
            backoff_base=0.0, clock=lambda: clock[0],
            sleep=lambda s: None)
        real_run = ShardedScoringExecutor.run
        monkeypatch.setattr(
            ShardedScoringExecutor, "run",
            lambda self, tasks: (_ for _ in ()).throw(
                ParallelError("injected shard failure")))
        # Batch 1: retry budget (2 attempts) exhausted → serial result.
        degraded0 = _counter("scorpion_degraded_batches_total")
        with pytest.warns(RuntimeWarning, match="scoring serial"):
            np.testing.assert_array_equal(scorer.score_batch(batch),
                                          expected)
        assert scorer.stats.parallel_shards == 0
        assert _counter("scorpion_degraded_batches_total") == degraded0 + 1
        # Batch 2: first failure blows the restart budget → circuit opens.
        with pytest.warns(RuntimeWarning, match="circuit open"):
            np.testing.assert_array_equal(scorer.score_batch(batch),
                                          expected)
        assert scorer._recovery.degraded
        assert not scorer.uses_parallel
        # Batch 3 (inside cooldown): serial, silently, pool untouched.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(scorer.score_batch(batch),
                                          expected)
        assert scorer._executor is None
        # Cooldown elapses and the executor heals: the half-open probe
        # succeeds, the circuit closes, and scoring is parallel again.
        monkeypatch.setattr(ShardedScoringExecutor, "run", real_run)
        clock[0] += 6.0
        assert scorer.uses_parallel  # half-open: willing to probe
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(scorer.score_batch(batch),
                                          expected)
        assert not scorer._recovery.degraded
        assert scorer.stats.parallel_shards > 0
        assert scorer.parallel_health()["state"] == "parallel"
        scorer.close()

    def test_keyboard_interrupt_propagates_with_clean_teardown(
            self, monkeypatch):
        problem = make_problem(Sum())
        batch = mixed_batch()
        baseline = multiprocessing.active_children()
        scorer = InfluenceScorer(problem, cache_scores=False, workers=2,
                                 batch_chunk=8)
        monkeypatch.setattr(
            ShardedScoringExecutor, "run",
            lambda self, tasks: (_ for _ in ()).throw(KeyboardInterrupt()))
        with pytest.raises(KeyboardInterrupt):
            scorer.score_batch(batch)
        # The interrupt was not swallowed into a serial fallback, and
        # the pool was torn down on the way out.
        assert scorer._executor is None
        assert_no_live_workers(baseline)
        scorer.close()


class TestLifecycle:
    def test_serial_scorer_never_starts_a_pool(self):
        scorer = InfluenceScorer(make_problem(Sum()), cache_scores=False,
                                 workers=1)
        scorer.score_batch(mixed_batch())
        assert scorer.workers == 1
        assert scorer._executor is None
        assert scorer.stats.parallel_shards == 0

    def test_single_shard_batches_skip_the_pool(self):
        scorer = InfluenceScorer(make_problem(Sum()), cache_scores=False,
                                 workers=2, batch_chunk=4096)
        try:
            scorer.score_batch(routed_batch(6))
            assert scorer._executor is None
            assert scorer.stats.parallel_shards == 0
        finally:
            scorer.close()

    def test_close_terminates_workers(self):
        baseline = multiprocessing.active_children()
        scorer = InfluenceScorer(make_problem(Sum()), cache_scores=False,
                                 workers=2, batch_chunk=8)
        scorer.score_batch(mixed_batch())
        workers = list(scorer._executor._pool._processes.values())
        assert workers and all(process.is_alive() for process in workers)
        scorer.close()
        assert_no_live_workers(baseline)
        assert not any(process.is_alive() for process in workers)
        # close() is idempotent and the scorer still scores (serially or
        # by restarting the pool).
        scorer.close()
        assert len(scorer.score_batch(mixed_batch())) == len(mixed_batch())
        scorer.close()
        assert_no_live_workers(baseline)

class TestKernelPickles:
    """Spawn-only platforms unpickle the kernel once per worker: a
    round-tripped kernel must score every shape exactly like the
    original."""

    @pytest.mark.parametrize("aggregate,perturbation", [
        (Sum, "delete"),
        (Median, "delete"),
        (Avg, "mean"),
    ], ids=["sum-all-tiers", "median-black-box", "avg-mean"])
    def test_round_trip_scores_identically(self, aggregate, perturbation):
        problem = make_problem(aggregate(), perturbation=perturbation)
        batch = chaos_batch()
        scorer = InfluenceScorer(problem, cache_scores=False, workers=1)
        expected = scorer.score_batch(batch)
        clone = pickle.loads(pickle.dumps(scorer.kernel))
        unique = list(dict.fromkeys(batch))
        scalars = (problem.c, problem.c_holdout, problem.lam)
        for ignore_holdouts in (False, True):
            np.testing.assert_array_equal(
                clone.score_masked_chunk(unique, ignore_holdouts, *scalars),
                scorer.kernel.score_masked_chunk(unique, ignore_holdouts,
                                                 *scalars))
        # And the clone agrees with the scorer's own batch answer.
        position = {predicate: i for i, predicate in enumerate(batch)}
        np.testing.assert_array_equal(
            clone.score_masked_chunk(unique, False, *scalars),
            expected[[position[p] for p in unique]])


class TestRecoveryKnobs:
    """A negative recovery knob is a configuration error caught at
    construction; it used to leave the retry loop empty, so every
    parallel batch crashed with an UnboundLocalError."""

    @pytest.mark.parametrize("knob", ["retries", "restarts", "window",
                                      "cooldown", "backoff_base"])
    def test_negative_argument_rejected(self, knob):
        with pytest.raises(ParallelError, match=knob):
            ParallelRecovery(**{knob: -1})

    @pytest.mark.parametrize("env", [
        "SCORPION_SHARD_RETRIES", "SCORPION_POOL_RESTARTS",
        "SCORPION_POOL_WINDOW", "SCORPION_POOL_COOLDOWN",
        "SCORPION_POOL_BACKOFF"])
    def test_negative_environment_rejected(self, monkeypatch, env):
        monkeypatch.setenv(env, "-1")
        with pytest.raises(ParallelError):
            ParallelRecovery()

    def test_zero_knobs_accepted(self):
        recovery = ParallelRecovery(retries=0, restarts=0, window=0.0,
                                    cooldown=0.0, backoff_base=0.0)
        assert recovery.retries == 0

    def test_negative_retries_fail_at_scorer_construction(
            self, monkeypatch):
        monkeypatch.setenv("SCORPION_SHARD_RETRIES", "-1")
        with pytest.raises(ParallelError, match="retries"):
            scorer = InfluenceScorer(make_problem(Sum()), workers=2,
                                     batch_chunk=8)
            try:
                scorer.score_batch(chaos_batch())
            finally:
                scorer.close()


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
        assert scorer.uses_parallel
        scorer.close()


class TestResolveTimeout:
    def test_legacy_env_alias_warns(self, monkeypatch):
        monkeypatch.delenv("SCORPION_TASK_TIMEOUT", raising=False)
        monkeypatch.setenv("SCORPION_WORKER_TIMEOUT", "12")
        with pytest.warns(DeprecationWarning,
                          match="SCORPION_WORKER_TIMEOUT is deprecated"):
            assert _resolve_timeout(None) == 12.0

    def test_current_env_does_not_warn(self, monkeypatch):
        monkeypatch.setenv("SCORPION_TASK_TIMEOUT", "34")
        monkeypatch.setenv("SCORPION_WORKER_TIMEOUT", "12")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _resolve_timeout(None) == 34.0

    def test_explicit_timeout_does_not_warn(self, monkeypatch):
        monkeypatch.setenv("SCORPION_WORKER_TIMEOUT", "12")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _resolve_timeout(7.5) == 7.5


class TestStatsConsistency:
    """Resets start a fresh counting window, and worker counters merge
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
