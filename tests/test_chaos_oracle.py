"""The chaos differential oracle (ISSUE 9 contract).

Under *any* armed fault schedule, every explain either matches the
fault-free serial run bit-for-bit or surfaces a structured error —
never a hang, never a wrong answer, never a leaked worker process.
Each test arms one seeded schedule against a real failure mode (worker
crash, worker death, shard timeout, pool-start failure, service OOM),
runs the same workload, and asserts:

* influences equal the fault-free serial reference exactly;
* the pool provably *recovered to parallel* (shards dispatched,
  restart/retry counters moved, circuit closed) rather than silently
  degrading forever;
* no worker process outlives the scorer.

The ``~g1`` modifier scopes faults to pool generation 0 (the
``SCORPION_POOL_GENERATION`` stamp), so the restarted pool is healthy
by construction — which is exactly what a transient production fault
looks like.
"""

from __future__ import annotations

import multiprocessing
import warnings

import numpy as np
import pytest

from repro.aggregates import Sum
from repro.core.influence import InfluenceScorer
from repro.core.problem import ScorpionQuery
from repro.errors import ResourceExhausted
from repro.faults import fault_injection, fault_stats
from repro.obs.metrics import REGISTRY
from repro.parallel import ParallelRecovery
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate
from repro.query.groupby import GroupByQuery
from repro.service import ExplainService

from tests.conftest import assert_no_live_workers, planted_sum_table


def make_problem(c: float = 0.5) -> ScorpionQuery:
    table, outliers, holdouts = planted_sum_table()
    return ScorpionQuery(table, GroupByQuery("g", Sum(), "value"),
                         outliers=outliers, holdouts=holdouts,
                         error_vectors=+1.0, c=c)


def chaos_batch() -> list[Predicate]:
    """Every routed shape, so a recovered pool re-scores the full tier
    mix: ranges, sets, conjunctions, and the mask kernel."""
    batch = [Predicate([RangeClause("a1", 4.0 * i, 4.0 * i + 22.0)])
             for i in range(24)]
    batch += [Predicate([SetClause("state", ["TX"])]),
              Predicate([SetClause("state", ["CA", "NY"])])]
    batch += [Predicate([RangeClause("a1", 8.0 * i, 8.0 * i + 30.0),
                         SetClause("state", ["TX", "CA"])])
              for i in range(6)]
    batch.append(Predicate.true())
    return batch


def serial_reference(problem, batch) -> np.ndarray:
    """The fault-free serial run every chaos leg must reproduce."""
    scorer = InfluenceScorer(problem, cache_scores=False)
    try:
        return scorer.score_batch(batch)
    finally:
        scorer.close()


def _counter(name: str) -> float:
    metric = REGISTRY.get(name)
    return metric.value if metric is not None else 0.0


@pytest.fixture
def leak_guard():
    """Never-leaks half of the chaos contract: once the test has closed
    its scorers and services, no worker process it started is left
    alive — a hung or crashed generation included."""
    baseline = multiprocessing.active_children()
    yield
    assert_no_live_workers(baseline)


#: One schedule per injected failure mode.  ``task_timeout`` is only
#: tightened for the hang leg, where the contract is that a stuck
#: worker becomes a timeout + restart, not a stuck caller.
#: ``restarts`` is False for the pool-start leg: a start that never
#: succeeded is a pool *failure*, not a restart, so the retry that
#: finally starts the pool is start #1.  ``parent_fire`` marks legs
#: whose point fires in this process (worker-side fire counts live in
#: the worker and never flow back).
POOL_SCHEDULES = [
    pytest.param("worker.shard:crash@1~g1", None, True, False,
                 id="worker-crash"),
    pytest.param("worker.shard:exit@1~g1", None, True, False,
                 id="worker-death"),
    pytest.param("worker.shard:hang=30@1~g1", 2.0, True, False,
                 id="shard-timeout"),
    pytest.param("pool.start:oserror@1~g1", None, False, True,
                 id="pool-start"),
]


class TestPoolChaos:
    @pytest.mark.parametrize("schedule,task_timeout,restarts,parent_fire",
                             POOL_SCHEDULES)
    def test_faulted_batch_matches_serial_and_repairs_pool(
            self, schedule, task_timeout, restarts, parent_fire, leak_guard):
        problem = make_problem()
        batch = chaos_batch()
        expected = serial_reference(problem, batch)

        restarts0 = _counter("scorpion_pool_restarts_total")
        failures0 = _counter("scorpion_pool_failures_total")
        retries0 = _counter("scorpion_pool_retries_total")

        with fault_injection(schedule):
            scorer = InfluenceScorer(problem, cache_scores=False, workers=2,
                                     batch_chunk=8, task_timeout=task_timeout)
            # A generous injected budget (and no backoff sleeps): the
            # schedules above break generation-0 pools only, so the
            # retry path must land on a healthy pool well within it.
            scorer._recovery = ParallelRecovery(retries=4, restarts=50,
                                                backoff_base=0.0)
            try:
                with warnings.catch_warnings():
                    # Absorbed transparently or not at all: a retryable
                    # fault must not leak a degradation warning.
                    warnings.simplefilter("error")
                    got = scorer.score_batch(batch)
                np.testing.assert_array_equal(got, expected)
                # Recovery to *parallel* is part of the contract — the
                # batch must not have quietly degraded to serial.
                assert scorer.stats.parallel_shards > 0
                assert scorer.uses_parallel
                assert scorer.parallel_health()["state"] == "parallel"
                expected_starts = 2 if restarts else 1
                assert scorer.parallel_health()["pool_starts"] \
                    >= expected_starts
                if parent_fire:
                    stats = fault_stats()
                    point = schedule.split(":", 1)[0]
                    assert stats[point]["fired"] >= 1, \
                        f"schedule never fired: {stats}"
            finally:
                scorer.close()

        # The batch retried at least once, after at least one counted
        # pool failure; worker-side legs additionally restarted a pool
        # that had started successfully.
        assert _counter("scorpion_pool_failures_total") >= failures0 + 1
        assert _counter("scorpion_pool_retries_total") >= retries0 + 1
        if restarts:
            assert _counter("scorpion_pool_restarts_total") >= restarts0 + 1

    def test_back_to_back_batches_after_repair(self, leak_guard):
        """The repaired pool is a real pool: later batches keep running
        parallel with no further restarts."""
        problem = make_problem()
        batch = chaos_batch()
        expected = serial_reference(problem, batch)
        with fault_injection("worker.shard:crash@1~g1"):
            scorer = InfluenceScorer(problem, cache_scores=False, workers=2,
                                     batch_chunk=8)
            scorer._recovery = ParallelRecovery(retries=4, restarts=50,
                                                backoff_base=0.0)
            try:
                np.testing.assert_array_equal(scorer.score_batch(batch),
                                              expected)
                starts = scorer.parallel_health()["pool_starts"]
                shards = scorer.stats.parallel_shards
                np.testing.assert_array_equal(scorer.score_batch(batch),
                                              expected)
                assert scorer.parallel_health()["pool_starts"] == starts
                assert scorer.stats.parallel_shards > shards
            finally:
                scorer.close()

    def test_exhausted_budget_still_answers_serially(self, leak_guard):
        """A fault on *every* generation exhausts the retry budget; the
        batch must still come back bit-for-bit right (serial), with the
        degradation counted and warned."""
        problem = make_problem()
        batch = chaos_batch()
        expected = serial_reference(problem, batch)
        degraded0 = _counter("scorpion_degraded_batches_total")
        with fault_injection("worker.shard:crash@1.."):
            scorer = InfluenceScorer(problem, cache_scores=False, workers=2,
                                     batch_chunk=8)
            scorer._recovery = ParallelRecovery(retries=1, restarts=50,
                                                backoff_base=0.0)
            try:
                with pytest.warns(RuntimeWarning, match="scoring serial"):
                    got = scorer.score_batch(batch)
                np.testing.assert_array_equal(got, expected)
            finally:
                scorer.close()
        assert _counter("scorpion_degraded_batches_total") >= degraded0 + 1


def _explanation_key(result):
    """Everything observable about a result's answer, for bit-for-bit
    comparison across chaos legs."""
    return [(str(e.predicate), e.influence, e.n_matched,
             sorted(e.updated_outliers.items()),
             sorted(e.updated_holdouts.items()))
            for e in result.explanations]


class TestServiceChaos:
    def _request(self, service):
        table, outliers, holdouts = planted_sum_table()
        return service.explain_request(
            table, GroupByQuery("g", Sum(), "value"), outliers,
            holdouts=holdouts, error_vectors=+1.0, c=0.5)

    def test_oom_sheds_and_retries_to_the_same_answer(self, leak_guard):
        with ExplainService(algorithm="dt") as service:
            reference = _explanation_key(self._request(service))
        oom0 = _counter("scorpion_oom_retries_total")
        with ExplainService(algorithm="dt") as service:
            with fault_injection("service.build:memerror@1"):
                cold = self._request(service)
            warm = self._request(service)
            assert _explanation_key(cold) == reference
            assert _explanation_key(warm) == reference
            assert cold.scorer_stats["service_cache_hit"] == 0
            assert warm.scorer_stats["service_cache_hit"] == 1
        assert _counter("scorpion_oom_retries_total") == oom0 + 1

    def test_double_oom_is_a_structured_error_not_a_wedge(self, leak_guard):
        with ExplainService(algorithm="dt") as service:
            with fault_injection("service.build:memerror@1..2"):
                with pytest.raises(ResourceExhausted, match="out of memory"):
                    self._request(service)
            # The failed build must not poison the service: the same
            # request succeeds once the fault clears.
            result = self._request(service)
            assert result.explanations
            assert service.health()["ok"]

    def test_checkout_fault_leaves_service_healthy(self, leak_guard):
        with ExplainService(algorithm="dt") as service:
            with fault_injection("service.checkout:oserror@1"):
                with pytest.raises(OSError, match="injected"):
                    self._request(service)
            reference = _explanation_key(self._request(service))
            assert reference  # recovered: real answer after the fault
