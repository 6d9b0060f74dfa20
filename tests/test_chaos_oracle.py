"""The chaos differential oracle for the resident service.

When a request fails, every explain either matches the fault-free run
bit-for-bit or surfaces a structured error — never a hang, never a
wrong answer, never a wedged service, never a leaked shard thread.
Each test makes one real call fail (a problem build out of memory, a
failed checkout) by substituting it with :func:`replace_calls`, runs
the request, and asserts the answer or the structured error.
"""

from __future__ import annotations

import pytest

from repro.aggregates import Sum
from repro.core.scorpion import Scorpion
from repro.errors import ResourceExhausted
from repro.obs.metrics import REGISTRY
from repro.query.groupby import GroupByQuery
from repro.service import ExplainService

from tests.conftest import (
    assert_no_live_workers,
    planted_sum_table,
    replace_calls,
    shard_threads,
)


def _counter(name: str) -> float:
    metric = REGISTRY.get(name)
    return metric.value if metric is not None else 0.0


@pytest.fixture
def leak_guard():
    """Never-leaks half of the chaos contract: once the test has closed
    its services, no shard thread it started is left alive."""
    baseline = shard_threads()
    yield
    assert_no_live_workers(baseline)


def _explanation_key(result):
    """Everything observable about a result's answer, for bit-for-bit
    comparison across chaos legs."""
    return [(str(e.predicate), e.influence, e.n_matched,
             sorted(e.updated_outliers.items()),
             sorted(e.updated_holdouts.items()))
            for e in result.explanations]


class TestServiceChaos:
    def _request(self, service, holdouts=None):
        table, outliers, default_holdouts = planted_sum_table()
        return service.explain_request(
            table, GroupByQuery("g", Sum(), "value"), outliers,
            holdouts=default_holdouts if holdouts is None else holdouts,
            error_vectors=+1.0, c=0.5)

    def test_oom_sheds_and_retries_to_the_same_answer(self, leak_guard,
                                                      monkeypatch):
        with ExplainService(algorithm="dt") as service:
            reference = _explanation_key(self._request(service))
        oom0 = _counter("scorpion_oom_retries_total")
        with ExplainService(algorithm="dt") as service:
            replace_calls(monkeypatch, Scorpion, "build_scorer",
                          MemoryError("build out of memory"))
            cold = self._request(service)
            warm = self._request(service)
            assert _explanation_key(cold) == reference
            assert _explanation_key(warm) == reference
            assert cold.scorer_stats["service_cache_hit"] == 0
            assert warm.scorer_stats["service_cache_hit"] == 1
        assert _counter("scorpion_oom_retries_total") == oom0 + 1

    def test_double_oom_is_a_structured_error_not_a_wedge(self, leak_guard,
                                                          monkeypatch):
        with ExplainService(algorithm="dt") as service:
            replace_calls(monkeypatch, Scorpion, "build_scorer",
                          MemoryError("build out of memory"), calls=(1, 2))
            with pytest.raises(ResourceExhausted, match="out of memory"):
                self._request(service)
            # The failed build must not poison the service: the same
            # request succeeds once builds stop failing.
            result = self._request(service)
            assert result.explanations
            assert service.health()["ok"]

    def test_checkout_fault_leaves_service_healthy(self, leak_guard,
                                                   monkeypatch):
        with ExplainService(algorithm="dt") as service:
            replace_calls(monkeypatch, ExplainService, "_acquire",
                          OSError("checkout failed"))
            with pytest.raises(OSError, match="checkout failed"):
                self._request(service)
            reference = _explanation_key(self._request(service))
            assert reference  # recovered: real answer after the fault
            assert service.health()["pinned_entries"] == 0

    def test_oom_shed_closes_the_shed_scorers_shard_threads(
            self, leak_guard, monkeypatch):
        # NAIVE with two workers scores its batches on shard threads, so
        # a cached entry holds live threads until its scorer is closed.
        # Problem B's build runs out of memory once: the shed must
        # release problem A's entry (and join its threads), and B must
        # answer as a fault-free run does.
        problem_b = ["g2"]
        with ExplainService(algorithm="naive", workers=2) as service:
            reference = _explanation_key(
                self._request(service, holdouts=problem_b))
        with ExplainService(algorithm="naive", workers=2) as service:
            before = shard_threads()
            first = self._request(service)
            assert first.scorer_stats["parallel_shards"] > 0
            threads_a = shard_threads() - before
            assert threads_a, "problem A left no live shard thread"
            # Hold A's scorer, as any other reference to it would, so
            # that only an explicit close (not garbage collection of
            # its pool) can stop A's threads.
            (entry_a,) = service._entries.values()
            scorer_a = entry_a.scorer
            replace_calls(monkeypatch, Scorpion, "build_scorer",
                          MemoryError("build out of memory"))
            second = self._request(service, holdouts=problem_b)
            assert entry_a.dead
            assert scorer_a._pool is None
            assert not any(thread.is_alive() for thread in threads_a)
            assert second.scorer_stats["service_cache_hit"] == 0
            assert second.scorer_stats["service_evictions"] == 1
            assert second.scorer_stats["parallel_shards"] > 0
            assert _explanation_key(second) == reference
