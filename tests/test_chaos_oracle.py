"""The chaos differential oracle for the resident service.

When a request fails, every explain either matches the fault-free run
bit-for-bit or surfaces a structured error — never a hang, never a
wrong answer, never a wedged service.
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

from tests.conftest import planted_sum_table, replace_calls


def _counter(name: str) -> float:
    metric = REGISTRY.get(name)
    return metric.value if metric is not None else 0.0


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

    def test_oom_sheds_and_retries_to_the_same_answer(self, monkeypatch):
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

    def test_double_oom_is_a_structured_error_not_a_wedge(self, monkeypatch):
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

    def test_checkout_fault_leaves_service_healthy(self, monkeypatch):
        with ExplainService(algorithm="dt") as service:
            replace_calls(monkeypatch, ExplainService, "_acquire",
                          OSError("checkout failed"))
            with pytest.raises(OSError, match="checkout failed"):
                self._request(service)
            reference = _explanation_key(self._request(service))
            assert reference  # recovered: real answer after the fault
            assert service.health()["pinned_entries"] == 0

    def test_oom_shed_evicts_the_other_entry(self, monkeypatch):
        # Problem B's build runs out of memory once: the shed must evict
        # problem A's cached entry, and B must answer as a fault-free
        # run does.
        problem_b = ["g2"]
        with ExplainService(algorithm="naive") as service:
            reference = _explanation_key(
                self._request(service, holdouts=problem_b))
        with ExplainService(algorithm="naive") as service:
            self._request(service)
            (entry_a,) = service._entries.values()
            replace_calls(monkeypatch, Scorpion, "build_scorer",
                          MemoryError("build out of memory"))
            second = self._request(service, holdouts=problem_b)
            assert entry_a.dead
            assert second.scorer_stats["service_cache_hit"] == 0
            assert second.scorer_stats["service_evictions"] == 1
            assert _explanation_key(second) == reference
