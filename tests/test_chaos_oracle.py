"""The chaos differential oracle for the resident service.

Under an armed fault schedule, every explain either matches the
fault-free run bit-for-bit or surfaces a structured error — never a
hang, never a wrong answer, never a wedged service, never a leaked
shard thread.  Each test arms one seeded schedule against a real
failure mode (a problem build out of memory, a failed checkout), runs
the same request, and asserts the answer or the structured error.
"""

from __future__ import annotations

import pytest

from repro.aggregates import Sum
from repro.errors import ResourceExhausted
from repro.faults import fault_injection
from repro.obs.metrics import REGISTRY
from repro.query.groupby import GroupByQuery
from repro.service import ExplainService

from tests.conftest import (
    assert_no_live_workers,
    planted_sum_table,
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
