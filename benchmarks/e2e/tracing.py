"""Per-layer self times, measured from outside the library.

:class:`LayerTracer` wraps the public entry point of each layer (the
``TARGETS`` table) in a timing shim installed on the class, so the
library itself is untouched and its own ``SCORPION_TRACE`` spans stay
off.  A wrapper's *self time* is its call time minus the time of the
wrapped calls made inside it, so the self times of one request add up to
at most the request's wall time; ``trace.coverage`` reports how much of
it they explain.

Installing and uninstalling are a dozen ``setattr`` calls, so the request
loop toggles the wrappers per request and times traced and untraced
requests side by side (``trace.overhead_ratio``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _after_merger(counts, args, result, before):
    counts["merger.evaluations"] += args[0].report.n_merge_evaluations


def _after_dt(counts, args, result, before):
    counts["dt.candidates"] += len(result.candidates)


def _after_naive(counts, args, result, before):
    counts["naive.evaluated"] += result.n_evaluated


def _cache_hits(args):
    return args[0].stats.cache_hits


def _after_score_batch(counts, args, result, before):
    counts["score_batch.predicates"] += len(result)
    counts["score_batch.cache_hits"] += args[0].stats.cache_hits - before


def _partition_hits(args):
    return args[0].partition_hits


def _after_dtcache(counts, args, result, before):
    counts["dtcache.partition_hits"] += args[0].partition_hits - before


def _after_service(counts, args, result, before):
    counts["service.hits"] += bool(result.scorer_stats.get("service_cache_hit"))


#: ``(self-time metric, module, Class.attribute, before-hook, after-hook)``
#: for every wrapped entry point.  The metric's first dotted part names
#: the layer (``score_batch.calls`` counts that layer's calls).  Hooks
#: read counts from the call's arguments or return value.
TARGETS = (
    ("service.self_s", "repro.service.service",
     "ExplainService.explain_request", None, _after_service),
    ("query.build_s", "repro.core.problem", "ScorpionQuery.__init__", None, None),
    ("scorpion.self_s", "repro.core.scorpion", "Scorpion.explain", None, None),
    ("scorer.build_s", "repro.core.scorpion", "Scorpion.build_scorer", None, None),
    ("dtcache.self_s", "repro.core.cache", "DTCache.candidates",
     _partition_hits, _after_dtcache),
    ("dt.self_s", "repro.core.dt", "DTPartitioner.run", None, _after_dt),
    ("mc.self_s", "repro.core.mc", "MCPartitioner.run", None, None),
    ("naive.self_s", "repro.core.naive", "NaivePartitioner.run", None, _after_naive),
    ("merger.self_s", "repro.core.merger", "Merger.run", None, _after_merger),
    ("score_batch.self_s", "repro.core.influence", "InfluenceScorer.score_batch",
     _cache_hits, _after_score_batch),
    ("score.self_s", "repro.core.influence", "InfluenceScorer.score", None, None),
    ("tuple_influences.self_s", "repro.core.influence",
     "InfluenceScorer.tuple_influences", None, None),
    ("index.prepare_s", "repro.core.influence", "InfluenceScorer.prepare_index",
     None, None),
    ("cost.calibrate_s", "repro.index.cost", "CostModel.shared", None, None),
)


def _layer(metric: str) -> str:
    return metric.split(".", 1)[0]


class LayerTracer:
    """Timing wrappers around the ``TARGETS`` entry points.

    ``self_s`` / ``counts`` accumulate since the last :meth:`reset`;
    ``process_self_s`` accumulates for the tracer's whole life (the
    one-off cost-model calibration happens during the warm-up, before
    any timed request).  A target that no longer resolves is listed in
    :attr:`absent` and skipped, so a refactor that moves an entry point
    costs that layer its numbers, not the run.
    """

    def __init__(self):
        self.absent: list[str] = []
        self._patches: list[tuple[type, str, object, object]] = []
        self._stack: list[list[float]] = []
        self.process_self_s: dict[str, float] = defaultdict(float)
        self.reset()
        for metric, module, path, before, after in TARGETS:
            class_name, attr = path.split(".")
            try:
                owner = getattr(importlib.import_module(module), class_name)
                raw = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(metric)
                print(f"warning: {module}.{path} not found; layer "
                      f"{_layer(metric)!r} reported as absent", file=sys.stderr)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(metric, raw.__func__, before, after))
            else:
                wrapped = self._wrap(metric, raw, before, after)
            self._patches.append((owner, attr, raw, wrapped))

    def reset(self) -> None:
        """Start a new accumulation window (one request)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw, _ in self._patches:
            setattr(owner, attr, raw)

    def _wrap(self, metric, func, before, after):
        calls = _layer(metric) + ".calls"

        @functools.wraps(func)
        def timed(*args, **kwargs):
            snapshot = before(args) if before is not None else None
            children = [0.0]
            self._stack.append(children)
            started = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                own = elapsed - children[0]
                self.self_s[metric] += own
                self.process_self_s[metric] += own
                self.counts[calls] += 1
            if after is not None:
                after(self.counts, args, result, snapshot)
            return result

        return timed


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list[tuple[float, dict, dict, dict]],
                  process_self_s: dict[str, float]) -> dict[str, float]:
    """Per-request layer metrics from the traced requests' records
    ``(latency_s, self_s, counts, scorer_stats)``.

    Times and counts are means per traced request; ratios are ratios of
    the sums.  ``cost.calibrate_s`` is the process's one calibration, not
    a per-request mean.  Requests that raised leave no record, so the
    list may be empty.
    """
    n = len(traced) or 1
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    stats: dict[str, float] = defaultdict(float)
    for _, request_self, request_counts, scorer_stats in traced:
        for key, value in request_self.items():
            self_s[key] += value
        for key, value in request_counts.items():
            counts[key] += value
        for key in ("index_builds", "indexed_predicates", "masked_predicates"):
            stats[key] += scorer_stats.get(key, 0)
    traced_total = sum(latency for latency, *_ in traced)

    metrics = {metric: self_s[metric] / n for metric, *_ in TARGETS}
    metrics["cost.calibrate_s"] = process_self_s["cost.calibrate_s"]
    metrics.update({
        "merger.evaluations": counts["merger.evaluations"] / n,
        "merger.us_per_evaluation": 1e6 * _ratio(self_s["merger.self_s"],
                                                 counts["merger.evaluations"]),
        "dt.candidates": counts["dt.candidates"] / n,
        "score_batch.calls": counts["score_batch.calls"] / n,
        "score_batch.predicates": counts["score_batch.predicates"] / n,
        "score_batch.us_per_predicate": 1e6 * _ratio(
            self_s["score_batch.self_s"], counts["score_batch.predicates"]),
        "score_batch.cache_hit_ratio": _ratio(counts["score_batch.cache_hits"],
                                              counts["score_batch.predicates"]),
        "score.calls": counts["score.calls"] / n,
        "naive.evaluated": counts["naive.evaluated"] / n,
        "index.builds": stats["index_builds"] / n,
        "index.indexed_share": _ratio(
            stats["indexed_predicates"],
            stats["indexed_predicates"] + stats["masked_predicates"]),
        "dtcache.partition_hit_ratio": _ratio(counts["dtcache.partition_hits"],
                                              counts["dtcache.calls"]),
        "service.hit_ratio": _ratio(counts["service.hits"], counts["service.calls"]),
        "trace.coverage": _ratio(sum(self_s.values()), traced_total),
    })
    return metrics
