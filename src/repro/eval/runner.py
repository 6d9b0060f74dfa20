"""Experiment plumbing shared by every benchmark.

``run_algorithm`` executes one (algorithm, problem) pair and records the
best predicate, its influence, accuracy against a ground truth, and the
wall-clock cost; ``sweep_c`` repeats that across the Section 7 knob the
experiments vary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.dt import DTPartitioner
from repro.core.mc import MCPartitioner
from repro.core.naive import NaivePartitioner
from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion
from repro.errors import PartitionerError
from repro.eval.metrics import AccuracyStats, score_predicate
from repro.obs.trace import phase_totals
from repro.predicates.predicate import Predicate
from repro.service.service import ExplainService
from repro.table.table import Table


@dataclass
class RunRecord:
    """Outcome of one algorithm execution."""

    algorithm: str
    c: float
    predicate: Predicate | None
    influence: float
    runtime: float
    stats: AccuracyStats | None = None
    n_candidates: int = 0
    #: Scorer operation counters for the run (see
    #: :meth:`repro.core.influence.ScorerStats.as_dict`), including the
    #: batch-scoring size/throughput counters, ``masked_predicates`` and
    #: the parallel-execution counters (``parallel_batches`` /
    #: ``parallel_shards``) with worker-side kernel counters merged in.
    scorer_stats: dict = field(default_factory=dict)
    #: Per-phase wall-clock breakdown in seconds.  Always carries the
    #: result's ``partition`` / ``merge`` timings; with tracing enabled
    #: (``SCORPION_TRACE=1`` or a traced Scorpion/service) every span
    #: name is a key — ``score_batch``, ``merge_round``, ``build``,
    #: ``shard``, ... — each summed across the run
    #: (see :func:`repro.obs.trace.phase_totals`).
    phase_seconds: dict = field(default_factory=dict)
    #: The run's exported span tree when tracing was enabled
    #: (:attr:`ScorpionResult.trace`), else ``None``.
    trace: list | None = None

    @property
    def f_score(self) -> float:
        return self.stats.f_score if self.stats else 0.0

    @property
    def batch_throughput(self) -> float:
        """Predicates/second through the Scorer's batch API (0 if the
        run never batched)."""
        return float(self.scorer_stats.get("batch_throughput", 0.0))

    @property
    def masked_predicates(self) -> int:
        """Predicates scored through the mask-matrix kernel during the
        run's batched calls."""
        return int(self.scorer_stats.get("masked_predicates", 0))

    @property
    def parallel_shards(self) -> int:
        """Predicate shards the run scored on the scorer's shard threads
        (0 for serial runs)."""
        return int(self.scorer_stats.get("parallel_shards", 0))

    @property
    def precision(self) -> float:
        return self.stats.precision if self.stats else 0.0

    @property
    def recall(self) -> float:
        return self.stats.recall if self.stats else 0.0


def make_partitioner(name: str, **kwargs):
    """Partitioner factory used by benches (``dt`` / ``mc`` / ``naive``)."""
    name = name.lower()
    if name == "dt":
        return DTPartitioner(**kwargs)
    if name == "mc":
        return MCPartitioner(**kwargs)
    if name == "naive":
        return NaivePartitioner(**kwargs)
    raise PartitionerError(f"unknown algorithm {name!r}")


def run_algorithm(name: str, problem: ScorpionQuery, table: Table | None = None,
                  truth_mask: np.ndarray | None = None,
                  outlier_rows: np.ndarray | None = None,
                  scorpion: Scorpion | None = None,
                  workers: int | None = None,
                  service: ExplainService | None = None,
                  c: float | None = None,
                  **partitioner_kwargs) -> RunRecord:
    """Run one algorithm on ``problem`` and score its best predicate.

    ``table``/``truth_mask``/``outlier_rows`` enable accuracy scoring;
    omit them to record influence and runtime only.  A pre-built
    ``scorpion`` may be passed to share its cross-``c`` cache (its own
    ``workers`` setting then applies); otherwise ``workers`` selects the
    scorer's sharded-execution process count — influences and counters
    are identical at any setting, so benches can sweep it freely.

    A resident ``service`` routes the run through its content-keyed
    cache instead (the service's own algorithm/partitioner
    configuration applies — bake ``partitioner_kwargs`` into it);
    ``c`` then rebinds the knob against the cached problem image
    rather than rebuilding via ``with_c``.
    """
    started = time.perf_counter()
    if service is not None:
        result = service.explain(problem, c=c)
    else:
        partitioner = make_partitioner(name, **partitioner_kwargs)
        scorpion = scorpion or Scorpion(use_cache=False, workers=workers)
        scorpion.partitioner = partitioner
        if c is not None:
            problem = problem.with_c(c)
        result = scorpion.explain(problem)
    runtime = time.perf_counter() - started
    best = result.best
    stats = None
    if best is not None and table is not None and truth_mask is not None:
        stats = score_predicate(best.predicate, table, truth_mask, outlier_rows)
    phase_seconds = {"partition": result.partition_elapsed,
                     "merge": result.merge_elapsed}
    if result.trace:
        phase_seconds.update(phase_totals(result.trace))
    return RunRecord(
        algorithm=name,
        c=problem.c if c is None else float(c),
        predicate=best.predicate if best else None,
        influence=best.influence if best else float("nan"),
        runtime=runtime,
        stats=stats,
        n_candidates=result.n_candidates,
        scorer_stats=result.scorer_stats,
        phase_seconds=phase_seconds,
        trace=result.trace,
    )


def sweep_c(name: str, problem: ScorpionQuery, c_values: Sequence[float],
            table: Table | None = None, truth_mask: np.ndarray | None = None,
            outlier_rows: np.ndarray | None = None,
            share_cache: bool = False, workers: int | None = None,
            use_service: bool = False,
            **partitioner_kwargs) -> list[RunRecord]:
    """Run one algorithm across a ``c`` sweep (the axis of Figures 9–13).

    With ``share_cache`` the runs share a Scorpion instance so DT reuses
    partitions and merger warm starts (the Section 8.3.3 experiment).
    With ``use_service`` the sweep runs through a resident
    :class:`~repro.service.ExplainService` instead: the problem image,
    batch kernel and worker pool are built once and every ``c`` after
    the first rebinds against them (no per-``c`` ``with_c`` rebuild),
    on top of the same DT partition/merge reuse ``share_cache`` gives.
    ``workers`` applies to every run (see :func:`run_algorithm`).
    """
    if use_service:
        with ExplainService(
                partitioner=make_partitioner(name, **partitioner_kwargs),
                workers=workers) as service:
            return [run_algorithm(
                name, problem, table=table, truth_mask=truth_mask,
                outlier_rows=outlier_rows, service=service, c=c)
                for c in c_values]
    scorpion = Scorpion(use_cache=True, workers=workers) if share_cache else None
    records = []
    for c in c_values:
        records.append(run_algorithm(
            name, problem.with_c(c), table=table, truth_mask=truth_mask,
            outlier_rows=outlier_rows, scorpion=scorpion, workers=workers,
            **partitioner_kwargs))
    return records


def best_f_by_c(records: Iterable[RunRecord]) -> dict[float, float]:
    """Convenience: map each swept ``c`` to the F-score achieved."""
    return {record.c: record.f_score for record in records}
