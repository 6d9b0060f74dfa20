"""Experiment plumbing shared by every benchmark.

``run_algorithm`` executes one (algorithm, problem) pair and records the
best predicate, its influence, accuracy against a ground truth, and the
wall-clock cost.  Each run builds its own
:class:`~repro.core.scorpion.Scorpion`, so a record never depends on the
runs before it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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
    #: batch-scoring size/throughput counters and ``masked_predicates``.
    scorer_stats: dict = field(default_factory=dict)
    #: Per-phase wall-clock breakdown in seconds.  Always carries the
    #: result's ``partition`` / ``merge`` timings; with tracing enabled
    #: (``SCORPION_TRACE=1`` or a traced Scorpion/service) every span
    #: name is a key — ``score_batch``, ``merge_round``, ``build``, ...
    #: — each summed across the run
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
                  **partitioner_kwargs) -> RunRecord:
    """Run one algorithm on ``problem`` and score its best predicate.

    ``table``/``truth_mask``/``outlier_rows`` enable accuracy scoring;
    omit them to record influence and runtime only.
    """
    started = time.perf_counter()
    scorpion = Scorpion(partitioner=make_partitioner(name, **partitioner_kwargs),
                        use_cache=False)
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
        c=problem.c,
        predicate=best.predicate if best else None,
        influence=best.influence if best else float("nan"),
        runtime=runtime,
        stats=stats,
        n_candidates=result.n_candidates,
        scorer_stats=result.scorer_stats,
        phase_seconds=phase_seconds,
        trace=result.trace,
    )
