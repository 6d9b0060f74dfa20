"""Shared types flowing between partitioners, the Merger, and Scorpion.

Partitioners emit :class:`CandidatePredicate` objects — a predicate plus
the partitioner's *internal* score estimate and, when available, the
per-outlier-group removal statistics (matched-row count and summed tuple
state) that let the Merger approximate influence without calling the
Scorer (the Section 6.3 cached-tuple optimization).  The final, exactly
scored output is a list of :class:`ScoredPredicate`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.predicates.predicate import Predicate


@dataclass
class GroupRemovalStats:
    """What removing a candidate's rows does to one outlier group.

    ``count`` is the (possibly sample-extrapolated) number of matched
    rows; ``state_sum`` is the summed incremental-removal state of those
    rows (None for black-box aggregates).
    """

    count: float
    state_sum: np.ndarray | None = None


@dataclass
class CandidatePredicate:
    """A partitioner-produced candidate awaiting merging/exact scoring."""

    predicate: Predicate
    #: Internal ranking score (e.g. mean sampled tuple influence); not the
    #: exact influence metric.
    score: float
    #: Per-outlier-group removal stats keyed by group key (optional).
    group_stats: dict[tuple, GroupRemovalStats] | None = None

    def __repr__(self) -> str:
        return f"CandidatePredicate({self.predicate}, score={self.score:.4g})"


@dataclass(frozen=True)
class ScoredPredicate:
    """A predicate with its exact influence ``inf(O, H, p, V)``."""

    predicate: Predicate
    influence: float

    def __str__(self) -> str:
        return f"{self.predicate}  (influence={self.influence:.6g})"


@dataclass
class ConvergencePoint:
    """Best-so-far snapshot for anytime algorithms (NAIVE's 10-second
    logging in Section 8.2)."""

    elapsed: float
    influence: float
    predicate: Predicate


@dataclass
class PartitionerResult:
    """Everything a partitioning algorithm reports back."""

    #: Ranked candidates for the Merger (may be empty for NAIVE, whose
    #: enumeration is already complete at every granularity).
    candidates: list[CandidatePredicate] = field(default_factory=list)
    #: Exactly scored predicates, best first (filled by Scorpion / NAIVE).
    ranked: list[ScoredPredicate] = field(default_factory=list)
    #: Best-so-far trace for anytime algorithms.
    convergence: list[ConvergencePoint] = field(default_factory=list)
    #: Wall-clock seconds spent inside the partitioner.
    elapsed: float = 0.0
    #: Number of predicates whose influence was evaluated.
    n_evaluated: int = 0
    #: True when a time/size budget stopped the search early.
    truncated: bool = False

    @property
    def best(self) -> ScoredPredicate | None:
        return self.ranked[0] if self.ranked else None


class BestTracker:
    """Tracks the incumbent best predicate and its convergence trace."""

    def __init__(self) -> None:
        self.best_predicate: Predicate | None = None
        self.best_influence: float = float("-inf")
        self.convergence: list[ConvergencePoint] = []
        self._start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def offer(self, predicate: Predicate, influence: float) -> bool:
        """Record ``predicate`` if it beats the incumbent; returns True on
        improvement.  NaN and -inf influences are never recorded."""
        if not np.isfinite(influence) or influence <= self.best_influence:
            return False
        self.best_predicate = predicate
        self.best_influence = influence
        self.convergence.append(
            ConvergencePoint(self.elapsed, influence, predicate)
        )
        return True
