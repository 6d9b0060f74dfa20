"""The NAIVE exhaustive partitioner (paper Sections 4.2 and 8.2).

NAIVE enumerates every conjunctive predicate over ``A_rest`` — discrete
clauses over all value combinations, continuous clauses over all unions
of consecutive grid cells — and scores each one.  Two Section 8.2
modifications make it usable as the experimental baseline:

* predicates are generated in increasing complexity order (clause count,
  then discrete value-set size), and
* the search runs under a budget, returning the most influential
  predicate found so far; every improvement is logged so Figure 11's
  convergence curves can be regenerated.  The paper's budget is wall
  clock; the default here is an evaluation count, so the answer does
  not depend on machine speed, and a wall-clock deadline is opt-in.

Enumerated predicates are collected into fixed-size chunks and scored
through :meth:`InfluenceScorer.score_batch` — one vectorized pass per
chunk instead of a Scorer round-trip per predicate — while the budget
checks still run per predicate, so truncation points are unchanged.

Because all scoring funnels through ``score_batch``, NAIVE inherits
sharded multi-process execution from the scorer's ``workers`` knob with
no changes here: each chunk splits into shards scored on the worker
pool, bit-for-bit identical to serial (see :mod:`repro.parallel`).
"""

from __future__ import annotations

import math
import time

from repro.core.influence import InfluenceScorer
from repro.core.partition import BestTracker, PartitionerResult, ScoredPredicate
from repro.core.problem import ScorpionQuery
from repro.errors import PartitionerError
from repro.predicates.predicate import Predicate
from repro.predicates.space import PredicateEnumerator


class NaivePartitioner:
    """Budgeted exhaustive search over the full predicate space.

    Parameters
    ----------
    n_bins:
        Equi-width cells per continuous attribute (paper: 15).
    max_clauses:
        Cap on clauses per predicate (None = number of attributes).
    max_discrete_set_size:
        Cap on discrete value-set sizes (None = unbounded).
    time_budget:
        Optional wall-clock deadline in seconds (paper: 40 minutes).
        None (the default) = no time limit; with a deadline the answer
        depends on machine speed.
    max_evaluations:
        Deterministic budget: stop after this many predicate
        evaluations (default 10,000).  None = no count limit.
    top_k:
        How many of the best predicates to keep in the ranked output.
    batch_size:
        Predicates collected per :meth:`InfluenceScorer.score_batch`
        call.  Larger chunks amortize more per-predicate overhead but
        make the time budget coarser-grained.
    """

    name = "naive"

    def __init__(self, n_bins: int = 15, max_clauses: int | None = None,
                 max_discrete_set_size: int | None = None,
                 time_budget: float | None = None,
                 max_evaluations: int | None = 10_000,
                 top_k: int = 10, batch_size: int = 256):
        if time_budget is None and max_evaluations is None:
            raise PartitionerError("NAIVE needs a time or evaluation budget "
                                   "(its full space is exponential)")
        if top_k < 1:
            raise PartitionerError(f"top_k must be >= 1, got {top_k}")
        if batch_size < 1:
            raise PartitionerError(f"batch_size must be >= 1, got {batch_size}")
        self.n_bins = n_bins
        self.max_clauses = max_clauses
        self.max_discrete_set_size = max_discrete_set_size
        self.time_budget = time_budget
        self.max_evaluations = max_evaluations
        self.top_k = top_k
        self.batch_size = batch_size

    def run(self, query: ScorpionQuery, scorer: InfluenceScorer | None = None,
            ) -> PartitionerResult:
        """Search the predicate space and return the ranked best found."""
        scorer = scorer or InfluenceScorer(query)
        enumerator = PredicateEnumerator(
            query.domain,
            n_bins=self.n_bins,
            max_clauses=self.max_clauses,
            max_discrete_set_size=self.max_discrete_set_size,
        )
        tracker = BestTracker()
        top: list[ScoredPredicate] = []
        start = time.perf_counter()
        n_evaluated = 0
        truncated = False
        chunk: list[Predicate] = []

        def flush() -> None:
            nonlocal n_evaluated
            if not chunk:
                return
            influences = scorer.score_batch(chunk)
            for predicate, influence in zip(chunk, influences):
                influence = float(influence)
                n_evaluated += 1
                tracker.offer(predicate, influence)
                _keep_top(top, ScoredPredicate(predicate, influence), self.top_k)
            chunk.clear()

        for predicate in enumerator.enumerate():
            admitted = n_evaluated + len(chunk)
            if self.max_evaluations is not None and admitted >= self.max_evaluations:
                truncated = True
                break
            if (self.time_budget is not None
                    and time.perf_counter() - start > self.time_budget):
                truncated = True
                break
            chunk.append(predicate)
            if len(chunk) >= self.batch_size:
                flush()
        # Predicates admitted before a budget stop are always scored: a
        # per-predicate loop would have scored them at admission time.
        # Under a wall-clock budget this overruns the deadline by at most
        # one batch's scoring — the batched analogue of the scalar loop
        # finishing its in-flight predicate — and keeps ``n_evaluated``
        # equal to the admitted count for both budget kinds.
        flush()
        top.sort(key=lambda sp: sp.influence, reverse=True)
        return PartitionerResult(
            candidates=[],
            ranked=top,
            convergence=tracker.convergence,
            elapsed=time.perf_counter() - start,
            n_evaluated=n_evaluated,
            truncated=truncated,
        )


def _keep_top(top: list[ScoredPredicate], item: ScoredPredicate, k: int) -> None:
    """Maintain the k best scored predicates (small k; linear is fine)."""
    if math.isnan(item.influence) or item.influence == float("-inf"):
        return
    if len(top) < k:
        top.append(item)
        return
    worst_index = min(range(len(top)), key=lambda i: top[i].influence)
    if item.influence > top[worst_index].influence:
        top[worst_index] = item
