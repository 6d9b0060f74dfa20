"""The Scorpion facade — Figure 2's end-to-end pipeline.

``Scorpion.explain`` takes a :class:`~repro.core.problem.ScorpionQuery`
and runs provenance → partitioner → merger → scorer, returning ranked
:class:`Explanation` objects.  The partitioner is chosen from the
aggregate's declared properties unless forced:

* independent **and** anti-monotone on the labeled data → ``MC``;
* independent only → ``DT``;
* black box → ``NAIVE``.

A shared :class:`~repro.core.cache.DTCache` makes repeated ``explain``
calls that differ only in ``c`` cheap (Section 8.3.3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.cache import DTCache
from repro.core.dt import DTPartitioner
from repro.core.influence import InfluenceScorer
from repro.core.mc import MCPartitioner
from repro.core.merger import Merger, MergerParams
from repro.core.naive import NaivePartitioner
from repro.core.partition import ScoredPredicate
from repro.core.problem import ScorpionQuery
from repro.errors import PartitionerError
from repro.obs.trace import Tracer, current_tracer, span, tracing_enabled
from repro.predicates.predicate import Predicate


@dataclass(frozen=True)
class Explanation:
    """One ranked answer: a predicate and what it does to the results.

    ``updated_outliers`` / ``updated_holdouts`` give each labeled group's
    aggregate value after deleting the predicate's tuples — the "plot the
    updated output" interaction from Section 4.1.
    """

    predicate: Predicate
    influence: float
    n_matched: int
    updated_outliers: dict[tuple, float] = field(hash=False)
    updated_holdouts: dict[tuple, float] = field(hash=False)

    def __str__(self) -> str:
        return f"{self.predicate}  (influence={self.influence:.6g}, rows={self.n_matched})"


@dataclass
class ScorpionResult:
    """Everything one ``explain`` call produced."""

    explanations: list[Explanation]
    algorithm: str
    elapsed: float
    partition_elapsed: float
    merge_elapsed: float
    n_candidates: int
    #: Scorer operation counters (:meth:`ScorerStats.as_dict`), including
    #: the batch-scoring counters ``batch_calls`` / ``batch_predicates``
    #: / ``largest_batch`` / ``batch_seconds`` / ``batch_throughput`` /
    #: ``masked_predicates``, and the parallel-execution counters
    #: ``parallel_batches`` / ``parallel_shards`` (worker-side kernel
    #: counters are merged back in, so totals match a serial run).
    #: ``Scorpion.explain`` merges in this call's
    #: :class:`~repro.core.cache.DTCache` window (``dtcache_*`` deltas +
    #: entry gauge); the resident service adds its own ``service_*``
    #: counters on top.
    scorer_stats: dict
    #: Exported span tree (flat list of span dicts; see
    #: :meth:`repro.obs.trace.Tracer.export`) when tracing was enabled
    #: for this call — via ``SCORPION_TRACE=1``, ``trace=True``, or the
    #: resident service's per-request tracer.  ``None`` when off.
    trace: list | None = None

    @property
    def best(self) -> Explanation | None:
        return self.explanations[0] if self.explanations else None


class Scorpion:
    """End-to-end influential-predicate search.

    Parameters
    ----------
    algorithm:
        ``"auto"`` (property-driven choice), ``"dt"``, ``"mc"``, or
        ``"naive"``.
    partitioner:
        Pre-configured partitioner instance overriding ``algorithm``.
    merger_params:
        Overrides for the DT-path Merger (MC runs its own internal
        merger; NAIVE needs none).
    use_cache:
        Reuse DT partitions and warm-start merges across ``c`` values.
    top_k:
        Number of explanations to return.
    auto_select_attributes:
        Drop explanation attributes whose filter relevance (Section 6.4:
        correlation / mutual information with per-tuple influence) falls
        below ``relevance_threshold`` before partitioning.  The paper
        defers this to future work; it is implemented here as an
        extension and is off by default.
    relevance_threshold:
        Minimum relevance an attribute must reach to be kept.
    batch_chunk:
        Override for the Scorer's per-pass predicate cap (None = the
        ``SCORPION_BATCH_CHUNK`` environment variable, else the
        built-in default); benchmarks sweep it.  With ``workers > 1``
        it is also the largest shard fanned out to worker processes;
        a smaller batch is cut so every worker gets a shard.
    workers:
        Worker processes for sharded batch scoring (None = the
        ``SCORPION_WORKERS`` environment variable, else 1 = serial;
        ``0`` = one worker per CPU).  Every search algorithm funnels
        through ``InfluenceScorer.score_batch``, so NAIVE, MC, DT, and
        the Merger all inherit the parallelism; results are bit-for-bit
        identical at any setting (see :mod:`repro.parallel`).
    task_timeout:
        Per-shard worker deadline in seconds (None = the
        ``SCORPION_TASK_TIMEOUT`` environment variable, else the
        executor default; ``<= 0`` waits forever).
    trace:
        Record a per-call span tree on :attr:`ScorpionResult.trace`
        (None = the ``SCORPION_TRACE`` environment variable, default
        off).  Tracing never changes results — the differential oracle
        runs a traced leg, and ``bench_obs_overhead.py`` pins the
        overhead.
    """

    def __init__(self, algorithm: str = "auto", partitioner=None,
                 merger_params: MergerParams | None = None,
                 use_cache: bool = True, top_k: int = 5,
                 auto_select_attributes: bool = False,
                 relevance_threshold: float = 0.05,
                 batch_chunk: int | None = None,
                 workers: int | None = None,
                 task_timeout: float | None = None,
                 trace: bool | None = None):
        if algorithm not in ("auto", "dt", "mc", "naive"):
            raise PartitionerError(f"unknown algorithm {algorithm!r}")
        if top_k < 1:
            raise PartitionerError(f"top_k must be >= 1, got {top_k}")
        self.algorithm = algorithm
        self.partitioner = partitioner
        self.merger_params = merger_params
        self.use_cache = use_cache
        self.top_k = top_k
        self.auto_select_attributes = auto_select_attributes
        self.relevance_threshold = relevance_threshold
        self.batch_chunk = batch_chunk
        self.workers = workers
        self.task_timeout = task_timeout
        self.trace = tracing_enabled() if trace is None else bool(trace)
        self.cache = DTCache()

    # ------------------------------------------------------------------
    def build_scorer(self, query: ScorpionQuery,
                     ) -> tuple[ScorpionQuery, InfluenceScorer]:
        """The expensive per-problem build: attribute narrowing (when
        enabled) plus the :class:`InfluenceScorer` problem image —
        per-group contexts, labeled evaluator arrays, stacked states.

        Returns the (possibly narrowed) query alongside its scorer so a
        resident caller can cache both and replay :meth:`explain` against
        them without rebuilding.  The caller owns the scorer's lifetime
        (``scorer.close()``).
        """
        with span("build") as sp:
            if self.auto_select_attributes:
                query = self._narrow_attributes(query)
            scorer = InfluenceScorer(query, batch_chunk=self.batch_chunk,
                                     workers=self.workers,
                                     task_timeout=self.task_timeout)
            if sp:
                sp.annotate(groups=len(scorer.contexts),
                            attributes=len(query.attributes))
        return query, scorer

    def explain(self, query: ScorpionQuery,
                scorer: InfluenceScorer | None = None) -> ScorpionResult:
        """Find the predicates that most influence the flagged outliers.

        With no ``scorer``, builds one via :meth:`build_scorer` and
        closes it before returning (the one-shot path).  With an
        injected ``scorer`` — a cached :meth:`build_scorer` product, as
        the resident :class:`~repro.service.ExplainService` holds — the
        build is skipped entirely: ``query`` must be the narrowed query
        the scorer was built from (modulo ``c``/``c_holdout``/``lam``
        rebinds) and the scorer stays open for the caller to reuse.
        """
        start = time.perf_counter()
        owned = scorer is None
        # Tracer ownership: when a caller (the resident service) already
        # activated one, spans land there and the caller exports; a
        # standalone traced Scorpion owns the whole lifecycle itself.
        own_tracer = self.trace and current_tracer() is None
        tracer = Tracer().activate() if own_tracer else None
        try:
            with span("explain") as root:
                if owned:
                    query, scorer = self.build_scorer(query)
                cache_window = self.cache.counter_snapshot()
                try:
                    partitioner = (self.partitioner
                                   or self._pick_partitioner(query, scorer))

                    merge_elapsed = 0.0
                    if isinstance(partitioner, DTPartitioner):
                        ranked, partition_elapsed, merge_elapsed, n_candidates = (
                            self._run_dt(query, partitioner, scorer))
                        algorithm = "dt"
                    else:
                        with span("partition") as psp:
                            result = partitioner.run(query, scorer)
                            if psp:
                                psp.annotate(algorithm=partitioner.name,
                                             candidates=result.n_evaluated)
                        ranked = result.ranked
                        partition_elapsed = result.elapsed
                        n_candidates = result.n_evaluated
                        algorithm = partitioner.name

                    with span("finalize") as fsp:
                        explanations = [self._to_explanation(sp, scorer, query)
                                        for sp in ranked[: self.top_k]]
                        if fsp:
                            fsp.annotate(explanations=len(explanations))
                    scorer_stats = scorer.stats.as_dict()
                    scorer_stats.update(self.cache.window_stats(cache_window))
                    if root:
                        root.annotate(algorithm=algorithm,
                                      candidates=n_candidates)
                    explained = ScorpionResult(
                        explanations=explanations,
                        algorithm=algorithm,
                        elapsed=time.perf_counter() - start,
                        partition_elapsed=partition_elapsed,
                        merge_elapsed=merge_elapsed,
                        n_candidates=n_candidates,
                        scorer_stats=scorer_stats,
                    )
                finally:
                    # Release the parallel executor's worker pool
                    # promptly (no-op for serial scorers).
                    # Injected scorers outlive the call — their owner
                    # closes them.
                    if owned:
                        scorer.close()
            if own_tracer:
                explained.trace = tracer.export()
            return explained
        finally:
            if own_tracer:
                tracer.deactivate()

    # ------------------------------------------------------------------
    def _narrow_attributes(self, query: ScorpionQuery) -> ScorpionQuery:
        """The Section 6.4 extension: keep only influence-relevant
        attributes.  Imported lazily to keep the core free of a featsel
        dependency unless the feature is used."""
        from repro.featsel.filters import select_attributes

        selected = select_attributes(query, threshold=self.relevance_threshold)
        if set(selected) == set(query.attributes):
            return query
        return ScorpionQuery(
            table=query.raw_table,
            query=query.query,
            outliers=query.outlier_keys,
            holdouts=query.holdout_keys,
            error_vectors=query.error_vectors,
            lam=query.lam,
            c=query.c,
            c_holdout=query.c_holdout,
            attributes=tuple(selected),
        )

    def _pick_partitioner(self, query: ScorpionQuery, scorer: InfluenceScorer):
        if self.algorithm == "dt":
            return DTPartitioner()
        if self.algorithm == "mc":
            return MCPartitioner()
        if self.algorithm == "naive":
            return NaivePartitioner()
        aggregate = query.aggregate
        if aggregate.is_independent:
            anti_monotone = all(
                aggregate.check(ctx.agg_values) for ctx in scorer.contexts
            )
            if anti_monotone:
                return MCPartitioner()
            return DTPartitioner()
        return NaivePartitioner()

    def _run_dt(self, query: ScorpionQuery, partitioner: DTPartitioner,
                scorer: InfluenceScorer):
        merge_start: float
        with span("partition") as psp:
            if self.use_cache:
                candidates, partition_elapsed = self.cache.candidates(
                    query, partitioner, scorer)
                seeds = self.cache.merger_seeds(query)
            else:
                result = partitioner.run(query, scorer)
                candidates = result.candidates
                seeds = None
                partition_elapsed = result.elapsed
            if psp:
                psp.annotate(algorithm="dt", candidates=len(candidates),
                             cached=self.use_cache and partition_elapsed == 0.0,
                             seeds=len(seeds) if seeds else 0)
        merger = Merger(scorer, query.domain, params=self.merger_params)
        merge_start = time.perf_counter()
        with span("merge") as msp:
            merged = merger.run(candidates, seeds=seeds)
            if msp:
                msp.annotate(merged=len(merged))
        merge_elapsed = time.perf_counter() - merge_start
        if self.use_cache:
            self.cache.store_merged(query, merged)
        return merged, partition_elapsed, merge_elapsed, len(candidates)

    # ------------------------------------------------------------------
    def _to_explanation(self, scored: ScoredPredicate, scorer: InfluenceScorer,
                        query: ScorpionQuery) -> Explanation:
        predicate = query.domain.simplify(scored.predicate)
        mask = predicate.mask(scorer.table)
        updated_outliers = {}
        updated_holdouts = {}
        for context in scorer.contexts:
            local = mask[context.indices]
            delta = scorer.kernel.delta(context, local)
            updated = (context.total_value - delta
                       if np.isfinite(delta) else float("nan"))
            if context.is_outlier:
                updated_outliers[context.key] = updated
            else:
                updated_holdouts[context.key] = updated
        return Explanation(
            predicate=predicate,
            influence=scored.influence,
            n_matched=int(np.count_nonzero(mask)),
            updated_outliers=updated_outliers,
            updated_holdouts=updated_holdouts,
        )
