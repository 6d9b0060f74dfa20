"""Serializing a scorer's batch kernel into shared memory, and
rebuilding it inside a worker process.

:func:`build_kernel_spec` runs in the parent: it packs every large
array the batch-scoring kernels read — the stacked per-tuple aggregate
states, the labeled aggregate-attribute values, the context-id map, and
the labeled evaluator's attribute columns (continuous values and
factorized discrete codes) — into one shared-memory segment, and
collects the small per-group scalars (total values, error vectors,
total/mean states) plus the aggregate object into a picklable
:class:`KernelSpec`.

:func:`build_worker_scorer` runs once per worker (pool initializer): it
attaches the segment and reconstructs a *kernel-only*
:class:`~repro.core.influence.InfluenceScorer` around zero-copy views —
same classes, same methods, same arrays byte for byte — so a shard
scored in a worker runs exactly the code the serial path runs and
produces bit-for-bit identical influences.  The worker scorer has no
table, no query, and no caches: it only ever sees routed batch shards
(mask-matrix or index chunks), never the scalar/fallback paths.

Prefix-aggregate index views built in the parent are shipped the same
way, per attribute, via :func:`export_index_attribute` /
:func:`export_discrete_index_attribute` /
:func:`install_index_attribute` — the sorted orders, sorted values (or
code-bucket boundaries), and exact prefix (or per-bucket) states of
every group concatenated into one segment.  A worker that receives a
shard for an attribute nobody shipped simply builds the attribute
locally (stable argsort of identical values/codes is deterministic, so
the result is still bit-identical); shipping is a pure optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.parallel.shm import (
    SegmentSpec,
    attach_segment,
    create_segment,
    tracker_pid,
)

_STATES = "states"
_AGG_VALUES = "agg_values"
_CONTEXT_IDS = "context_ids"
_CONT = "cont:"
_CODES = "codes:"


@dataclass(frozen=True, eq=False)
class ContextSpec:
    """The small per-group scalars of one :class:`GroupContext` (its
    arrays live in the shared segment and are re-sliced by position)."""

    key: object
    size: int
    is_outlier: bool
    error_vector: float
    total_value: float
    total_state: np.ndarray | None
    mean_state: np.ndarray | None


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Everything a worker needs to rebuild the batch-scoring kernel."""

    segment: SegmentSpec
    contexts: tuple[ContextSpec, ...]
    outlier_cols: int
    lam: float
    c: float
    c_holdout: float
    perturbation: str
    aggregate: object
    incremental: bool
    batch_chunk: int
    continuous_attrs: tuple[str, ...]
    discrete_attrs: tuple[str, ...]
    code_of: dict[str, dict]
    has_index: bool
    #: Resource-tracker PID of the owning process (workers use it to
    #: decide whether their attach registrations need undoing; see
    #: :func:`repro.parallel.shm.attach_segment`).
    tracker_pid: int | None


@dataclass(frozen=True, eq=False)
class IndexAttributeSpec:
    """One continuous attribute's pre-built prefix-aggregate index views.

    ``segment`` packs, in labeled-slice order: every group's sorted row
    order (``order``), sorted attribute values (``values``), and — for
    groups on the exact prefix tier — the ``(size + 1, state_size)``
    prefix states concatenated row-wise (``prefix``).
    ``prefix_offsets[g] : prefix_offsets[g + 1]`` are group ``g``'s rows
    inside that concatenation (an empty span for gather-tier groups).
    """

    kind = "range"

    attribute: str
    segment: SegmentSpec
    prefix_offsets: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class DiscreteIndexAttributeSpec:
    """One discrete attribute's pre-built code-bucket index views.

    ``segment`` packs, in labeled-slice order: every group's code-sorted
    row order (``order``), the groups' ``(n_codes + 1,)`` bucket
    boundary arrays concatenated (``offsets``), and — for groups on the
    exact bucket tier — the ``(n_codes, state_size)`` per-bucket summed
    states concatenated row-wise (``buckets``).
    ``bucket_offsets[g] : bucket_offsets[g + 1]`` are group ``g``'s rows
    inside that concatenation (an empty span for gather-tier groups).
    """

    kind = "discrete"

    attribute: str
    segment: SegmentSpec
    bucket_offsets: tuple[int, ...]
    n_codes: int


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def build_kernel_spec(scorer) -> tuple[KernelSpec,
                                       list[shared_memory.SharedMemory]]:
    """Pack ``scorer``'s batch kernel for worker reconstruction.

    Returns the picklable spec plus the shared-memory segments created
    (the caller owns them — typically handed to the executor, which
    unlinks them on close).  The scorer keeps using its original arrays;
    the one-time copy here is the only copy workers ever cause.
    """
    continuous, codes, code_of = scorer._labeled_evaluator.export_state()
    contexts = scorer.contexts
    arrays: dict[str, np.ndarray] = {
        _CONTEXT_IDS: scorer._context_ids,
        _AGG_VALUES: (np.concatenate([ctx.agg_values for ctx in contexts])
                      if contexts else np.empty(0, dtype=np.float64)),
    }
    if scorer._stacked_states is not None:
        arrays[_STATES] = scorer._stacked_states
    for attr, values in continuous.items():
        arrays[_CONT + attr] = values
    for attr, attr_codes in codes.items():
        arrays[_CODES + attr] = attr_codes
    shm, segment = create_segment(arrays)
    spec = KernelSpec(
        segment=segment,
        contexts=tuple(
            ContextSpec(
                key=ctx.key,
                size=ctx.size,
                is_outlier=ctx.is_outlier,
                error_vector=ctx.error_vector,
                total_value=ctx.total_value,
                total_state=ctx.total_state,
                mean_state=ctx.mean_state,
            )
            for ctx in contexts
        ),
        outlier_cols=scorer._outlier_cols,
        lam=scorer.lam,
        c=scorer.c,
        c_holdout=scorer.c_holdout,
        perturbation=scorer.perturbation,
        aggregate=scorer.aggregate,
        incremental=scorer._incremental,
        batch_chunk=scorer.batch_chunk,
        continuous_attrs=tuple(continuous),
        discrete_attrs=tuple(codes),
        code_of=code_of,
        has_index=scorer._index is not None,
        tracker_pid=tracker_pid(),
    )
    return spec, [shm]


def export_index_attribute(index, attribute: str,
                           ) -> tuple[shared_memory.SharedMemory,
                                      IndexAttributeSpec]:
    """Pack one attribute's built per-group index views into a segment."""
    per_group = index.ensure(attribute)
    orders = [group.order for group in per_group]
    values = [group.sorted_values for group in per_group]
    prefixes = [group.prefix for group in per_group]
    state_size = index.state_size
    offsets = [0]
    for prefix in prefixes:
        offsets.append(offsets[-1] + (0 if prefix is None else len(prefix)))
    prefix_all = (np.concatenate([p for p in prefixes if p is not None])
                  if offsets[-1]
                  else np.empty((0, state_size), dtype=np.float64))
    shm, segment = create_segment({
        "order": (np.concatenate(orders) if orders
                  else np.empty(0, dtype=np.int64)),
        "values": (np.concatenate(values) if values
                   else np.empty(0, dtype=np.float64)),
        "prefix": prefix_all,
    })
    return shm, IndexAttributeSpec(attribute, segment, tuple(offsets))


def export_discrete_index_attribute(index, attribute: str,
                                    ) -> tuple[shared_memory.SharedMemory,
                                               DiscreteIndexAttributeSpec]:
    """Pack one discrete attribute's built code-bucket views into a
    segment (the discrete counterpart of :func:`export_index_attribute`)."""
    per_group = index.ensure_discrete(attribute)
    n_codes = index.n_codes(attribute)
    orders = [group.order for group in per_group]
    offsets = [group.offsets for group in per_group]
    buckets = [group.bucket_states for group in per_group]
    state_size = index.state_size
    rows = [0]
    for bucket in buckets:
        rows.append(rows[-1] + (0 if bucket is None else len(bucket)))
    buckets_all = (np.concatenate([b for b in buckets if b is not None])
                   if rows[-1]
                   else np.empty((0, state_size), dtype=np.float64))
    shm, segment = create_segment({
        "order": (np.concatenate(orders) if orders
                  else np.empty(0, dtype=np.int64)),
        "offsets": (np.concatenate(offsets) if offsets
                    else np.empty(0, dtype=np.int64)),
        "buckets": buckets_all,
    })
    return shm, DiscreteIndexAttributeSpec(attribute, segment, tuple(rows),
                                           n_codes)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def build_worker_scorer(spec: KernelSpec,
                        ) -> tuple["object", list[shared_memory.SharedMemory]]:
    """Reconstruct a kernel-only :class:`InfluenceScorer` from a spec.

    Imported objects are resolved lazily so this module can be imported
    without pulling in the scorer (the parent-side functions above only
    need shm plumbing).  Returns the scorer plus the attached segments,
    which must stay referenced for the scorer's lifetime.
    """
    from repro.core.influence import GroupContext, InfluenceScorer, ScorerStats
    from repro.index import IndexPlanner, PrefixAggregateIndex
    from repro.predicates.evaluator import ArrayMaskEvaluator

    shm, views = attach_segment(spec.segment, spec.tracker_pid)
    held = [shm]

    contexts: list[GroupContext] = []
    offset = 0
    stacked = views.get(_STATES)
    for ctx_spec in spec.contexts:
        start, stop = offset, offset + ctx_spec.size
        contexts.append(GroupContext(
            key=ctx_spec.key,
            # Worker contexts index the labeled concatenation, not the
            # full table (which workers never see); only the length is
            # consumed by kernel code.
            indices=np.arange(start, stop, dtype=np.int64),
            agg_values=views[_AGG_VALUES][start:stop],
            total_value=ctx_spec.total_value,
            error_vector=ctx_spec.error_vector,
            is_outlier=ctx_spec.is_outlier,
            total_state=ctx_spec.total_state,
            tuple_states=stacked[start:stop] if stacked is not None else None,
            mean_state=ctx_spec.mean_state,
        ))
        offset = stop

    scorer = InfluenceScorer.__new__(InfluenceScorer)
    scorer.query = None
    scorer.table = None
    scorer.aggregate = spec.aggregate
    scorer.lam = spec.lam
    scorer.c = spec.c
    scorer.c_holdout = spec.c_holdout
    scorer.perturbation = spec.perturbation
    scorer.stats = ScorerStats()
    scorer._incremental = spec.incremental
    scorer.batch_chunk = spec.batch_chunk
    scorer._score_cache = None
    scorer._outlier_score_cache = None
    scorer._tuple_influence_cache = {}
    scorer.outlier_contexts = [c for c in contexts if c.is_outlier]
    scorer.holdout_contexts = [c for c in contexts if not c.is_outlier]
    slices = []
    offset = 0
    for ctx in contexts:
        slices.append((ctx, offset, offset + ctx.size))
        offset += ctx.size
    scorer._labeled_slices = slices
    scorer._n_labeled = offset
    scorer._context_ids = views[_CONTEXT_IDS]
    scorer._outlier_cols = spec.outlier_cols
    scorer._stacked_states = stacked
    scorer._labeled_evaluator = ArrayMaskEvaluator.from_state(
        {attr: views[_CONT + attr] for attr in spec.continuous_attrs},
        {attr: views[_CODES + attr] for attr in spec.discrete_attrs},
        spec.code_of,
    )
    scorer._index = None
    if spec.has_index:
        scorer._index = PrefixAggregateIndex(
            {attr: views[_CONT + attr] for attr in spec.continuous_attrs},
            [(start, stop) for _, start, stop in slices],
            [ctx.tuple_states for ctx in contexts],
            codes_by_attr={attr: views[_CODES + attr]
                           for attr in spec.discrete_attrs},
            code_tables=spec.code_of,
        )
    scorer._planner = IndexPlanner(scorer._index)
    scorer._index_builds_seen = 0
    scorer._index_seconds_seen = 0.0
    # Workers never parallelize recursively and never re-plan routes:
    # they execute parent decisions only.
    scorer.workers = 1
    scorer._parallel_disabled = True
    scorer._executor = None
    scorer._finalizer = None
    scorer._index_attr_specs = {}
    scorer._recovery = None
    scorer._pool_starts = 0
    scorer.task_timeout = None
    return scorer, held


def install_index_attribute(scorer, spec, owner_tracker_pid: int | None = None,
                            ) -> shared_memory.SharedMemory:
    """Install one shipped attribute view (range or discrete, per the
    spec's ``kind``) into a worker scorer's index."""
    from repro.index.discrete import GroupDiscreteIndex
    from repro.index.prefix import GroupAttributeIndex

    shm, views = attach_segment(spec.segment, owner_tracker_pid)
    order_all = views["order"]
    if spec.kind == "discrete":
        offsets_all = views["offsets"]
        buckets_all = views["buckets"]
        rows = spec.bucket_offsets
        span = spec.n_codes + 1
        per_group = []
        for gi, (start, stop) in enumerate(scorer._index.group_slices):
            lo, hi = rows[gi], rows[gi + 1]
            per_group.append(GroupDiscreteIndex.from_arrays(
                order_all[start:stop],
                offsets_all[gi * span:(gi + 1) * span],
                buckets_all[lo:hi] if hi > lo else None,
            ))
        scorer._index.install_discrete_attribute(spec.attribute, per_group)
        return shm
    values_all = views["values"]
    prefix_all = views["prefix"]
    offsets = spec.prefix_offsets
    per_group = []
    for gi, (start, stop) in enumerate(scorer._index.group_slices):
        lo, hi = offsets[gi], offsets[gi + 1]
        per_group.append(GroupAttributeIndex.from_arrays(
            order_all[start:stop],
            values_all[start:stop],
            prefix_all[lo:hi] if hi > lo else None,
        ))
    scorer._index.install_attribute(spec.attribute, per_group)
    return shm
