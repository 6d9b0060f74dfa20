"""The DT (decision-tree) partitioner for independent aggregates
(paper Section 6.1).

DT grows a regression-tree-style partitioning of the ``A_rest`` attribute
space so that tuples inside each partition have similar influence:

* the stopping rule uses the Section 6.1.1 *relaxed threshold curve* —
  partitions containing highly influential tuples must be tight, while
  uninfluential regions may stay coarse;
* large input groups are *sampled* (Section 6.1.2), with stratified
  re-sampling that concentrates samples in influential sub-partitions;
* all input groups of one kind (outlier or hold-out) are partitioned in
  a single synchronized recursion (Section 6.1.3): each candidate split
  is scored per group and the scores combined by ``max``, so every group
  receives the same spatial partitioning without over-splitting
  artifacts;
* outlier and hold-out partitionings are *combined* (Section 6.1.4) by
  splitting outlier partitions along influential hold-out partitions,
  separating pieces that perturb hold-outs from pieces that only affect
  outliers.

The emitted candidates carry per-group removal statistics so the Merger
can use the Section 6.3 cached-tuple approximation.

The split search runs on presorted columns (CART's presorted attribute
lists, as in SLIQ).  One recursion lays its groups end to end as ids
(:class:`_Pool`); at the root each continuous attribute's ids are sorted
once by (group, value, row), and a split partitions every list stably,
so children stay sorted and no node sorts again.  A node scores every
threshold of every continuous attribute in every group with one
:func:`~repro.tree.splits.grouped_range_split_errors` call over its
sampled ids; set splits sum influence per value with ``bincount`` over
the column's factorized codes.  Samples are one boolean mask over the
ids, which children inherit and top-ups extend.

The search is bit-for-bit the per-group one it replaced (the oracle in
``tests/test_dt_oracle.py`` keeps that recursion): the same leaves,
samples, candidates and random draws.  That rests on a few orders:

* within a group, the root sort restricted to a node's sample is the
  stable ``argsort`` of that sample in row order, so prefix sums add the
  same numbers in the same order; they restart at each group;
* quantiles read the pooled sample group after group in row order;
* reductions whose rounding depends on length (``np.std`` node errors,
  ``np.sum`` in re-sampling and leaf means) stay one call per group;
* random draws happen in depth-first stack order, group order, left
  child before right, each from the child's unsampled rows in ascending
  order;
* equal errors go to the first attribute in clause order and the lowest
  threshold; set candidates list values in order of first appearance.

Leaf scoring is batched: all leaf/combined predicates are evaluated per
group as chunked mask matrices (:meth:`ArrayMaskEvaluator.evaluate_batch`)
and their removal statistics and sampled-influence scores come from two
``einsum`` contractions per chunk.  Exact influence scoring of the
candidates happens downstream — the Merger batch-scores its expansion
starts through :meth:`InfluenceScorer.score_batch`, whose mask kernel
scores every predicate shape.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.core.influence import GroupContext, InfluenceScorer
from repro.core.partition import CandidatePredicate, GroupRemovalStats, PartitionerResult
from repro.core.problem import ScorpionQuery
from repro.errors import PartitionerError
from repro.obs.trace import span
from repro.predicates.clause import Clause, RangeClause, SetClause
from repro.predicates.evaluator import ArrayMaskEvaluator
from repro.predicates.predicate import Predicate
from repro.tree.node import TreeNode
from repro.tree.splits import Split, grouped_range_split_errors, split_error


@dataclass
class _GroupData:
    """Per-input-group arrays the recursion works over."""

    context: GroupContext
    #: ``A_rest`` values for the group's rows, keyed by attribute.
    values: dict[str, np.ndarray]
    #: Per-row influence: signed (Δ·v) for outlier groups, |Δ| for
    #: hold-out groups (the penalty term uses absolute influence).
    influences: np.ndarray
    #: Global influence bounds of the group (inf_l, inf_u of Section 6.1.1).
    inf_lo: float = 0.0
    inf_hi: float = 0.0
    #: Initial sampling rate (1.0 when sampling is disabled).
    sample_rate: float = 1.0

    @property
    def size(self) -> int:
        return self.context.size


def _quantiles(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """``np.quantile(values, levels, axis=1).T``, bit for bit, from a sort.

    ``np.quantile`` (linear method) partitions each row and interpolates
    between two order statistics; taking them from ``np.sort`` is several
    times faster and gives the same values, except that the two may
    place a different zero where a row holds both ``0.0`` and ``-0.0``.
    Only a zero result can show that, so such rows take ``np.quantile``.
    A row holding NaN gives NaN throughout, as in ``np.quantile``, but
    not necessarily the same NaN bits; the split search drops NaN cuts.
    """
    n = values.shape[1]
    virtual = (n - 1) * levels
    lower = np.floor(virtual)
    upper = lower + 1
    past_end = virtual >= n - 1
    lower[past_end] = upper[past_end] = -1
    lower, upper = lower.astype(np.intp), upper.astype(np.intp)
    ordered = np.sort(values, axis=1)
    below, above = ordered[:, lower], ordered[:, upper]
    gamma = virtual - lower
    step = above - below
    out = below + step * gamma
    np.subtract(above, step * (1 - gamma), out=out, where=gamma >= 0.5)
    out[np.isnan(ordered[:, -1])] = np.nan
    for row in np.flatnonzero((out == 0).any(axis=1)).tolist():
        zeros = values[row][values[row] == 0]
        if np.signbit(zeros).any() and not np.signbit(zeros).all():
            out[row] = np.quantile(values[row], levels)
    return out


class _Pool:
    """The input groups of one recursion laid end to end.

    Row ``r`` of group ``g`` gets the id ``offsets[g] + r``, so ascending
    ids list the groups in order, each in ascending row order: the order
    every per-group reduction reads its rows in.
    """

    def __init__(self, table, groups: list[_GroupData],
                 clauses: dict[str, Clause], quantiles: np.ndarray):
        #: Quantile levels the range search takes its thresholds at.
        self.quantiles = quantiles
        sizes = [group.size for group in groups]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        n_ids = int(self.offsets[-1])
        #: Table row of each id.
        self.rows = np.concatenate(
            [np.empty(0, dtype=np.int64)]
            + [np.asarray(group.context.indices, dtype=np.int64) for group in groups])
        self.influences = np.concatenate(
            [np.empty(0)] + [group.influences for group in groups])
        self.range_attrs = [attribute for attribute, clause in clauses.items()
                            if isinstance(clause, RangeClause)]
        self.range_index = {attribute: index
                            for index, attribute in enumerate(self.range_attrs)}
        #: Values of the range attributes, one row each.
        self.values = np.array([table.values(attribute)[self.rows]
                                for attribute in self.range_attrs],
                               dtype=np.float64).reshape(len(self.range_attrs), n_ids)
        #: Column codes of the set attributes, and their value → code tables.
        self.codes: dict[str, np.ndarray] = {}
        self.code_of: dict[str, dict] = {}
        for attribute in clauses:
            if attribute not in self.range_index:
                codes, code_of = table.column(attribute).codes()
                self.codes[attribute] = codes[self.rows]
                self.code_of[attribute] = code_of
        self.in_sample = np.zeros(n_ids, dtype=bool)
        #: Whether any group is sampled, so that splits re-sample.
        self.sampled = any(group.sample_rate < 1.0 for group in groups)
        #: Work buffer: which of a splitting node's ids go left.
        self.goes_left = np.zeros(n_ids, dtype=bool)

    def presorted(self) -> np.ndarray:
        """Per range attribute, every id ordered by (group, value, row)."""
        group_of = np.repeat(np.arange(len(self.offsets) - 1),
                             np.diff(self.offsets))
        order = np.empty(self.values.shape, dtype=np.int64)
        for index, values in enumerate(self.values):
            order[index] = np.lexsort((values, group_of))
        return order


class _NodeSample:
    """The sampled rows of one node: their ids (ascending) and
    influences, and per group the slice of those influences."""

    def __init__(self, pool: _Pool, ids: np.ndarray):
        self.ids = ids[pool.in_sample[ids]]
        self.influences = pool.influences[self.ids]
        self.bounds = np.searchsorted(self.ids, pool.offsets)
        self.segments = [self.influences[lo:hi] for lo, hi in
                         zip(self.bounds[:-1].tolist(), self.bounds[1:].tolist())]

    @functools.cached_property
    def errors(self) -> list[float | None]:
        """Per group, the node error of its sample (None below 2 rows).
        Influences are always finite, so
        :func:`~repro.tree.splits.node_error` is their ``std``."""
        return [float(influences.std()) if len(influences) >= 2 else None
                for influences in self.segments]


@dataclass
class _Partition:
    """A leaf of the synchronized tree: its rows and sampled rows, as
    ascending ids of the recursion's :class:`_Pool`."""

    predicate: Predicate
    rows: np.ndarray
    sample: np.ndarray
    mean_influence: float = 0.0


@dataclass
class DTParams:
    """Tuning knobs of the DT partitioner: the Section 6.1.1 error
    threshold's shape (``tau_min``, ``tau_max``, ``p_inflection``), the
    tree's size caps and the Section 6.1.2 sampling rate."""

    tau_min: float = 0.02
    tau_max: float = 0.3
    p_inflection: float = 0.5
    min_leaf_size: int = 20
    max_depth: int = 12
    max_leaves: int = 128
    max_split_candidates: int = 8
    sampling: bool = True
    epsilon: float = 0.005
    min_sample_size: int = 50
    #: Early pruning (the future work Section 8.3.2 names): stop
    #: splitting a node when, in every group, its best sampled influence
    #: is below this fraction of the group's maximum — the node cannot
    #: contain the influential cluster, so its internal variance is
    #: noise not worth modelling.  0.0 disables.
    early_prune_fraction: float = 0.0
    #: Hold-out partitions whose mean |influence| is at least this
    #: fraction of the most influential hold-out partition's mean are
    #: used to split outlier partitions (Section 6.1.4).
    holdout_influence_frac: float = 0.5
    max_holdout_cutters: int = 8
    max_pieces_per_partition: int = 16
    seed: int = 0


class DTPartitioner:
    """Top-down synchronized partitioner for independent aggregates."""

    name = "dt"

    def __init__(self, params: DTParams | None = None, **overrides):
        known = {field.name for field in fields(DTParams)}
        for key in overrides:
            if key not in known:
                raise PartitionerError(f"unknown DT parameter {key!r}")
        # A copy: the caller's params may be shared.
        params = replace(params or DTParams(), **overrides)
        if params.max_leaves < 1:
            raise PartitionerError("max_leaves must be >= 1")
        if params.max_depth < 0:
            raise PartitionerError("max_depth must be >= 0")
        if params.max_split_candidates < 1:
            raise PartitionerError("max_split_candidates must be >= 1")
        if not 0 < params.tau_min <= params.tau_max:
            raise PartitionerError("need 0 < tau_min <= tau_max")
        if not 0 < params.epsilon < 1:
            raise PartitionerError("epsilon must be in (0, 1)")
        self.params = params

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, query: ScorpionQuery, scorer: InfluenceScorer | None = None,
            ) -> PartitionerResult:
        if not query.aggregate.is_independent:
            raise PartitionerError(
                f"DT requires an independent aggregate; {query.aggregate.name} "
                "does not declare the property (Section 5.2)"
            )
        start = time.perf_counter()
        scorer = scorer or InfluenceScorer(query)
        self._rng = np.random.default_rng(self.params.seed)
        self._query = query
        self._scorer = scorer
        try:
            with span("partition_outliers") as osp:
                outlier_groups = [self._prepare_group(scorer, ctx)
                                  for ctx in scorer.outlier_contexts]
                partitions_o = self._partition(outlier_groups)
                if osp:
                    osp.annotate(groups=len(outlier_groups),
                                 partitions=len(partitions_o))
            if scorer.holdout_contexts:
                with span("partition_holdouts") as hsp:
                    holdout_groups = [self._prepare_group(scorer, ctx)
                                      for ctx in scorer.holdout_contexts]
                    partitions_h = self._partition(holdout_groups)
                    if hsp:
                        hsp.annotate(groups=len(holdout_groups),
                                     partitions=len(partitions_h))
                with span("combine"):
                    predicates = self._combine(partitions_o, partitions_h)
            else:
                predicates = [p.predicate for p in partitions_o]

            with span("build_candidates") as csp:
                candidates = self._build_candidates(predicates, outlier_groups)
                if csp:
                    csp.annotate(candidates=len(candidates))
        finally:
            # The problem and scorer are per-run state: a partitioner the
            # caller keeps must not keep the last table and scorer alive.
            self._query = self._scorer = None
        candidates.sort(key=lambda c: c.score, reverse=True)
        return PartitionerResult(
            candidates=candidates,
            elapsed=time.perf_counter() - start,
            n_evaluated=len(candidates),
        )

    # ------------------------------------------------------------------
    # Group preparation (influence arrays + sampling rates, Section 6.1.2)
    # ------------------------------------------------------------------
    def _prepare_group(self, scorer: InfluenceScorer, context: GroupContext) -> _GroupData:
        values = {
            attr: self._query.table.values(attr)[context.indices]
            for attr in self._query.attributes
        }
        influences = scorer.tuple_influences(context)
        if not context.is_outlier:
            influences = np.abs(influences)
        influences = np.nan_to_num(influences, nan=0.0,
                                   posinf=0.0, neginf=0.0)
        group = _GroupData(context=context, values=values, influences=influences)
        finite = influences[np.isfinite(influences)]
        group.inf_lo = float(np.min(finite)) if len(finite) else 0.0
        group.inf_hi = float(np.max(finite)) if len(finite) else 0.0
        group.sample_rate = self._initial_sample_rate(context.size)
        return group

    def _initial_sample_rate(self, group_size: int) -> float:
        """Smallest rate giving ≥95% probability of catching a cluster
        covering an ``epsilon`` fraction of the group (Section 6.1.2)."""
        if not self.params.sampling or group_size == 0:
            return 1.0
        epsilon = self.params.epsilon
        needed = np.log(0.05) / (group_size * np.log1p(-epsilon))
        rate = float(min(max(needed, 0.0), 1.0))
        floor = min(self.params.min_sample_size / max(group_size, 1), 1.0)
        return max(rate, floor)

    def _initial_sample(self, group: _GroupData) -> np.ndarray:
        rows = np.arange(group.size, dtype=np.int64)
        if group.sample_rate >= 1.0:
            return rows
        size = max(int(round(group.sample_rate * group.size)), 1)
        return self._rng.choice(rows, size=size, replace=False)

    # ------------------------------------------------------------------
    # Synchronized recursive partitioning (Sections 6.1.1 + 6.1.3)
    # ------------------------------------------------------------------
    def _root_clauses(self) -> dict[str, Clause]:
        return {a.name: a.full_clause() for a in self._query.domain}

    def _partition(self, groups: list[_GroupData]) -> list[_Partition]:
        clauses = self._root_clauses()
        quantiles = np.linspace(0.0, 1.0, self.params.max_split_candidates + 2)[1:-1]
        pool = _Pool(self._query.table, groups, clauses, quantiles)
        for offset, group in zip(pool.offsets.tolist(), groups):
            pool.in_sample[offset + self._initial_sample(group)] = True
        leaves: list[_Partition] = []
        # Each entry carries its node's ids (ascending) and presorted
        # lists, so the tree itself holds no arrays.
        stack = [(TreeNode(clauses), np.arange(len(pool.rows)), pool.presorted())]
        while stack:
            node, ids, order = stack.pop()
            sample = _NodeSample(pool, ids)
            budget_left = self.params.max_leaves - (len(leaves) + len(stack))
            split = None
            if budget_left > 1 and not self._should_stop(node, sample, groups):
                split = self._choose_split(node, pool, order, sample)
            if split is None:
                leaves.append(self._to_partition(node, ids, sample))
                continue
            stack.extend(self._apply_split(node, split, pool, ids, order, groups))
        return leaves

    def _should_stop(self, node: TreeNode, sample: _NodeSample,
                     groups: list[_GroupData]) -> bool:
        if node.depth >= self.params.max_depth:
            return True
        if len(sample.ids) < self.params.min_leaf_size:
            return True
        if self._early_prunable(sample.segments, groups):
            return True
        for group, influences, error in zip(groups, sample.segments, sample.errors):
            if error is not None and error > self._threshold(group, influences):
                return False
        return True

    def _early_prunable(self, segments: list[np.ndarray],
                        groups: list[_GroupData]) -> bool:
        """Whether the node is uninfluential in *every* group (so further
        splitting would only model noise); ``segments`` holds each
        group's sampled influences in the node."""
        fraction = self.params.early_prune_fraction
        if fraction <= 0.0:
            return False
        for group, influences in zip(groups, segments):
            if not len(influences) or group.inf_hi <= 0:
                continue
            if float(np.max(influences)) >= fraction * group.inf_hi:
                return False
        return True

    def _threshold(self, group: _GroupData, partition_influences: np.ndarray) -> float:
        """The Section 6.1.1 relaxed error threshold.

        ``ω`` shrinks from ``τ_max`` to ``τ_min`` as the partition's
        maximum influence approaches the group's global maximum — i.e.
        partitions holding influential tuples must be homogeneous, while
        uninfluential ones may stay coarse (Figure 4).  The slope is
        negative, so ``ω`` falls as the partition's maximum rises.
        """
        inf_lo, inf_hi = group.inf_lo, group.inf_hi
        spread = inf_hi - inf_lo
        if spread <= 0:
            return 0.0
        inf_max = float(np.max(partition_influences))
        p = self.params.p_inflection
        denominator = (1.0 - p) * inf_hi - p * inf_lo
        if denominator == 0:
            omega = self.params.tau_max
        else:
            slope = (self.params.tau_min - self.params.tau_max) / denominator
            omega = self.params.tau_min + slope * (inf_max - inf_hi)
            omega = float(np.clip(omega, self.params.tau_min, self.params.tau_max))
        return omega * spread

    def _choose_split(self, node: TreeNode, pool: _Pool, order: np.ndarray,
                      sample: _NodeSample) -> Split | None:
        min_child = max(2, self.params.min_leaf_size // 4)
        # ``max`` over groups of the node error (the Section 6.1.3
        # metric combination).
        current_error = 0.0
        for error in sample.errors:
            if error is not None:
                current_error = max(current_error, error)
        ranges = self._best_range_splits(node, pool, order, sample, min_child)
        best: tuple[Split, float] | None = None
        for attribute, clause in node.clauses.items():
            if isinstance(clause, RangeClause):
                candidate = ranges.get(attribute)
            else:
                candidate = self._best_set_split(
                    attribute, clause, pool, sample, min_child)
            if candidate is not None and (best is None or candidate[1] < best[1]):
                best = candidate
        if best is None or best[1] >= current_error:
            return None
        return best[0]

    def _best_range_splits(self, node: TreeNode, pool: _Pool, order: np.ndarray,
                           sample: _NodeSample, min_child: int,
                           ) -> dict[str, tuple[Split, float]]:
        """The best threshold of every range attribute, scored for all
        attributes and groups by one :func:`grouped_range_split_errors`
        call over the node's presorted lists."""
        if not len(sample.ids) or not pool.range_attrs:
            return {}
        # The node's sample in ascending-id order: group after group,
        # the layout the quantiles and the left counts read.
        pooled = pool.values[:, sample.ids]
        cuts = _quantiles(pooled, pool.quantiles)
        # The node's presorted lists restricted to its sample; each
        # group's first and last entries give the sample's extremes (a
        # NaN sorts last, and then every cut is NaN anyway).
        ranked = order[pool.in_sample[order]].reshape(len(order), -1)
        sizes = np.diff(sample.bounds)
        sizes = sizes[sizes > 0]
        ends = sizes.cumsum()
        rows = np.arange(len(order))[:, None]
        lows = pool.values[rows, ranked[:, ends - sizes]].min(axis=1)
        highs = pool.values[rows, ranked[:, ends - 1]].max(axis=1)
        # ``np.unique`` per attribute: sort, keep the first of each run
        # of equal cuts, then keep cuts strictly inside both the clause
        # and the sampled values (NaN cuts fail every test).
        cuts.sort(axis=1)
        keep = np.ones(cuts.shape, dtype=bool)
        keep[:, 1:] = cuts[:, 1:] != cuts[:, :-1]
        bounds = np.array([(node.clauses[attribute].lo, node.clauses[attribute].hi)
                           for attribute in pool.range_attrs])
        keep &= (cuts > bounds[:, :1]) & (cuts < bounds[:, 1:])
        keep &= (cuts > lows[:, None]) & (cuts <= highs[:, None])
        counts = keep.sum(axis=1)
        searched = np.flatnonzero(counts)
        if not len(searched):
            return {}
        if len(searched) < len(counts):
            pooled, ranked, cuts, keep, counts = (
                pooled[searched], ranked[searched], cuts[searched],
                keep[searched], counts[searched])
        # Each attribute's thresholds, ascending, padded with inf.
        thresholds = np.where(keep, cuts, np.inf)
        thresholds.sort(axis=1)
        sorted_targets = pool.influences[ranked]
        del ranked
        errors, n_left, n_right = grouped_range_split_errors(
            pooled, sorted_targets, sizes, thresholds)
        admissible = ((n_left.sum(axis=1) >= min_child)
                      & (n_right.sum(axis=1) >= min_child)
                      & (np.arange(thresholds.shape[1]) < counts[:, None]))
        scores = np.where(admissible, errors.max(axis=1), np.inf)
        at = scores.argmin(axis=1)
        best: dict[str, tuple[Split, float]] = {}
        for row in np.flatnonzero(admissible.any(axis=1)).tolist():
            attribute = pool.range_attrs[searched[row]]
            best[attribute] = (
                Split(attribute, "range", float(thresholds[row, at[row]])),
                float(scores[row, at[row]]))
        return best

    def _best_set_split(self, attribute: str, clause: SetClause, pool: _Pool,
                        sample: _NodeSample, min_child: int,
                        ) -> tuple[Split, float] | None:
        if len(clause.values) < 2 or not len(sample.ids):
            return None
        codes = pool.codes[attribute][sample.ids]
        counts = np.bincount(codes)
        sums = np.bincount(codes, weights=sample.influences)
        present, first = np.unique(codes, return_index=True)
        seen = np.argsort(first)
        present, first = present[seen], first[seen]
        keys = self._query.table.values(attribute)[pool.rows[sample.ids[first]]]
        node_mean = float(np.mean(sample.influences))
        # One-vs-rest candidates, ordered by how far the value's mean
        # influence sits from the node mean (regression-tree practice for
        # categorical features; frequency ordering would miss a rare but
        # highly influential value like a single failing sensor).  Keys
        # are listed in first-appearance order, so ties keep it.
        ordered = sorted(
            ((value, code) for value, code in zip(keys, present.tolist())
             if value in clause.values),
            key=lambda item: (-abs(sums[item[1]] / counts[item[1]] - node_mean),
                              repr(item[0])),
        )
        best: tuple[Split, float] | None = None
        for value, code in ordered[: self.params.max_split_candidates]:
            # A value unequal to itself (NaN) matches no row.
            n_left = int(counts[code]) if value == value else 0
            if n_left < min_child or len(codes) - n_left < min_child:
                continue
            combined = self._combined_split_error(codes == code, sample)
            if best is None or combined < best[1]:
                best = (Split(attribute, "set", value), combined)
        return best

    def _combined_split_error(self, left: np.ndarray, sample: _NodeSample) -> float:
        """``max`` over groups of the split error of the sampled rows
        ``left`` marks."""
        worst = 0.0
        for lo, hi in zip(sample.bounds[:-1].tolist(), sample.bounds[1:].tolist()):
            if lo < hi:
                worst = max(worst, split_error(sample.influences[lo:hi], left[lo:hi]))
        return worst

    # ------------------------------------------------------------------
    # Applying a split (with Section 6.1.2 stratified re-sampling)
    # ------------------------------------------------------------------
    def _apply_split(self, node: TreeNode, split: Split, pool: _Pool,
                     ids: np.ndarray, order: np.ndarray, groups: list[_GroupData],
                     ) -> tuple[tuple, tuple]:
        """The two children, each with its ids and presorted lists
        (split stably, so they stay sorted)."""
        goes_left = self._goes_left(split, pool, ids)
        ids_left, ids_right = ids[goes_left], ids[~goes_left]
        pool.goes_left[ids] = goes_left
        side = pool.goes_left[order]
        order_left = order[side].reshape(len(order), len(ids_left))
        order_right = order[~side].reshape(len(order), len(ids_right))
        if pool.sampled:
            self._restratify(pool, ids_left, ids_right, groups)
        left, right = node.bisect(split)
        return (left, ids_left, order_left), (right, ids_right, order_right)

    @staticmethod
    def _goes_left(split: Split, pool: _Pool, ids: np.ndarray) -> np.ndarray:
        """:meth:`Split.left_mask` of the rows ``ids``."""
        if split.kind == "range":
            values = pool.values[pool.range_index[split.attribute], ids]
            return values < float(split.value)  # type: ignore[arg-type]
        if split.value != split.value:
            return np.zeros(len(ids), dtype=bool)
        codes = pool.codes[split.attribute][ids]
        return codes == pool.code_of[split.attribute][split.value]

    def _restratify(self, pool: _Pool, ids_left: np.ndarray, ids_right: np.ndarray,
                    groups: list[_GroupData]) -> None:
        """Stratified sampling weighted by the children's total sampled
        influence (Section 6.1.2): children that look influential keep a
        proportionally larger sample, topped up from their unsampled rows."""
        # Per child: the sampled rows' |influence| and the unsampled
        # rows (ascending ids), each with its per-group bounds.
        sides = []
        for ids in (ids_left, ids_right):
            sampled = pool.in_sample[ids]
            picked, unpicked = ids[sampled], ids[~sampled]
            sides.append((np.abs(pool.influences[picked]),
                          np.searchsorted(picked, pool.offsets).tolist(), unpicked,
                          np.searchsorted(unpicked, pool.offsets).tolist()))
        (abs_l, sampled_l, unsampled_l, free_l), \
            (abs_r, sampled_r, unsampled_r, free_r) = sides
        for g, group in enumerate(groups):
            if group.sample_rate >= 1.0:
                continue
            n_sample_l = sampled_l[g + 1] - sampled_l[g]
            n_sample_r = sampled_r[g + 1] - sampled_r[g]
            total_sample = n_sample_l + n_sample_r
            if total_sample == 0:
                continue
            inf_left = (float(abs_l[sampled_l[g]:sampled_l[g + 1]].sum())
                        if n_sample_l else 0.0)
            inf_right = (float(abs_r[sampled_r[g]:sampled_r[g + 1]].sum())
                         if n_sample_r else 0.0)
            total_inf = inf_left + inf_right
            pool_l = unsampled_l[free_l[g]:free_l[g + 1]]
            pool_r = unsampled_r[free_r[g]:free_r[g + 1]]
            if total_inf <= 0:
                n_rows_l = n_sample_l + len(pool_l)
                share_left = n_rows_l / max(n_rows_l + n_sample_r + len(pool_r), 1)
            else:
                share_left = inf_left / total_inf
            target_left = int(round(share_left * total_sample))
            self._top_up(pool, pool_l, n_sample_l, target_left)
            self._top_up(pool, pool_r, n_sample_r, total_sample - target_left)

    def _top_up(self, pool: _Pool, unsampled: np.ndarray, n_sampled: int,
                target: int) -> None:
        """Grow a child's sample of one group, ``n_sampled`` rows, toward
        ``target`` with fresh uniform draws from its ``unsampled`` rows
        (ascending ids; existing samples are never dropped — information
        only accumulates)."""
        extra = min(target - n_sampled, len(unsampled))
        if extra <= 0:
            return
        pool.in_sample[self._rng.choice(unsampled, size=extra, replace=False)] = True

    # ------------------------------------------------------------------
    # Leaf materialization and Section 6.1.4 combination
    # ------------------------------------------------------------------
    @staticmethod
    def _to_partition(node: TreeNode, ids: np.ndarray,
                      sample: _NodeSample) -> _Partition:
        influence_sum = 0.0
        for influences in sample.segments:
            if len(influences):
                influence_sum += float(influences.sum())
        n_sampled = len(sample.ids)
        return _Partition(
            predicate=node.predicate(),
            rows=ids,
            sample=sample.ids,
            mean_influence=influence_sum / n_sampled if n_sampled else 0.0,
        )

    def _combine(self, partitions_o: list[_Partition], partitions_h: list[_Partition],
                 ) -> list[Predicate]:
        """Split outlier partitions along influential hold-out partitions
        so pieces touching hold-out hot-spots become separate candidates."""
        cutters = self._influential_holdout_boxes(partitions_h)
        if not cutters:
            return [p.predicate for p in partitions_o]
        predicates: list[Predicate] = []
        seen: set[Predicate] = set()
        for partition in partitions_o:
            pieces = [partition.predicate]
            intersections: list[Predicate] = []
            for cutter in cutters:
                if len(pieces) + len(intersections) >= self.params.max_pieces_per_partition:
                    break
                next_pieces: list[Predicate] = []
                for piece in pieces:
                    overlap = piece.intersect(cutter)
                    if overlap is None:
                        next_pieces.append(piece)
                        continue
                    next_pieces.extend(piece.subtract(cutter))
                    intersections.append(overlap)
                pieces = next_pieces
            for predicate in pieces + intersections:
                if predicate not in seen:
                    seen.add(predicate)
                    predicates.append(predicate)
        return predicates

    def _influential_holdout_boxes(self, partitions_h: list[_Partition],
                                   ) -> list[Predicate]:
        scored = [(abs(p.mean_influence), p.predicate)
                  for p in partitions_h if len(p.rows)]
        if not scored:
            return []
        scored.sort(key=lambda item: item[0], reverse=True)
        top_influence = scored[0][0]
        if top_influence <= 0:
            return []
        cutoff = top_influence * self.params.holdout_influence_frac
        return [predicate for influence, predicate in
                scored[: self.params.max_holdout_cutters]
                if influence >= cutoff]

    # ------------------------------------------------------------------
    # Candidate construction (stats feed the Section 6.3 merger path)
    # ------------------------------------------------------------------
    def _build_candidates(self, predicates: list[Predicate],
                          outlier_groups: list[_GroupData]) -> list[CandidatePredicate]:
        """Removal statistics and sampled-influence scores for every
        emitted predicate, computed one *group* at a time: each group
        evaluates the whole predicate set as one mask matrix, and counts,
        summed states, and influence sums fall out of vectorized
        contractions against that matrix."""
        if not predicates:
            return []
        n_preds = len(predicates)
        # Chunk the predicate axis so the transient mask matrix and its
        # float copy stay bounded regardless of leaf count × group size.
        chunk_size = self._scorer.batch_chunk
        influence_sums = np.zeros(n_preds, dtype=np.float64)
        influence_counts = np.zeros(n_preds, dtype=np.int64)
        counts_by_group: list[np.ndarray] = []
        states_by_group: list[np.ndarray | None] = []
        for group in outlier_groups:
            evaluator = ArrayMaskEvaluator(group.values)
            counts = np.empty(n_preds, dtype=np.int64)
            states = None
            if group.context.tuple_states is not None:
                states = np.empty(
                    (n_preds, group.context.tuple_states.shape[1]),
                    dtype=np.float64)
            for lo in range(0, n_preds, chunk_size):
                hi = min(lo + chunk_size, n_preds)
                masks = evaluator.evaluate_batch(predicates[lo:hi])
                masks_f = masks.astype(np.float64)
                counts[lo:hi] = np.count_nonzero(masks, axis=1)
                influence_sums[lo:hi] += np.einsum(
                    "mn,n->m", masks_f, group.influences)
                if states is not None:
                    states[lo:hi] = np.einsum(
                        "mn,nk->mk", masks_f, group.context.tuple_states)
            influence_counts += counts
            counts_by_group.append(counts)
            states_by_group.append(states)

        candidates = []
        for p_index, predicate in enumerate(predicates):
            if influence_counts[p_index] == 0:
                continue  # matches no outlier rows; cannot influence O
            stats: dict[tuple, GroupRemovalStats] = {}
            for g_index, group in enumerate(outlier_groups):
                count = int(counts_by_group[g_index][p_index])
                if count == 0:
                    continue
                states = states_by_group[g_index]
                state_sum = None if states is None else states[p_index]
                stats[group.context.key] = GroupRemovalStats(count, state_sum)
            candidates.append(CandidatePredicate(
                predicate=predicate,
                score=float(influence_sums[p_index] / influence_counts[p_index]),
                group_stats=stats,
            ))
        return candidates
