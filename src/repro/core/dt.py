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

Leaf scoring is batched: all leaf/combined predicates are evaluated per
group as chunked mask matrices (:meth:`ArrayMaskEvaluator.evaluate_batch`)
and their removal statistics and sampled-influence scores come from two
``einsum`` contractions per chunk.  Exact influence scoring of the
candidates happens downstream — the Merger batch-scores its expansion
starts through :meth:`InfluenceScorer.score_batch`; single-clause leaf
ranges are declared to the Scorer's prefix-aggregate index first so
that scoring takes the O(log n) fast path.  Those batches (and the
Merger's per-round adoption verifications) shard across worker
processes when the scorer's ``workers`` knob is set, with no changes
here (see :mod:`repro.parallel`).
"""

from __future__ import annotations

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
from repro.tree.splits import Split, node_error, range_split_errors, split_error


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


@dataclass
class _NodeGroup:
    """One group's rows inside one tree node."""

    rows: np.ndarray      # positions within the group (0 .. n_g-1)
    sample: np.ndarray    # sampled subset of ``rows``


@dataclass
class _Partition:
    """A leaf of the synchronized tree, with per-group row sets."""

    predicate: Predicate
    node_groups: list[_NodeGroup]
    mean_influence: float = 0.0
    total_rows: int = 0


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
        return np.sort(self._rng.choice(rows, size=size, replace=False))

    # ------------------------------------------------------------------
    # Synchronized recursive partitioning (Sections 6.1.1 + 6.1.3)
    # ------------------------------------------------------------------
    def _root_clauses(self) -> dict[str, Clause]:
        return {a.name: a.full_clause() for a in self._query.domain}

    def _partition(self, groups: list[_GroupData]) -> list[_Partition]:
        root = TreeNode(
            self._root_clauses(),
            depth=0,
            payload=[_NodeGroup(rows=np.arange(g.size, dtype=np.int64),
                                sample=self._initial_sample(g))
                     for g in groups],
        )
        leaves: list[_Partition] = []
        stack = [root]
        while stack:
            node = stack.pop()
            budget_left = self.params.max_leaves - (len(leaves) + len(stack))
            if budget_left <= 1 or self._should_stop(node, groups):
                leaves.append(self._to_partition(node, groups))
                continue
            split = self._choose_split(node, groups)
            if split is None:
                leaves.append(self._to_partition(node, groups))
                continue
            left, right = self._apply_split(node, split, groups)
            stack.append(left)
            stack.append(right)
        return leaves

    def _should_stop(self, node: TreeNode, groups: list[_GroupData]) -> bool:
        if node.depth >= self.params.max_depth:
            return True
        node_groups: list[_NodeGroup] = node.payload
        total_sample = sum(len(ng.sample) for ng in node_groups)
        if total_sample < self.params.min_leaf_size:
            return True
        if self._early_prunable(node_groups, groups):
            return True
        for group, ng in zip(groups, node_groups):
            if len(ng.sample) < 2:
                continue
            influences = group.influences[ng.sample]
            if node_error(influences) > self._threshold(group, influences):
                return False
        return True

    def _early_prunable(self, node_groups: list[_NodeGroup],
                        groups: list[_GroupData]) -> bool:
        """Whether the node is uninfluential in *every* group (so further
        splitting would only model noise)."""
        fraction = self.params.early_prune_fraction
        if fraction <= 0.0:
            return False
        for group, ng in zip(groups, node_groups):
            if not len(ng.sample) or group.inf_hi <= 0:
                continue
            if float(np.max(group.influences[ng.sample])) >= fraction * group.inf_hi:
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

    def _choose_split(self, node: TreeNode, groups: list[_GroupData],
                      ) -> Split | None:
        node_groups: list[_NodeGroup] = node.payload
        min_child = max(2, self.params.min_leaf_size // 4)
        current_error = self._combined_node_error(node, groups)
        best: tuple[Split, float] | None = None
        for attribute, clause in node.clauses.items():
            if isinstance(clause, RangeClause):
                candidate = self._best_range_split(
                    attribute, clause, node_groups, groups, min_child)
            else:
                candidate = self._best_set_split(
                    attribute, clause, node_groups, groups, min_child)
            if candidate is not None and (best is None or candidate[1] < best[1]):
                best = candidate
        if best is None or best[1] >= current_error:
            return None
        return best[0]

    def _best_range_split(self, attribute: str, clause: RangeClause,
                          node_groups: list[_NodeGroup], groups: list[_GroupData],
                          min_child: int) -> tuple[Split, float] | None:
        pooled = [group.values[attribute][ng.sample]
                  for group, ng in zip(groups, node_groups) if len(ng.sample)]
        if not pooled:
            return None
        values = np.concatenate(pooled)
        quantiles = np.linspace(0.0, 1.0, self.params.max_split_candidates + 2)[1:-1]
        thresholds = np.unique(np.quantile(values, quantiles))
        thresholds = thresholds[(thresholds > clause.lo) & (thresholds < clause.hi)]
        lo, hi = float(np.min(values)), float(np.max(values))
        thresholds = thresholds[(thresholds > lo) & (thresholds <= hi)]
        if not len(thresholds):
            return None
        combined = np.zeros(len(thresholds))
        total_left = np.zeros(len(thresholds), dtype=np.int64)
        total_right = np.zeros(len(thresholds), dtype=np.int64)
        for group, ng in zip(groups, node_groups):
            if not len(ng.sample):
                continue
            errors, n_left, n_right = range_split_errors(
                group.values[attribute][ng.sample],
                group.influences[ng.sample],
                thresholds,
            )
            combined = np.maximum(combined, errors)
            total_left += n_left
            total_right += n_right
        admissible = (total_left >= min_child) & (total_right >= min_child)
        if not np.any(admissible):
            return None
        combined = np.where(admissible, combined, np.inf)
        index = int(np.argmin(combined))
        return Split(attribute, "range", float(thresholds[index])), float(combined[index])

    def _best_set_split(self, attribute: str, clause: SetClause,
                        node_groups: list[_NodeGroup], groups: list[_GroupData],
                        min_child: int) -> tuple[Split, float] | None:
        if len(clause.values) < 2:
            return None
        pooled_values = []
        pooled_influences = []
        for group, ng in zip(groups, node_groups):
            if len(ng.sample):
                pooled_values.append(group.values[attribute][ng.sample])
                pooled_influences.append(group.influences[ng.sample])
        if not pooled_values:
            return None
        values = np.concatenate(pooled_values)
        influences = np.concatenate(pooled_influences)
        # One-vs-rest candidates, ordered by how far the value's mean
        # influence sits from the node mean (regression-tree practice for
        # categorical features; frequency ordering would miss a rare but
        # highly influential value like a single failing sensor).
        sums: dict = {}
        counts: dict = {}
        for value, influence in zip(values, influences):
            sums[value] = sums.get(value, 0.0) + influence
            counts[value] = counts.get(value, 0) + 1
        node_mean = float(np.mean(influences))
        ordered = sorted(
            (v for v in counts if v in clause.values),
            key=lambda v: (-abs(sums[v] / counts[v] - node_mean), repr(v)),
        )
        best: tuple[Split, float] | None = None
        for value in ordered[: self.params.max_split_candidates]:
            split = Split(attribute, "set", value)
            combined, n_left, n_right = self._combined_split_error(
                split, node_groups, groups)
            if n_left < min_child or n_right < min_child:
                continue
            if best is None or combined < best[1]:
                best = (split, combined)
        return best

    def _combined_node_error(self, node: TreeNode, groups: list[_GroupData]) -> float:
        """``max`` over groups of the node's sample-influence error
        (the Section 6.1.3 metric combination)."""
        worst = 0.0
        for group, ng in zip(groups, node.payload):
            if len(ng.sample) >= 2:
                worst = max(worst, node_error(group.influences[ng.sample]))
        return worst

    def _combined_split_error(self, split: Split, node_groups: list[_NodeGroup],
                              groups: list[_GroupData]) -> tuple[float, int, int]:
        worst = 0.0
        n_left = 0
        n_right = 0
        for group, ng in zip(groups, node_groups):
            if not len(ng.sample):
                continue
            values = group.values[split.attribute][ng.sample]
            left = split.left_mask(values)
            count = int(np.count_nonzero(left))
            n_left += count
            n_right += len(values) - count
            worst = max(worst, split_error(group.influences[ng.sample], left))
        return worst, n_left, n_right

    # ------------------------------------------------------------------
    # Applying a split (with Section 6.1.2 stratified re-sampling)
    # ------------------------------------------------------------------
    def _apply_split(self, node: TreeNode, split: Split, groups: list[_GroupData],
                     ) -> tuple[TreeNode, TreeNode]:
        left_payload: list[_NodeGroup] = []
        right_payload: list[_NodeGroup] = []
        for group, ng in zip(groups, node.payload):
            full_values = group.values[split.attribute][ng.rows]
            left_mask = split.left_mask(full_values)
            rows_left = ng.rows[left_mask]
            rows_right = ng.rows[~left_mask]
            sample_values = group.values[split.attribute][ng.sample]
            sample_left_mask = split.left_mask(sample_values)
            sample_left = ng.sample[sample_left_mask]
            sample_right = ng.sample[~sample_left_mask]
            new_left, new_right = self._restratify(
                group, ng, rows_left, rows_right, sample_left, sample_right)
            left_payload.append(_NodeGroup(rows_left, new_left))
            right_payload.append(_NodeGroup(rows_right, new_right))
        return node.bisect(split, left_payload, right_payload)

    def _restratify(self, group: _GroupData, parent: _NodeGroup,
                    rows_left: np.ndarray, rows_right: np.ndarray,
                    sample_left: np.ndarray, sample_right: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Stratified sampling weighted by the children's total sampled
        influence (Section 6.1.2): children that look influential keep a
        proportionally larger sample, topped up from their unsampled rows."""
        if not self.params.sampling or group.sample_rate >= 1.0:
            return sample_left, sample_right
        total_sample = len(parent.sample)
        if total_sample == 0:
            return sample_left, sample_right
        inf_left = float(np.sum(np.abs(group.influences[sample_left]))) if len(sample_left) else 0.0
        inf_right = float(np.sum(np.abs(group.influences[sample_right]))) if len(sample_right) else 0.0
        total_inf = inf_left + inf_right
        if total_inf <= 0:
            share_left = len(rows_left) / max(len(rows_left) + len(rows_right), 1)
        else:
            share_left = inf_left / total_inf
        target_left = int(round(share_left * total_sample))
        target_right = total_sample - target_left
        new_left = self._top_up(rows_left, sample_left, target_left)
        new_right = self._top_up(rows_right, sample_right, target_right)
        return new_left, new_right

    def _top_up(self, rows: np.ndarray, sample: np.ndarray, target: int) -> np.ndarray:
        """Grow ``sample`` toward ``target`` with fresh uniform draws from
        the child's unsampled rows (existing samples are never dropped —
        information only accumulates)."""
        if target <= len(sample) or len(rows) <= len(sample):
            return sample
        pool = np.setdiff1d(rows, sample, assume_unique=False)
        extra = min(target - len(sample), len(pool))
        if extra <= 0:
            return sample
        drawn = self._rng.choice(pool, size=extra, replace=False)
        return np.sort(np.concatenate([sample, drawn]))

    # ------------------------------------------------------------------
    # Leaf materialization and Section 6.1.4 combination
    # ------------------------------------------------------------------
    def _to_partition(self, node: TreeNode, groups: list[_GroupData]) -> _Partition:
        node_groups: list[_NodeGroup] = node.payload
        influence_sum = 0.0
        influence_n = 0
        total_rows = 0
        for group, ng in zip(groups, node_groups):
            total_rows += len(ng.rows)
            if len(ng.sample):
                influence_sum += float(np.sum(group.influences[ng.sample]))
                influence_n += len(ng.sample)
        mean_influence = influence_sum / influence_n if influence_n else 0.0
        return _Partition(
            predicate=node.predicate(),
            node_groups=node_groups,
            mean_influence=mean_influence,
            total_rows=total_rows,
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
                  for p in partitions_h if p.total_rows > 0]
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
                volume=self._query.domain.volume_fraction(predicate),
            ))
        return candidates
