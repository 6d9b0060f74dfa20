"""Differential oracle for DT's split search.

:class:`ReferenceDT` is a frozen copy of the recursion DT ran before its
split search moved onto presorted columns: per-group node payloads, one
:func:`range_split_errors` call per (node, attribute, group), a per-row
dict loop for set splits and ``setdiff1d`` top-ups.  The property below
runs it and :class:`DTPartitioner` on random small problems and requires
the same leaves, candidates and random-generator state, bit for bit.
The kernel properties pin the pieces the fused search is built from
against the per-group primitives they replace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import Avg, Sum
from repro.core.dt import DTPartitioner, _GroupData, _Partition, _Pool, _quantiles
from repro.core.influence import InfluenceScorer
from repro.core.problem import ScorpionQuery
from repro.predicates.clause import RangeClause, SetClause
from repro.query.groupby import GroupByQuery
from repro.table import ColumnKind, ColumnSpec, Schema, Table
from repro.table.column import Column
from repro.tree.node import TreeNode
from repro.tree.splits import (
    Split,
    grouped_range_split_errors,
    node_error,
    range_split_errors,
    split_error,
)

from tests.test_dt import avg_problem
from tests.test_explain_golden import golden_problem


@dataclass
class _RefNodeGroup:
    """One group's rows inside one tree node."""

    rows: np.ndarray      # positions within the group (0 .. n_g-1)
    sample: np.ndarray    # sampled subset of ``rows``


class ReferenceDT(DTPartitioner):
    """DT with the per-group recursion that the presorted split search
    reproduces.  Leaves are converted to pooled ids at the end so the
    rest of :meth:`DTPartitioner.run` consumes them unchanged."""

    def _initial_sample(self, group):
        rows = np.arange(group.size, dtype=np.int64)
        if group.sample_rate >= 1.0:
            return rows
        size = max(int(round(group.sample_rate * group.size)), 1)
        return np.sort(self._rng.choice(rows, size=size, replace=False))

    def _partition(self, groups):
        root = TreeNode(
            self._root_clauses(),
            depth=0,
            payload=[_RefNodeGroup(rows=np.arange(g.size, dtype=np.int64),
                                   sample=self._initial_sample(g))
                     for g in groups],
        )
        leaves = []
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

    def _should_stop(self, node, groups):
        if node.depth >= self.params.max_depth:
            return True
        node_groups = node.payload
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

    def _early_prunable(self, node_groups, groups):
        fraction = self.params.early_prune_fraction
        if fraction <= 0.0:
            return False
        for group, ng in zip(groups, node_groups):
            if not len(ng.sample) or group.inf_hi <= 0:
                continue
            if float(np.max(group.influences[ng.sample])) >= fraction * group.inf_hi:
                return False
        return True

    def _choose_split(self, node, groups):
        node_groups = node.payload
        min_child = max(2, self.params.min_leaf_size // 4)
        current_error = self._combined_node_error(node, groups)
        best = None
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

    def _best_range_split(self, attribute, clause, node_groups, groups, min_child):
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

    def _best_set_split(self, attribute, clause, node_groups, groups, min_child):
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
        best = None
        for value in ordered[: self.params.max_split_candidates]:
            split = Split(attribute, "set", value)
            combined, n_left, n_right = self._combined_split_error(
                split, node_groups, groups)
            if n_left < min_child or n_right < min_child:
                continue
            if best is None or combined < best[1]:
                best = (split, combined)
        return best

    def _combined_node_error(self, node, groups):
        worst = 0.0
        for group, ng in zip(groups, node.payload):
            if len(ng.sample) >= 2:
                worst = max(worst, node_error(group.influences[ng.sample]))
        return worst

    def _combined_split_error(self, split, node_groups, groups):
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

    def _apply_split(self, node, split, groups):
        left_payload = []
        right_payload = []
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
            left_payload.append(_RefNodeGroup(rows_left, new_left))
            right_payload.append(_RefNodeGroup(rows_right, new_right))
        return node.bisect(split, left_payload, right_payload)

    def _restratify(self, group, parent, rows_left, rows_right,
                    sample_left, sample_right):
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

    def _top_up(self, rows, sample, target):
        if target <= len(sample) or len(rows) <= len(sample):
            return sample
        pool = np.setdiff1d(rows, sample, assume_unique=False)
        extra = min(target - len(sample), len(pool))
        if extra <= 0:
            return sample
        drawn = self._rng.choice(pool, size=extra, replace=False)
        return np.sort(np.concatenate([sample, drawn]))

    def _to_partition(self, node, groups):
        """The leaf, with its per-group rows and samples as pooled ids
        (row ``r`` of group ``g`` is ``offset_g + r``)."""
        offsets = np.cumsum([0] + [g.size for g in groups])
        influence_sum = 0.0
        influence_n = 0
        for group, ng in zip(groups, node.payload):
            if len(ng.sample):
                influence_sum += float(np.sum(group.influences[ng.sample]))
                influence_n += len(ng.sample)
        pooled = [np.concatenate([np.empty(0, dtype=np.int64)] + [
            offset + getattr(ng, part) for offset, ng in zip(offsets, node.payload)])
            for part in ("rows", "sample")]
        return _Partition(
            predicate=node.predicate(),
            rows=pooled[0],
            sample=pooled[1],
            mean_influence=influence_sum / influence_n if influence_n else 0.0,
        )


# ----------------------------------------------------------------------
# Random small problems
# ----------------------------------------------------------------------
@st.composite
def dt_problems(draw):
    """A small GROUP BY problem: 1-3 outlier and 0-2 hold-out groups of
    1-80 rows, continuous attributes with few or many distinct values,
    discrete attributes (the first sometimes holding None or distinct
    NaN objects), and a planted hot region in the outlier groups."""
    n_outliers = draw(st.integers(1, 3))
    n_holdouts = draw(st.integers(0, 2))
    sizes = draw(st.lists(st.integers(1, 80), min_size=n_outliers + n_holdouts,
                          max_size=n_outliers + n_holdouts))
    levels = draw(st.lists(st.sampled_from([2, 5, 1000]), min_size=0, max_size=2))
    cardinalities = draw(st.lists(st.integers(1, 4),
                                  min_size=0 if levels else 1, max_size=2))
    nulls = draw(st.sampled_from([None, "none", "nan"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = [f"g{i}" for i in range(len(sizes))]
    n = sum(sizes)
    columns = {"g": np.repeat(names, sizes).astype(object)}
    specs = [ColumnSpec("g", ColumnKind.DISCRETE)]
    for i, count in enumerate(levels):
        columns[f"x{i}"] = np.round(rng.uniform(0, 10, n) * count / 10) * (10 / count)
        specs.append(ColumnSpec(f"x{i}", ColumnKind.CONTINUOUS))
    for i, cardinality in enumerate(cardinalities):
        column = np.asarray(list("abcd"[:cardinality]), dtype=object)[
            rng.integers(0, cardinality, n)]
        if nulls and i == 0:
            for row in np.flatnonzero(rng.random(n) < 0.2):
                column[row] = None if nulls == "none" else float("nan")
        columns[f"s{i}"] = column
        specs.append(ColumnSpec(f"s{i}", ColumnKind.DISCRETE))
    value = rng.normal(10.0, 1.0, n)
    key = columns[specs[1].name]
    hot = np.isin(columns["g"], names[:n_outliers]) & (
        (key > 5) if key.dtype.kind == "f" else (key == "a"))
    value[hot] += draw(st.sampled_from([0.0, 50.0, 50.0, 50.0]))
    columns["v"] = value
    specs.append(ColumnSpec("v", ColumnKind.CONTINUOUS))
    table = Table.from_columns(Schema(specs), columns)
    aggregate = draw(st.sampled_from([Avg, Sum]))()
    return ScorpionQuery(table, GroupByQuery("g", aggregate, "v"),
                         outliers=names[:n_outliers],
                         holdouts=names[n_outliers:],
                         error_vectors=+1.0, c=0.5)


dt_params = st.fixed_dictionaries({
    "seed": st.integers(0, 1000),
    "min_leaf_size": st.integers(1, 12),
    "max_leaves": st.integers(1, 40),
    "max_depth": st.integers(0, 12),
    "max_split_candidates": st.integers(1, 8),
    "sampling": st.booleans(),
    # Larger epsilons and small floors make groups of a few dozen rows
    # sample, so stratified top-ups run; a low tau_max splits more.
    "epsilon": st.sampled_from([0.005, 0.1, 0.3]),
    "min_sample_size": st.sampled_from([1, 5, 50]),
    "tau_max": st.sampled_from([0.3, 0.05]),
    "early_prune_fraction": st.sampled_from([0.0, 0.5]),
})


def _candidate_signature(result):
    out = []
    for candidate in result.candidates:
        stats = {}
        for key, entry in (candidate.group_stats or {}).items():
            state = (None if entry.state_sum is None
                     else [float(x).hex() for x in entry.state_sum])
            stats[key] = (entry.count, state)
        out.append((str(candidate.predicate), float(candidate.score).hex(), stats))
    return out


def _leaf_signature(partitions):
    return [(str(p.predicate), p.rows.tolist(), p.sample.tolist(),
             float(p.mean_influence).hex()) for p in partitions]


def _run_partition(partitioner, problem, contexts):
    scorer = InfluenceScorer(problem)
    partitioner._query = problem
    partitioner._scorer = scorer
    partitioner._rng = np.random.default_rng(partitioner.params.seed)
    groups = [partitioner._prepare_group(scorer, ctx)
              for ctx in getattr(scorer, contexts)]
    return partitioner._partition(groups)


def _assert_matches_reference(problem, params):
    reference, presorted = ReferenceDT(**params), DTPartitioner(**params)
    for contexts in ("outlier_contexts", "holdout_contexts"):
        expected = _run_partition(reference, problem, contexts)
        actual = _run_partition(presorted, problem, contexts)
        assert _leaf_signature(actual) == _leaf_signature(expected)
        assert presorted._rng.bit_generator.state == reference._rng.bit_generator.state
    expected = reference.run(problem, InfluenceScorer(problem))
    actual = presorted.run(problem, InfluenceScorer(problem))
    assert _candidate_signature(actual) == _candidate_signature(expected)
    assert presorted._rng.bit_generator.state == reference._rng.bit_generator.state


class TestReferenceOracle:
    @settings(max_examples=150, deadline=None)
    @given(problem=dt_problems(), params=dt_params)
    def test_matches_reference_recursion(self, problem, params):
        _assert_matches_reference(problem, params)

    @pytest.mark.parametrize("params", [
        {}, {"sampling": False, "max_leaves": 32}, {"seed": 5, "min_leaf_size": 8},
        # Groups of 300 rows sample at this epsilon, so top-ups run.
        {"epsilon": 0.05}, {"epsilon": 0.05, "seed": 3, "early_prune_fraction": 0.3},
    ])
    @pytest.mark.parametrize("problem", ["avg", "avg-no-holdouts", "golden"])
    def test_matches_reference_on_fixed_problems(self, problem, params):
        make = {"avg": avg_problem,
                "avg-no-holdouts": lambda: avg_problem(with_holdouts=False),
                "golden": golden_problem}[problem]
        _assert_matches_reference(make(), params)



# ----------------------------------------------------------------------
# Kernel properties
# ----------------------------------------------------------------------
_edge_values = st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, np.inf, -np.inf, np.nan,
                                -np.nan])


def _float_rows(draw, n_rows, n, allow_nan):
    elements = st.one_of(_edge_values, st.floats(-5, 5, allow_nan=False))
    if not allow_nan:
        elements = elements.filter(lambda x: not np.isnan(x))
    return np.asarray(draw(st.lists(st.lists(elements, min_size=n, max_size=n),
                                    min_size=n_rows, max_size=n_rows)),
                      dtype=np.float64).reshape(n_rows, n)


class TestKernels:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_grouped_search_matches_per_group_reference(self, data):
        n_rows = data.draw(st.integers(1, 3))
        sizes = np.asarray(data.draw(st.lists(st.integers(1, 12), min_size=1,
                                              max_size=4)))
        n = int(sizes.sum())
        values = _float_rows(data.draw, n_rows, n, allow_nan=True)
        # DT's targets are influences, which are always finite.
        targets = np.asarray(data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e3, 1e3)),
            min_size=n, max_size=n)), dtype=np.float64)
        n_thresholds = data.draw(st.integers(1, 5))
        thresholds = np.full((n_rows, n_thresholds), np.inf)
        counts = []
        for row in range(n_rows):
            drawn = np.unique(_float_rows(data.draw, 1, n_thresholds,
                                          allow_nan=False)[0])
            thresholds[row, :len(drawn)] = drawn
            counts.append(len(drawn))
        # Presort each row by (group, value, row), as DT's root does.
        segment = np.repeat(np.arange(len(sizes)), sizes)
        order = np.stack([np.lexsort((v, segment)) for v in values])
        errors, n_left, n_right = grouped_range_split_errors(
            values, targets[order], sizes, thresholds)
        starts = np.cumsum(sizes) - sizes
        for row in range(n_rows):
            for g, (start, size) in enumerate(zip(starts, sizes)):
                rows = slice(start, start + size)
                # The root sort restricted to a group is the stable
                # argsort of that group's values.
                np.testing.assert_array_equal(
                    order[row][rows] - start,
                    np.argsort(values[row][rows], kind="stable"))
                want = range_split_errors(values[row][rows], targets[rows],
                                          thresholds[row, :counts[row]])
                got = (errors[row, g, :counts[row]], n_left[row, g, :counts[row]],
                       n_right[row, g, :counts[row]])
                for g_arr, w_arr in zip(got, want):
                    assert np.asarray(g_arr).tobytes() == np.asarray(w_arr).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fused_quantiles_match_per_row(self, data):
        # Zeros of both signs, NaN and infinities included: the sorted
        # order statistics must interpolate exactly as np.quantile does.
        n_rows = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 30))
        values = _float_rows(data.draw, n_rows, n, allow_nan=True)
        k = data.draw(st.integers(1, 8))
        quantiles = np.linspace(0.0, 1.0, k + 2)[1:-1]
        with np.errstate(invalid="ignore"):
            fused = _quantiles(values, quantiles)
            for row in range(n_rows):
                single = np.quantile(values[row], quantiles)
                if np.isnan(values[row]).any():
                    # NaN throughout; np.sort may canonicalize NaN bits.
                    assert np.isnan(fused[row]).all() and np.isnan(single).all()
                else:
                    assert fused[row].tobytes() == single.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_code_sums_match_dict_loop(self, data):
        nan_a, nan_b = float("nan"), float("nan")
        pool = [1, 1.0, True, "a", None, nan_a, nan_b, 2]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                                   max_size=40))
        items = np.empty(len(picks), dtype=object)
        for i, pick in enumerate(picks):
            items[i] = pool[pick]
        influences = np.asarray(data.draw(st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=len(picks),
            max_size=len(picks))))
        codes, code_of = Column(ColumnSpec("s", ColumnKind.DISCRETE), items).codes()
        sums = np.bincount(codes, weights=influences)
        counts = np.bincount(codes)
        loop_sums: dict = {}
        loop_counts: dict = {}
        for item, influence in zip(items, influences):
            loop_sums[item] = loop_sums.get(item, 0.0) + influence
            loop_counts[item] = loop_counts.get(item, 0) + 1
        assert len(loop_sums) == len(code_of)
        for item, total in loop_sums.items():
            code = code_of[item]
            assert float(sums[code]).hex() == float(total).hex()
            assert counts[code] == loop_counts[item]


class TestSetSplitMasks:
    @pytest.mark.parametrize("value", ["a", 1, None, float("nan")])
    def test_code_mask_matches_left_mask(self, value):
        # DT applies a set split through column codes; the rows it sends
        # left are the ones Split.left_mask selects (a NaN value matches
        # nothing, not even itself).
        nan = value if isinstance(value, float) else float("nan")
        items = np.empty(7, dtype=object)
        for i, item in enumerate(["a", 1, 1.0, None, nan, "b", True]):
            items[i] = item
        table = Table.from_columns(
            Schema([ColumnSpec("g", ColumnKind.DISCRETE),
                    ColumnSpec("s", ColumnKind.DISCRETE),
                    ColumnSpec("v", ColumnKind.CONTINUOUS)]),
            {"g": ["x"] * 7, "s": items, "v": np.ones(7)})
        problem = ScorpionQuery(table, GroupByQuery("g", Sum(), "v"),
                                outliers=["x"], attributes=["s"])
        dt = DTPartitioner()
        dt._query = problem
        group = _GroupData(context=InfluenceScorer(problem).outlier_contexts[0],
                           values={}, influences=np.zeros(7))
        pool = _Pool(problem.table, [group], {"s": SetClause("s", list(set(items)))},
                     quantiles=np.asarray([0.5]))
        split = Split("s", "set", value)
        np.testing.assert_array_equal(
            dt._goes_left(split, pool, np.arange(7)),
            split.left_mask(problem.table.values("s")))
