"""Prefix-aggregate index vs mask-matrix scoring (the index tentpole).

Single-clause ranges, single set clauses, and 2-clause conjunctions are
the hot shapes of NAIVE's enumeration, MC's level-1 cells, DT leaves,
and Merger expansions.  This bench scores identical batches three ways
— scalar ``score()``, the batch mask-matrix kernel (``use_index=False``),
and the planner-routed index path — across group sizes and on every
index tier:

* *gather tier* — single ranges over float aggregate values (SUM over
  SYNTH's float column), removed states gathered from the sorted slice
  in ascending row order;
* *prefix tier* — single ranges over integer aggregate values (SUM over
  an integer copy of SYNTH), removed states as O(1) exact prefix-sum
  differences;
* *bucket tier* — single set clauses over a discrete attribute with
  integer aggregate values, removed states as exact per-bucket sums
  (``bucket-gather`` is the same shape on float values);
* *conjunction tier* — 2-clause range×set conjunctions, the rarer
  clause's slice/buckets probed and mask-tested.

All three result vectors must match exactly (the equivalence contract;
always asserted), and the routed tier is checked through the
``scorer_stats`` counters.  Routing prices from the shipped
:data:`~repro.index.DEFAULT_CONSTANTS`, so the counters below are
reproducible anywhere; on the
conjunction batch the cost model legitimately splits the batch —
narrow probes take the conjunction tier, unselective ones the mask
kernel — so that case asserts the split, not full-tier routing.

The wall-clock expectation — the acceptance bars of the index PRs — is
that at ≥2000 tuples/group the index path beats the mask-matrix path
outright on every tier, by ≥2× on the discrete bucket tier, and that
cost-routed conjunctions never lose to the plain mask kernel
(≥ 1.0×) at *any* group size, 500 tuples/group included — the shape
the old ``PROBE_FRACTION_CAP`` heuristic used to misroute.  Timing is
min-of-2 per path to damp scheduler noise.  Timing assertions are
skipped when ``SCORPION_BENCH_PERF_ASSERT=0`` (CI smoke runs keep only
the equality checks).
"""

import os
import time

import numpy as np

from repro.aggregates import Sum
from repro.core.influence import InfluenceScorer
from repro.core.problem import ScorpionQuery
from repro.eval import format_table
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate
from repro.query.groupby import GroupByQuery
from repro.table.schema import ColumnKind, ColumnSpec, Schema
from repro.table.table import Table

from benchmarks.conftest import (
    SCALE,
    emit_bench_json,
    emit_report,
    run_once,
    synth_dataset,
)

BATCH_SIZE = 2048 if SCALE == "paper" else 1024
GROUP_SIZES = (500, 2000, 5000) if SCALE == "paper" else (500, 2000)
#: Group sizes where the index path must beat the mask-matrix path
#: outright (the ISSUE 3 acceptance bar: ≥2000 tuples/group).
ASSERT_GROUP_SIZES = tuple(g for g in GROUP_SIZES if g >= 2000)
#: The ISSUE 5 acceptance bar: the discrete bucket tier must beat the
#: mask kernel by this factor at ≥2000 tuples/group.
BUCKET_SPEEDUP_BAR = 2.0
#: Distinct values of the bench's discrete attribute.
DISCRETE_CARDINALITY = 24
#: Scalar scoring is O(batch · labeled rows); cap its share of the bench.
SCALAR_BATCH_CAP = 256


def _range_batch(n: int, attribute: str = "a1"):
    """Single-clause ranges over one attribute with mixed selectivity
    (narrow cells through near-whole-domain spans)."""
    rng = np.random.default_rng(11)
    batch = []
    for i in range(n):
        lo = rng.uniform(0.0, 95.0)
        width = rng.uniform(2.0, 40.0) if i % 4 else rng.uniform(40.0, 100.0)
        batch.append(Predicate([
            RangeClause(attribute, lo, lo + width, include_hi=bool(i % 2))]))
    return batch


def _set_batch(n: int, attribute: str = "ac"):
    """Single set clauses with 1–4 wanted values (NAIVE's discrete
    enumeration shape), occasionally naming an absent value."""
    rng = np.random.default_rng(13)
    codes = [f"c{i}" for i in range(DISCRETE_CARDINALITY)] + ["absent"]
    batch = []
    for i in range(n):
        size = 1 + i % 4
        batch.append(Predicate([
            SetClause(attribute, rng.choice(codes, size=size, replace=False))]))
    return batch


def _conj_batch(n: int):
    """2-clause range×set conjunctions with selectivity mixed so either
    side ends up the rarer (probe) one."""
    rng = np.random.default_rng(17)
    codes = [f"c{i}" for i in range(DISCRETE_CARDINALITY)]
    batch = []
    for i in range(n):
        lo = rng.uniform(0.0, 90.0)
        if i % 2:
            # Wide range, quarter-domain set: the set side probes.
            width = rng.uniform(40.0, 100.0)
            size = DISCRETE_CARDINALITY // 4
        else:
            # Narrow range, small-to-medium set: the range side probes.
            width = rng.uniform(2.0, 25.0)
            size = 1 + i % 3
        batch.append(Predicate([
            RangeClause("a1", lo, lo + width),
            SetClause("ac", rng.choice(codes, size=size, replace=False)),
        ]))
    return batch


def _discrete_problem(tuples_per_group: int, *, integer_values: bool,
                      seed: int = 0) -> ScorpionQuery:
    """A 10-group SUM workload with one continuous and one discrete
    explanation attribute (SYNTH has no discrete ``A_rest``, so the
    discrete/conjunction tiers get their own planted table)."""
    rng = np.random.default_rng(seed)
    groups = [f"g{i}" for i in range(10)]
    n = tuples_per_group * len(groups)
    g = np.repeat(groups, tuples_per_group)
    a1 = rng.uniform(0.0, 100.0, n)
    ac = rng.choice([f"c{i}" for i in range(DISCRETE_CARDINALITY)], n)
    if integer_values:
        av = rng.integers(1, 50, n).astype(np.float64)
    else:
        av = np.abs(rng.normal(10.0, 5.0, n)) + 0.25
    hot = (np.isin(g, groups[:5]) & (ac == "c0") & (a1 >= 40) & (a1 <= 60))
    av[hot] += 40.0 if integer_values else 40.5
    schema = Schema([
        ColumnSpec("g", ColumnKind.DISCRETE),
        ColumnSpec("a1", ColumnKind.CONTINUOUS),
        ColumnSpec("ac", ColumnKind.DISCRETE),
        ColumnSpec("av", ColumnKind.CONTINUOUS),
    ])
    table = Table.from_columns(schema, {"g": g, "a1": a1, "ac": ac, "av": av})
    return ScorpionQuery(table, GroupByQuery("g", Sum(), "av"),
                         outliers=groups[:5], holdouts=groups[5:],
                         error_vectors=+1.0, c=0.5)


def _integer_sum_problem(problem: ScorpionQuery) -> ScorpionQuery:
    """The same SYNTH table with the aggregate column (``av``) rounded
    to integers and re-aggregated under SUM — integer-summable states,
    so every group index lands on the O(1) prefix tier."""
    table = problem.raw_table
    data = {name: np.asarray(table.values(name)).copy()
            for name in table.schema.names}
    data["av"] = np.floor(np.abs(data["av"])) + 1.0
    rows = list(zip(*(data[name] for name in table.schema.names)))
    rounded = Table.from_rows(table.schema, rows)
    return ScorpionQuery(
        rounded, GroupByQuery("ad", Sum(), "av"),
        outliers=problem.outlier_keys, holdouts=problem.holdout_keys,
        error_vectors=+1.0, c=problem.c,
    )


def _timed_batch(scorer, batch, reps: int = 2):
    """Score ``batch`` ``reps`` times, returning the values and the
    best wall-clock (stats reset between reps, so counters afterwards
    reflect exactly one pass)."""
    best, values = float("inf"), None
    for _ in range(reps):
        scorer.stats.reset()
        started = time.perf_counter()
        values = scorer.score_batch(batch)
        best = min(best, time.perf_counter() - started)
    return values, best


def _time_paths(problem, batch, tier: str, prepare=("a1",),
                routing_counter: str = "indexed_ranges",
                mixed_routing: bool = False):
    """Score one batch through all three paths; returns the report row,
    the json row, and the index-vs-mask speedup.  ``routing_counter``
    names the ``scorer_stats`` tier counter every unique predicate of
    the batch must land in; with ``mixed_routing`` the cost model is
    instead expected to split the batch between that tier and the mask
    kernel (and must use the tier at least once)."""
    scalar_batch = batch[:SCALAR_BATCH_CAP]
    scalar_scorer = InfluenceScorer(problem, cache_scores=False,
                                    use_index=False)
    started = time.perf_counter()
    scalar = np.asarray([scalar_scorer.score(p) for p in scalar_batch])
    scalar_time = time.perf_counter() - started

    mask_scorer = InfluenceScorer(problem, cache_scores=False,
                                  use_index=False)
    via_mask, mask_time = _timed_batch(mask_scorer, batch)

    index_scorer = InfluenceScorer(problem, cache_scores=False)
    index_scorer.prepare_index(prepare)
    build_time = index_scorer.stats.index_build_seconds
    via_index, index_time = _timed_batch(index_scorer, batch)

    # The equivalence contract — asserted even in smoke runs.
    np.testing.assert_array_equal(via_index, via_mask)
    np.testing.assert_array_equal(via_index[:len(scalar)], scalar)
    stats = index_scorer.stats
    routed = getattr(stats, routing_counter)
    if mixed_routing:
        assert routed + stats.conjunction_fallbacks == len(set(batch))
        assert routed > 0, f"{tier}: cost model never picked the tier"
        assert stats.cost_routed_conj == routed
    else:
        assert stats.indexed_predicates == len(set(batch))
        assert routed == len(set(batch))

    group_size = problem.outlier_results[0].group_size
    speedup = mask_time / index_time if index_time > 0 else float("inf")
    row = [
        tier, group_size, len(batch),
        round(scalar_time * 1e3, 2),
        round(mask_time * 1e3, 2),
        round(index_time * 1e3, 2),
        round(build_time * 1e3, 2),
        round(speedup, 2),
    ]
    json_row = {
        "tier": tier,
        "tuples_per_group": group_size,
        "batch_size": len(batch),
        "scalar_preds_per_s": round(len(scalar_batch) / scalar_time, 1)
        if scalar_time > 0 else None,
        "masked_preds_per_s": round(len(batch) / mask_time, 1)
        if mask_time > 0 else None,
        "indexed_preds_per_s": round(len(batch) / index_time, 1)
        if index_time > 0 else None,
        "index_build_ms": round(build_time * 1e3, 3),
        "index_vs_mask_speedup": round(speedup, 3),
    }
    return row, json_row, speedup


def _experiment():
    range_batch = _range_batch(BATCH_SIZE)
    set_batch = _set_batch(BATCH_SIZE)
    conj_batch = _conj_batch(BATCH_SIZE)
    rows, json_rows = [], []
    speedups = {}
    for group_size in GROUP_SIZES:
        dataset = synth_dataset(2, "easy", tuples_per_group=group_size)
        float_problem = dataset.scorpion_query(c=0.5)
        int_discrete = _discrete_problem(group_size, integer_values=True)
        float_discrete = _discrete_problem(group_size, integer_values=False)
        cases = (
            ("gather/sum", float_problem, range_batch,
             ("a1",), "indexed_ranges"),
            ("prefix/sum", _integer_sum_problem(float_problem), range_batch,
             ("a1",), "indexed_ranges"),
            ("bucket/sum", int_discrete, set_batch,
             ("ac",), "indexed_sets"),
            ("bucket-gather/sum", float_discrete, set_batch,
             ("ac",), "indexed_sets"),
            ("conj/sum", int_discrete, conj_batch,
             ("a1", "ac"), "indexed_conjunctions"),
        )
        for tier, problem, batch, prepare, counter in cases:
            row, json_row, speedup = _time_paths(
                problem, batch, tier, prepare=prepare,
                routing_counter=counter,
                mixed_routing=(tier == "conj/sum"))
            rows.append(row)
            json_rows.append(json_row)
            speedups[(tier, group_size)] = speedup
    return rows, json_rows, speedups


def test_index_beats_mask_matrix(benchmark):
    rows, json_rows, speedups = run_once(benchmark, _experiment)
    emit_report("prefix_index", format_table(
        "Prefix-aggregate index vs mask-matrix scoring "
        f"(range / set / conjunction batches of {BATCH_SIZE}, 10 groups)",
        ["tier", "tuples/group", "batch", "scalar ms*", "mask ms",
         "index ms", "build ms", "index speedup"], rows)
        + f"\n* scalar timed on the first {SCALAR_BATCH_CAP} predicates")
    emit_bench_json("prefix_index", {
        "description": "single-range, single-set, and 2-clause "
                       "conjunction predicates: scalar vs mask-matrix "
                       "vs prefix-aggregate index tiers "
                       "(predicates/second; equality asserted)",
        "rows": json_rows,
    })
    if os.environ.get("SCORPION_BENCH_PERF_ASSERT", "1") == "0":
        return
    for (tier, group_size), speedup in speedups.items():
        if tier == "conj/sum":
            # Cost-routed conjunctions must never lose to the plain
            # mask kernel — at any group size, 500 tuples/group
            # included (the shape the fraction-cap heuristic misrouted).
            assert speedup >= 1.0, (
                f"cost-routed conjunctions lost to the mask kernel at "
                f"{group_size} tuples/group (speedup {speedup:.2f})")
            continue
        if group_size not in ASSERT_GROUP_SIZES:
            continue
        bar = BUCKET_SPEEDUP_BAR if tier.startswith("bucket") else 1.0
        assert speedup > bar, (
            f"index path speedup bar missed on {tier} at {group_size} "
            f"tuples/group (speedup {speedup:.2f} <= {bar})")
