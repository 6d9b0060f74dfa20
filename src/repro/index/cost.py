"""The planner's cost model: price every candidate execution route and
route each predicate to the argmin.

Replaces the fixed routing heuristics (most notably the old
``PROBE_FRACTION_CAP``) with explicit per-route cost formulas, in
nanoseconds, built from per-tier unit constants.  With ``q`` clauses,
``n`` labeled rows, ``G`` groups, ``k`` matched rows and ``A`` the
amortization constant (:data:`CostModel.AMORTIZED_PREDS` — fixed
per-group batch costs are shared by roughly that many predicates per
kernel call):

* **mask kernel** — build the boolean row (a bound comparison per
  range clause, a lookup-table gather per set clause), scan it
  (``np.nonzero``), scatter-add the ``k`` set bits::

      mask(n, k, q_r, q_s) = (mask_row + mask_clause·q_r
                              + mask_set_clause·q_s)·n
                             + scatter_row·k + mask_pred

* **range tier** — two binary searches per group plus, on gather-tier
  (non-exactly-summable) groups, the ascending-row gather of the ``k``
  matched rows (prefix-tier groups answer in O(1))::

      range(G, k, exact) = (range_group + range_batch_group/A)·G
                           + [not exact]·gather_row·k + tier_pred

* **discrete-bucket tier** — per-group bucket lookups over the ``c``
  wanted codes, plus the same gather term off the bucket tier::

      set(G, c, k, exact) = (bucket_group + bucket_code·c
                             + bucket_batch_group/A)·G
                            + [not exact]·gather_row·k + tier_pred

* **conjunction tier** — probe the rarer clause's view (its searches
  are inside the per-group terms; a set probe adds its per-code bucket
  lookups), then mask-test and accumulate the ``k_probe`` candidates::

      conj(G, k_probe, c) = conj_row·k_probe
                            + (conj_group + conj_batch_group/A)·G
                            + [set probe]·bucket_code·c·G + tier_pred

The :class:`~repro.index.IndexPlanner` compares these using the exact
matched-count estimates it already computes (conjunctions) or the
worst-case ``k = n`` (single clauses, where the per-matched-row terms
largely cancel between the two sides), and picks the cheaper route —
results are identical either way, so a wrong constant can only cost
time, never correctness.

Calibration
-----------

The unit constants are measured once per process by
:func:`calibrate`: a microbenchmark on a small synthetic slice that
times the real kernels — the full mask pipeline through the real
:class:`~repro.predicates.evaluator.ArrayMaskEvaluator` (including its
scan and scatter-add) and the prefix / gather / bucket / conjunction
tiers of a throwaway :class:`~repro.index.PrefixAggregateIndex` — and
solves for the constants by differencing.  Each tier is timed at two
batch sizes so fixed per-group batch costs separate from per-predicate
costs (conflating them overprices index tiers at real chunk sizes).
The result is cached in a module-level singleton
(:meth:`CostModel.shared`), so every planner in the process — and,
with the default ``fork`` start method, every worker — routes from the
same constants; routing decisions are therefore identical across the
serial and parallel paths of one process by construction.  Calibrated
constants are clamped to a window around the defaults so a noisy timer
cannot produce pathological routing.

``SCORPION_COST_CALIBRATE=off`` (or ``0`` / ``false`` / ``no``) skips
the measurement and uses :data:`DEFAULT_CONSTANTS` — fully
deterministic, for tests and CI.  ``cost_calibrations`` in
``scorer_stats`` reports how many calibration passes the process ran
(0 or 1).
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import REGISTRY
from repro.obs.trace import span

__all__ = [
    "CostConstants",
    "CostModel",
    "DEFAULT_CONSTANTS",
    "calibrate",
    "calibration_count",
    "calibration_enabled",
    "force_index_model",
    "force_mask_model",
    "reset_shared",
]


@dataclass(frozen=True)
class CostConstants:
    """Per-tier unit costs in nanoseconds (see the module formulas)."""

    #: Per (predicate, labeled row): mask-pipeline overhead that scales
    #: with rows regardless of clauses (allocation, ``np.nonzero`` scan).
    mask_row: float
    #: Per (predicate, labeled row, range clause): one broadcast bound
    #: comparison.
    mask_clause: float
    #: Per (predicate, labeled row, set clause): one lookup-table
    #: gather — substantially pricier than a bound comparison, which is
    #: why set-clause pairs are the conjunction tier's biggest win.
    mask_set_clause: float
    #: Per matched row on the mask path: composite-key build + the
    #: count/state ``bincount`` scatter-adds.
    scatter_row: float
    #: Per predicate: fixed mask-path overhead (chunk bookkeeping).
    mask_pred: float
    #: Per (predicate, group): range-tier binary searches + prefix diff.
    range_group: float
    #: Per (group, kernel call): fixed range-tier batch cost, amortized
    #: over :data:`CostModel.AMORTIZED_PREDS` predicates.
    range_batch_group: float
    #: Per matched row gathered on a non-exact (gather-tier) group.
    gather_row: float
    #: Per (predicate, group): discrete-bucket-tier lookups and sums.
    bucket_group: float
    #: Per (predicate, group, wanted code): bucket boundary lookups.
    bucket_code: float
    #: Per (group, kernel call): fixed bucket-tier batch cost, amortized.
    bucket_batch_group: float
    #: Per probe-candidate row of the conjunction tier: slice expansion
    #: + other-clause mask test + survivor accumulation.
    conj_row: float
    #: Per (predicate, group): conjunction-tier bookkeeping, including
    #: the probe's binary searches.
    conj_group: float
    #: Per (group, kernel call): fixed conjunction-tier batch cost
    #: (family setup, candidate concatenation), amortized.
    conj_batch_group: float
    #: Per predicate: fixed index-tier overhead (routing bookkeeping).
    tier_pred: float


#: Measured on the reference container (see :func:`calibrate`); used
#: verbatim when ``SCORPION_COST_CALIBRATE=off``.
DEFAULT_CONSTANTS = CostConstants(
    mask_row=2.8,
    mask_clause=0.5,
    mask_set_clause=2.0,
    scatter_row=50.0,
    mask_pred=2000.0,
    range_group=40.0,
    range_batch_group=10000.0,
    gather_row=38.0,
    bucket_group=170.0,
    bucket_code=0.5,
    bucket_batch_group=7000.0,
    conj_row=51.0,
    conj_group=500.0,
    conj_batch_group=45000.0,
    tier_pred=500.0,
)

#: Calibrated constants are clamped to ``default / CLAMP .. default *
#: CLAMP`` — wide enough for any real machine, tight enough that timer
#: noise cannot invert every routing decision.
CLAMP = 32.0


def calibration_enabled() -> bool:
    """Whether :meth:`CostModel.shared` runs the microcalibration pass
    (``SCORPION_COST_CALIBRATE`` unset or truthy) instead of using
    :data:`DEFAULT_CONSTANTS`."""
    raw = os.environ.get("SCORPION_COST_CALIBRATE", "").strip().lower()
    return raw not in ("off", "0", "false", "no")


_SHARED: "CostModel | None" = None
_CALIBRATIONS = 0


def calibration_count() -> int:
    """Calibration passes run by this process so far (0 or 1; surfaces
    as the ``cost_calibrations`` scorer-stats counter)."""
    return _CALIBRATIONS


def reset_shared() -> None:
    """Drop the shared model (tests only: forces the next
    :meth:`CostModel.shared` to re-resolve the environment knob)."""
    global _SHARED
    _SHARED = None


def set_shared(model: "CostModel | None") -> None:
    """Replace the process-wide shared model (tests and benchmarks: pin
    routing decisions regardless of machine speed for code paths that
    build their own scorers).  ``None`` restores lazy resolution."""
    global _SHARED
    _SHARED = model


class CostModel:
    """Prices candidate routes; see the module docstring for formulas.

    Stateless given its constants — every method is pure arithmetic, so
    two models with equal constants make identical decisions (the
    routing-parity guarantee the differential oracle asserts).
    """

    #: Predicates assumed to share one kernel call's fixed per-group
    #: batch costs.  Real chunks run 8 (tests) to 256+ (benchmarks)
    #: predicates; 64 is the geometric middle and errs on neither side
    #: by more than the fixed costs themselves.
    AMORTIZED_PREDS = 64.0

    #: Estimated per-task dispatch overhead of the worker pool (pickle,
    #: queue, result IPC); shards smaller than a couple of these are
    #: not worth cutting.
    DISPATCH_NS = 200_000.0

    def __init__(self, constants: CostConstants | None = None):
        self.constants = constants if constants is not None else DEFAULT_CONSTANTS

    @classmethod
    def shared(cls) -> "CostModel":
        """The per-process model every planner routes from — calibrated
        once on first use, or :data:`DEFAULT_CONSTANTS` when
        ``SCORPION_COST_CALIBRATE=off``."""
        global _SHARED, _CALIBRATIONS
        if _SHARED is None:
            if calibration_enabled():
                with span("cost_calibration"):
                    _SHARED = cls(calibrate())
                _CALIBRATIONS += 1
                REGISTRY.counter(
                    "scorpion_cost_calibrations_total",
                    "Cost-model microcalibration passes run").inc()
            else:
                _SHARED = cls(DEFAULT_CONSTANTS)
        return _SHARED

    # ------------------------------------------------------------------
    # Route costs (nanoseconds per predicate)
    # ------------------------------------------------------------------
    def mask_cost(self, n_rows: int, k: float, n_range_clauses: int = 1,
                  n_set_clauses: int = 0) -> float:
        """Amortized mask-kernel cost of one predicate with the given
        clause mix over ``n_rows`` labeled rows matching ``k`` of them."""
        c = self.constants
        per_row = (c.mask_row + c.mask_clause * n_range_clauses
                   + c.mask_set_clause * n_set_clauses)
        return per_row * n_rows + c.scatter_row * k + c.mask_pred

    def range_cost(self, n_groups: int, k: float, exact: bool) -> float:
        """Range-tier cost of one single-range predicate matching ``k``
        rows (``exact``: every group on the O(1) prefix tier)."""
        c = self.constants
        per_group = c.range_group + c.range_batch_group / self.AMORTIZED_PREDS
        cost = per_group * n_groups + c.tier_pred
        if not exact:
            cost += c.gather_row * k
        return cost

    def set_cost(self, n_groups: int, n_codes: int, k: float,
                 exact: bool) -> float:
        """Discrete-bucket-tier cost of one single-set predicate with
        ``n_codes`` wanted codes matching ``k`` rows."""
        c = self.constants
        per_group = (c.bucket_group + c.bucket_code * n_codes
                     + c.bucket_batch_group / self.AMORTIZED_PREDS)
        cost = per_group * n_groups + c.tier_pred
        if not exact:
            cost += c.gather_row * k
        return cost

    def conjunction_cost(self, n_groups: int, k_probe: float,
                         probe_is_set: bool, n_probe_codes: int = 0) -> float:
        """Conjunction-tier cost: probe a clause matching ``k_probe``
        rows, mask-test and accumulate the candidates."""
        c = self.constants
        per_group = c.conj_group + c.conj_batch_group / self.AMORTIZED_PREDS
        if probe_is_set:
            per_group += c.bucket_code * n_probe_codes
        return c.conj_row * k_probe + per_group * n_groups + c.tier_pred

    # ------------------------------------------------------------------
    # Parallel shard size
    # ------------------------------------------------------------------
    def choose_shard_size(self, n_predicates: int, n_rows: int,
                          workers: int, batch_chunk: int) -> int:
        """Predicates per shard for a parallel batch of ``n_predicates``
        over ``n_rows`` labeled rows.

        ``batch_chunk`` unless the batch is too small to fill ``2 ×
        workers`` chunks of it; then the batch is cut into ``2 ×
        workers`` shards so every worker gets a share — provided one
        such shard's estimated mask-kernel work clears a couple of
        dispatch round-trips (cutting a microsecond of scoring into IPC
        is a loss at any worker count).  Deterministic pure arithmetic,
        and chunking never changes a result.
        """
        shards = 2 * workers
        if (n_predicates <= 0 or workers <= 1
                or -(-n_predicates // batch_chunk) >= shards):
            return batch_chunk
        size = -(-n_predicates // shards)
        if size * self.mask_cost(n_rows, n_rows / 4) < 2.0 * self.DISPATCH_NS:
            return batch_chunk
        return size


def force_index_model() -> CostModel:
    """A model whose mask kernel is priced out of the market — every
    index-eligible predicate routes to an index tier regardless of
    shape.  For tests that pin tier-kernel behavior on fixtures too
    small for the real economics to pick the index."""
    return CostModel(dataclasses.replace(
        DEFAULT_CONSTANTS, mask_row=1e9, mask_pred=1e12))


def force_mask_model() -> CostModel:
    """The opposite of :func:`force_index_model`: index tiers priced out,
    everything cost-routes to the mask kernel."""
    return CostModel(dataclasses.replace(
        DEFAULT_CONSTANTS, range_group=1e9, bucket_group=1e9,
        conj_group=1e9, tier_pred=1e12))


# ----------------------------------------------------------------------
# Microcalibration
# ----------------------------------------------------------------------
def _best_of(fn, reps: int = 3) -> float:
    """Minimum wall-clock seconds of ``fn`` over ``reps`` runs (after
    one unmeasured warm-up)."""
    fn()
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _clamped(value: float, default: float) -> float:
    """Clamp a fitted constant into the sanity window around its
    default (and away from zero/negative timer-noise artifacts)."""
    lo, hi = default / CLAMP, default * CLAMP
    return float(min(max(value, lo), hi))


def calibrate() -> CostConstants:
    """Measure the per-tier unit constants on a synthetic slice.

    Times the actual kernels — the mask pipeline through the real
    :class:`~repro.predicates.evaluator.ArrayMaskEvaluator` (broadcast
    range compares, lookup-table set gathers, ``np.nonzero``, count and
    state scatter-adds) and the prefix / gather / bucket / conjunction
    tiers of a small :class:`~repro.index.PrefixAggregateIndex`.  Each
    index tier is timed at two batch sizes (m=8 and m=32) to separate
    fixed per-group batch costs from per-predicate costs, and at two
    selectivities to fit the per-matched-row slopes.  Runs in roughly
    100 ms; called at most once per process (see
    :meth:`CostModel.shared`).
    """
    from repro.index.prefix import PrefixAggregateIndex
    from repro.predicates.clause import RangeClause, SetClause
    from repro.predicates.evaluator import ArrayMaskEvaluator
    from repro.predicates.predicate import Predicate

    d = DEFAULT_CONSTANTS
    rng = np.random.default_rng(12345)
    n_groups, size, n_codes = 4, 1000, 16
    m_small, m_big = 8, 64
    n = n_groups * size
    giga = 1e9
    values = rng.uniform(0.0, 100.0, n)
    values2 = rng.uniform(0.0, 100.0, n)
    codes = rng.integers(0, n_codes, n).astype(np.int64)
    int_states = np.stack([rng.integers(1, 50, n).astype(np.float64),
                           np.ones(n)], axis=1)
    float_states = np.stack([rng.uniform(0.5, 50.0, n), np.ones(n)], axis=1)
    slices = [(g * size, (g + 1) * size) for g in range(n_groups)]
    ctx_ids = np.repeat(np.arange(n_groups, dtype=np.int64), size)
    code_table = {i: i for i in range(n_codes)}

    exact_index = PrefixAggregateIndex(
        {"a": values}, slices, [int_states[a:b] for a, b in slices],
        codes_by_attr={"d": codes}, code_tables={"d": code_table})
    float_index = PrefixAggregateIndex(
        {"a": values}, slices, [float_states[a:b] for a, b in slices])
    exact_index.ensure("a")
    exact_index.ensure_discrete("d")
    float_index.ensure("a")

    # --- mask pipeline: the real evaluator + nonzero + scatter-adds ---
    # Second clauses are a half-range / half-set mix, like the pair
    # workloads the conjunction decision prices against.  Timed at a
    # batch size whose matched-row working set leaves the cache, because
    # that is where the scatter-add actually operates at real chunk
    # sizes — an in-cache fit underprices the mask route 4-5×.
    m_mask = 128
    evaluator = ArrayMaskEvaluator.from_state(
        {"a": values, "a2": values2}, {"d": codes}, {"d": code_table})
    zero_clause = RangeClause("a", 200.0, 300.0)
    half_clause = RangeClause("a", 25.0, 75.0, include_hi=False)
    set_clause = SetClause("d", [0, 3, 5, 7, 9, 11])
    preds_zero_1 = [Predicate([zero_clause]) for _ in range(m_mask)]
    preds_zero_2r = [Predicate([zero_clause, RangeClause("a2", 25.0, 75.0)])
                     for _ in range(m_mask)]
    preds_zero_2s = [Predicate([zero_clause, set_clause])
                     for _ in range(m_mask)]
    preds_half_1 = [Predicate([half_clause]) for _ in range(m_mask)]

    def mask_pipeline(predicates):
        matrix = evaluator.evaluate_batch(predicates)
        rows, cols = np.nonzero(matrix)
        keys = rows * n_groups + ctx_ids[cols]
        np.bincount(keys, minlength=m_mask * n_groups)
        gathered = float_states[cols]
        for j in range(gathered.shape[1]):
            np.bincount(keys, weights=gathered[:, j],
                        minlength=m_mask * n_groups)

    t_zero_1 = _best_of(lambda: mask_pipeline(preds_zero_1))
    t_zero_2r = _best_of(lambda: mask_pipeline(preds_zero_2r))
    t_zero_2s = _best_of(lambda: mask_pipeline(preds_zero_2s))
    t_half_1 = _best_of(lambda: mask_pipeline(preds_half_1))
    k_half = float(((values >= 25.0) & (values < 75.0)).sum())
    mask_clause = (t_zero_2r - t_zero_1) * giga / (m_mask * n)
    mask_set_clause = (t_zero_2s - t_zero_1) * giga / (m_mask * n)
    mask_row = t_zero_1 * giga / (m_mask * n) - mask_clause
    scatter_row = (t_half_1 - t_zero_1) * giga / (m_mask * k_half)

    def two_point_fit(t_small: float, t_big: float) -> tuple[float, float]:
        """``(per_pred_group, per_batch_group)`` from one timing at
        ``m_small`` and one at ``m_big`` predicates (k-free workloads:
        both timings are ``fixed·G + per_pred·m·G``)."""
        per_pred = (t_big - t_small) * giga / ((m_big - m_small) * n_groups)
        fixed = t_small * giga / n_groups - m_small * per_pred
        return per_pred, fixed

    # --- range tier: prefix (per-group) and gather (per-row) ----------
    def range_stats(index, m, lo, hi):
        index.range_group_stats(
            "a", np.full(m, lo), np.full(m, hi), np.zeros(m, dtype=bool))

    t_range_small = _best_of(lambda: range_stats(exact_index, m_small,
                                                 0.0, 100.0))
    t_range_big = _best_of(lambda: range_stats(exact_index, m_big,
                                               0.0, 100.0))
    range_group, range_batch_group = two_point_fit(t_range_small, t_range_big)
    t_gather = _best_of(lambda: range_stats(float_index, m_big, 25.0, 75.0))
    t_gather_base = _best_of(lambda: range_stats(float_index, m_big,
                                                 200.0, 300.0))
    gather_row = (t_gather - t_gather_base) * giga / (m_big * k_half)

    # --- discrete-bucket tier -----------------------------------------
    def set_stats(wanted):
        exact_index.set_group_stats("d", wanted)

    def one_code_wanted(m):
        return [np.asarray([i % n_codes], dtype=np.int64) for i in range(m)]

    wanted_8 = [np.unique(np.arange(i % 8, i % 8 + 8) % n_codes)
                for i in range(m_big)]
    t_set_small = _best_of(lambda: set_stats(one_code_wanted(m_small)))
    t_set_big = _best_of(lambda: set_stats(one_code_wanted(m_big)))
    t_set_8 = _best_of(lambda: set_stats(wanted_8))
    bucket_group, bucket_batch_group = two_point_fit(t_set_small, t_set_big)
    bucket_code = (t_set_8 - t_set_big) * giga / (m_big * n_groups * 7)

    # --- conjunction tier ---------------------------------------------
    other = RangeClause("a", 0.0, 100.0)

    def conj_stats(m, width):
        plans = [(RangeClause("a", float(2 * i % 50),
                              float(2 * i % 50) + width), other)
                 for i in range(m)]
        exact_index.conjunction_group_stats(plans)

    t_conj_narrow = _best_of(lambda: conj_stats(m_big, 2.0))
    t_conj_narrow_small = _best_of(lambda: conj_stats(m_small, 2.0))
    t_conj_big = _best_of(lambda: conj_stats(m_big, 30.0))
    k_narrow, k_wide = 0.02 * n, 0.30 * n
    conj_row = (t_conj_big - t_conj_narrow) * giga / (m_big
                                                      * (k_wide - k_narrow))
    # Two-point fit of the per-group terms at the *narrow* width, where
    # the per-candidate component is a small correction — differencing
    # the wide timings would drown the group terms in row-cost noise.
    row_small = conj_row * m_small * k_narrow / giga
    row_big = conj_row * m_big * k_narrow / giga
    conj_group, conj_batch_group = two_point_fit(
        t_conj_narrow_small - row_small, t_conj_narrow - row_big)

    return CostConstants(
        mask_row=_clamped(mask_row, d.mask_row),
        mask_clause=_clamped(mask_clause, d.mask_clause),
        mask_set_clause=_clamped(mask_set_clause, d.mask_set_clause),
        scatter_row=_clamped(scatter_row, d.scatter_row),
        mask_pred=d.mask_pred,
        range_group=_clamped(range_group, d.range_group),
        range_batch_group=_clamped(range_batch_group, d.range_batch_group),
        gather_row=_clamped(gather_row, d.gather_row),
        bucket_group=_clamped(bucket_group, d.bucket_group),
        bucket_code=_clamped(bucket_code, d.bucket_code),
        bucket_batch_group=_clamped(bucket_batch_group, d.bucket_batch_group),
        conj_row=_clamped(conj_row, d.conj_row),
        conj_group=_clamped(conj_group, d.conj_group),
        conj_batch_group=_clamped(conj_batch_group, d.conj_batch_group),
        tier_pred=d.tier_pred,
    )
