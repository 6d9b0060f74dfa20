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
  (``np.flatnonzero``), scatter-add the ``k`` set bits::

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

The constants
-------------

:data:`DEFAULT_CONSTANTS` were measured once against the real kernels
and ship with the code; every planner prices from them (through
:meth:`CostModel.shared`).  Routing — and with it the
``cost_routed_*`` counters and the parallel shard size — is therefore
a pure function of the problem's shape: identical in every process, on
every machine, and on the serial and parallel paths.  Tests pin a tier
per scorer with :func:`force_index_model` / :func:`force_mask_model`,
or process-wide with :func:`set_shared`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = [
    "CostConstants",
    "CostModel",
    "DEFAULT_CONSTANTS",
    "force_index_model",
    "force_mask_model",
]


@dataclass(frozen=True)
class CostConstants:
    """Per-tier unit costs in nanoseconds (see the module formulas)."""

    #: Per (predicate, labeled row): mask-pipeline overhead that scales
    #: with rows regardless of clauses (allocation, ``np.flatnonzero``
    #: scan).
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


#: Measured against the real kernels on a 2-CPU Linux container.
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


_SHARED: "CostModel | None" = None


def set_shared(model: "CostModel | None") -> None:
    """Replace the process-wide default model (tests: pin routing
    decisions for code paths that build their own scorers).  ``None``
    restores :data:`DEFAULT_CONSTANTS`."""
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
        """The process default every planner routes from —
        :data:`DEFAULT_CONSTANTS` unless a test installed another model
        with :func:`set_shared`."""
        global _SHARED
        if _SHARED is None:
            _SHARED = cls()
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

