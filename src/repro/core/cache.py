"""Cross-``c`` result caching (paper Section 8.3.3).

Users explore different values of the Section 7 knob ``c`` interactively
(e.g. a UI slider).  Two observations make that cheap:

* the **DT partitioning is agnostic to ``c``** — per-tuple influence
  ``Δ(t)·v`` has a denominator of ``1^c`` — so its partitions (and their
  removal statistics) can be computed once per query and reused for every
  ``c``;
* the **Merger runs deterministically**, and a higher ``c`` merely stops
  merging earlier; a run at a lower ``c`` can therefore warm-start from
  any prior higher-``c`` merge result and keep expanding.

:class:`DTCache` implements both: it keys DT partitioner output by the
query's annotation signature and remembers merge results per ``c`` so the
next lower ``c`` run seeds the Merger with them.

The cache is **bounded** on both axes it grows along.  Signatures are an
LRU: at most :attr:`DTCache.max_entries` distinct queries are remembered
(default :data:`DEFAULT_MAX_ENTRIES`, override via the constructor or
``SCORPION_DTCACHE_ENTRIES``), least-recently-used evicted first.  Within
one entry, merge results are kept for at most
:attr:`DTCache.max_c_results` distinct ``c`` values, oldest-stored
dropped first — a resident service sweeping a fine-grained ``c`` slider
would otherwise accumulate one ranked predicate list per tick forever.
Hit/miss/eviction counts surface per ``explain`` call through
``scorer_stats`` (``dtcache_*`` keys) next to the resident service's own
``service_*`` counters.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.dt import DTPartitioner
from repro.core.influence import InfluenceScorer
from repro.core.partition import CandidatePredicate, ScoredPredicate
from repro.core.problem import ScorpionQuery
from repro.errors import PartitionerError
from repro.predicates.predicate import Predicate
from repro.table.table import Table

#: Default signature-LRU capacity (distinct queries remembered).
DEFAULT_MAX_ENTRIES = 16


def query_signature(query: ScorpionQuery) -> tuple:
    """A key identifying everything DT output depends on — the dataset,
    query, annotations, and λ — but *not* ``c``.  The dataset is keyed
    by ``id``, which stays unique because :class:`_Entry` holds the
    table."""
    return (
        id(query.raw_table),
        repr(query.query),
        tuple(sorted(query.outlier_keys)),
        tuple(sorted(query.holdout_keys)),
        tuple(sorted(query.error_vectors.items())),
        query.lam,
        query.attributes,
    )


@dataclass
class _Entry:
    #: The raw table whose ``id`` the signature carries, kept alive
    #: because CPython hands a freed object's id to a later one.
    table: Table
    candidates: list[CandidatePredicate]
    partition_elapsed: float
    #: Merge results keyed by the ``c`` they were computed at, in
    #: storage order (re-storing a ``c`` refreshes its position).
    merged_by_c: OrderedDict[float, list[ScoredPredicate]] = field(
        default_factory=OrderedDict)


class DTCache:
    """Memoizes DT partitions and Merger results across ``c`` sweeps,
    bounded as an LRU on signatures and per-entry on stored ``c`` values.

    Parameters
    ----------
    max_entries:
        Distinct query signatures to remember (LRU).  ``None`` reads
        ``SCORPION_DTCACHE_ENTRIES``, else :data:`DEFAULT_MAX_ENTRIES`;
        must be >= 1.
    max_c_results:
        Merge-result lists kept per entry, oldest-stored dropped first;
        must be >= 1.
    """

    def __init__(self, max_entries: int | None = None,
                 max_c_results: int = 8) -> None:
        if max_entries is None:
            raw = os.environ.get("SCORPION_DTCACHE_ENTRIES", "").strip()
            max_entries = int(raw) if raw else DEFAULT_MAX_ENTRIES
        if max_entries < 1:
            raise PartitionerError(
                f"max_entries must be >= 1, got {max_entries}")
        if max_c_results < 1:
            raise PartitionerError(
                f"max_c_results must be >= 1, got {max_c_results}")
        self.max_entries = int(max_entries)
        self.max_c_results = int(max_c_results)
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self.partition_hits = 0
        self.partition_misses = 0
        #: Signature entries evicted by the LRU bound.
        self.entry_evictions = 0
        #: Per-entry merge results dropped by the ``c`` bound.
        self.c_evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _touch(self, key: tuple) -> _Entry | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def candidates(self, query: ScorpionQuery, partitioner: DTPartitioner,
                   scorer: InfluenceScorer,
                   ) -> tuple[list[CandidatePredicate], float]:
        """DT candidates for ``query`` plus the partitioning seconds this
        call actually spent (0.0 on cache hits)."""
        key = query_signature(query)
        entry = self._touch(key)
        if entry is None:
            self.partition_misses += 1
            result = partitioner.run(query, scorer)
            entry = _Entry(query.raw_table, result.candidates,
                           result.elapsed)
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.entry_evictions += 1
            return entry.candidates, entry.partition_elapsed
        self.partition_hits += 1
        return entry.candidates, 0.0

    #: Warm starts resume from this many of the previous run's best
    #: predicates — expanding the full result list would cost as much as
    #: merging from scratch.
    max_seeds = 10

    def merger_seeds(self, query: ScorpionQuery) -> list[Predicate] | None:
        """Warm-start predicates: the best merge results of the smallest
        previously solved ``c`` that is still above ``query.c``.

        Merging monotonically coarsens as ``c`` decreases, so resuming
        from the nearest higher-``c`` result skips the merge prefix both
        runs share.
        """
        entry = self._touch(query_signature(query))
        if entry is None:
            return None
        higher = [c for c in entry.merged_by_c if c > query.c]
        if not higher:
            return None
        nearest = min(higher)
        return [sp.predicate
                for sp in entry.merged_by_c[nearest][: self.max_seeds]]

    def store_merged(self, query: ScorpionQuery,
                     merged: list[ScoredPredicate]) -> None:
        """Record a merge result for :meth:`merger_seeds` reuse (the
        per-entry ``c`` bound drops the oldest-stored result first)."""
        entry = self._touch(query_signature(query))
        if entry is None:
            return
        if query.c in entry.merged_by_c:
            entry.merged_by_c.move_to_end(query.c)
        entry.merged_by_c[query.c] = list(merged)
        while len(entry.merged_by_c) > self.max_c_results:
            entry.merged_by_c.popitem(last=False)
            self.c_evictions += 1

    # ------------------------------------------------------------------
    # Counter windows (per-explain deltas surfaced in scorer_stats)
    # ------------------------------------------------------------------
    def counter_snapshot(self) -> tuple[int, int, int, int]:
        """The cumulative counters, for :meth:`window_stats` deltas."""
        return (self.partition_hits, self.partition_misses,
                self.entry_evictions, self.c_evictions)

    def window_stats(self, snapshot: tuple[int, int, int, int]) -> dict:
        """This-window deltas (plus the entry-count gauge) under the
        ``dtcache_*`` keys one ``explain`` call merges into its
        ``scorer_stats`` — per-call numbers, so a cold run and a warm
        service run report comparable windows."""
        hits, misses, entry_ev, c_ev = snapshot
        return {
            "dtcache_partition_hits": self.partition_hits - hits,
            "dtcache_partition_misses": self.partition_misses - misses,
            "dtcache_entry_evictions": self.entry_evictions - entry_ev,
            "dtcache_c_evictions": self.c_evictions - c_ev,
            "dtcache_entries": len(self._entries),
        }

    def clear(self) -> None:
        self._entries.clear()
        self.partition_hits = 0
        self.partition_misses = 0
        self.entry_evictions = 0
        self.c_evictions = 0
