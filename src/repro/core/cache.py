"""DT partition caching across ``c`` values (paper Section 8.3.3).

Users explore different values of the Section 7 knob ``c`` interactively
(e.g. a UI slider).  The **DT partitioning is agnostic to ``c``** —
per-tuple influence ``Δ(t)·v`` has a denominator of ``1^c`` — so its
partitions (and their removal statistics) can be computed once per
problem and reused for every ``c``.  :class:`DTCache` keys DT
partitioner output by the problem's signature and the partitioner's
parameters; reusing it changes no answer.

Section 8.3.3 also warm-starts the Merger from the merge results of the
nearest higher ``c``.  That is left out on purpose: a warm start makes
an explanation depend on which ``c`` values were answered before it,
and every request here merges from its own partitions, so the same
request always gets the same answer.

The cache is an LRU of at most :data:`MAX_ENTRIES` keys,
least-recently-used evicted first.  Hit/miss/eviction counts surface per
``explain`` call through ``scorer_stats`` (``dtcache_*`` keys) next to
the resident service's own ``service_*`` counters.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.dt import DTPartitioner
from repro.core.influence import InfluenceScorer
from repro.core.partition import CandidatePredicate
from repro.core.problem import ScorpionQuery
from repro.table.table import Table

#: Signature-LRU capacity (distinct problems remembered).
MAX_ENTRIES = 16


def query_signature(query: ScorpionQuery) -> tuple:
    """A key identifying everything DT output depends on — the dataset,
    query, annotations, λ and perturbation — but *not* ``c``.  The
    dataset is keyed by ``id``, which stays unique because
    :class:`_Entry` holds the table."""
    return (
        id(query.raw_table),
        repr(query.query),
        tuple(sorted(query.outlier_keys)),
        tuple(sorted(query.holdout_keys)),
        tuple(sorted(query.error_vectors.items())),
        query.lam,
        query.attributes,
        query.perturbation,
    )


@dataclass
class _Entry:
    #: The raw table whose ``id`` the signature carries, kept alive
    #: because CPython hands a freed object's id to a later one.
    table: Table
    candidates: list[CandidatePredicate]


class DTCache:
    """Memoizes DT partitions across ``c`` sweeps, bounded as an LRU of
    :data:`MAX_ENTRIES` (signature, partitioner parameters) keys."""

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self.partition_hits = 0
        self.partition_misses = 0
        #: Entries evicted by the LRU bound.
        self.entry_evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def candidates(self, query: ScorpionQuery, partitioner: DTPartitioner,
                   scorer: InfluenceScorer,
                   ) -> tuple[list[CandidatePredicate], float]:
        """DT candidates for ``query`` plus the partitioning seconds this
        call actually spent (0.0 on cache hits)."""
        key = (query_signature(query),
               dataclasses.astuple(partitioner.params))
        entry = self._entries.get(key)
        if entry is None:
            self.partition_misses += 1
            result = partitioner.run(query, scorer)
            self._entries[key] = _Entry(query.raw_table, result.candidates)
            while len(self._entries) > MAX_ENTRIES:
                self._entries.popitem(last=False)
                self.entry_evictions += 1
            return result.candidates, result.elapsed
        self._entries.move_to_end(key)
        self.partition_hits += 1
        return entry.candidates, 0.0

    # ------------------------------------------------------------------
    # Counter windows (per-explain deltas surfaced in scorer_stats)
    # ------------------------------------------------------------------
    def counter_snapshot(self) -> tuple[int, int, int]:
        """The cumulative counters, for :meth:`window_stats` deltas."""
        return (self.partition_hits, self.partition_misses,
                self.entry_evictions)

    def window_stats(self, snapshot: tuple[int, int, int]) -> dict:
        """This-window deltas (plus the entry-count gauge) under the
        ``dtcache_*`` keys one ``explain`` call merges into its
        ``scorer_stats`` — per-call numbers, so a cold run and a warm
        service run report comparable windows."""
        hits, misses, evictions = snapshot
        return {
            "dtcache_partition_hits": self.partition_hits - hits,
            "dtcache_partition_misses": self.partition_misses - misses,
            "dtcache_entry_evictions": self.entry_evictions - evictions,
            "dtcache_entries": len(self._entries),
        }

    def clear(self) -> None:
        self._entries.clear()
        self.partition_hits = 0
        self.partition_misses = 0
        self.entry_evictions = 0
