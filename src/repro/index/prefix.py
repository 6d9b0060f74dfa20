"""Prefix-aggregate indexes: sorted per-attribute views of each labeled
group with precomputed aggregate state, so a single-clause range
predicate ``lo ≤ attr < hi`` is answered with two binary searches
instead of an O(n) mask row.

For every (group, attribute) pair the index sorts the group's rows by
the attribute's value once.  A range predicate then matches exactly one
contiguous slice ``[a, b)`` of that order (``np.searchsorted`` with the
clause's bound semantics), which yields the matched count as ``b − a``
and the summed removed state through one of two tiers:

**Prefix tier (O(1) per predicate).**  When every state column of the
group is *exactly summable* — integer-valued floats whose absolute sum
stays below 2**52 — every partial sum of every subset is an exact
integer below 2**53, hence exactly representable and independent of
summation order.  The per-state prefix sums along the sorted order are
then exact, and ``prefix[b] − prefix[a]`` reproduces the scalar path's
masked in-order sum bit for bit.  COUNT states always qualify; SUM/AVG
and the STDDEV/VARIANCE ``[sum, sum²]`` states qualify whenever the
aggregate column holds bounded integers (sensor ids, counts, cents).

**Gather tier (O(log n + k) per predicate).**  For general float data a
prefix difference is *not* bitwise equal to a direct sum (float addition
is not associative), so the slice's row positions ``order[a:b]`` are
gathered, re-sorted into ascending row order, and scatter-added with the
same in-input-order ``np.bincount`` kernel the batched mask path uses.
That reproduces the scalar path's masked sum exactly — same rows, same
ascending-row accumulation order, same elementwise adds — while still
skipping the O(n) mask row and its full-row scan; only the ``k`` matched
rows are touched.

Both tiers share the binary-search slice and therefore the matched *row
set* is identical to the comparison mask (``searchsorted`` side
selection mirrors the clause's ``>= lo`` / ``< hi`` / ``<= hi``
semantics, and NaN attribute values sort to the tail where no finite
bound reaches them).

:class:`PrefixAggregateIndex` additionally hosts two further tiers:
discrete code buckets for single set clauses (see
:mod:`repro.index.discrete`) and probe-side execution of 2-clause
conjunctions (:meth:`PrefixAggregateIndex.conjunction_group_stats`).
See :mod:`repro.index.planner` for how predicates are routed here.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

import numpy as np

from repro.errors import PredicateError
from repro.faults import fault_point
from repro.index.discrete import GroupDiscreteIndex
from repro.obs.trace import span
from repro.predicates.clause import Clause, RangeClause, SetClause

#: Per-column absolute-sum budget under which integer-valued state
#: columns sum exactly: every subset sum is an integer of magnitude
#: below 2**52 < 2**53, so each partial sum — in any order — is exactly
#: representable and prefix differences equal direct masked sums.
EXACT_SUM_BUDGET = float(2 ** 52)


def exactly_summable(columns: np.ndarray) -> bool:
    """Whether every column of the ``(n, k)`` state matrix sums exactly
    in any order (see :data:`EXACT_SUM_BUDGET`).  Empty matrices qualify
    trivially; anything non-finite (NaN/inf states) does not."""
    if columns.size == 0:
        return True
    if not np.isfinite(columns).all():
        return False
    if not (columns == np.floor(columns)).all():
        return False
    return bool(np.abs(columns).sum(axis=0).max() < EXACT_SUM_BUDGET)


def expand_slices(order: np.ndarray, starts: np.ndarray, stops: np.ndarray,
                  owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten slices ``order[starts_i:stops_i]`` into parallel
    ``(owners, rows)`` arrays — one entry per covered row, tagged with
    the slice's owning predicate."""
    lengths = stops - starts
    total = int(lengths.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    out_owners = np.repeat(owners, lengths)
    exclusive = np.cumsum(lengths) - lengths
    positions = (np.arange(total, dtype=np.int64)
                 + np.repeat(starts - exclusive, lengths))
    return out_owners, order[positions]


def accumulate_owner_rows(owners: np.ndarray, rows: np.ndarray, m: int,
                          n: int, tuple_states: np.ndarray,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Per-owner matched counts and summed states over ``(owner, row)``
    pairs, accumulated in ascending row order within each owner —
    bit-for-bit equal to the scalar path's
    ``tuple_states[mask].sum(axis=0)`` per owner.

    The shared reduction of every non-exact index tier.  ``np.flatnonzero``
    hands the mask kernel its set bits in ascending row order;
    re-sorting each owner's rows by row position reproduces that exact
    accumulation order.  A single composite-key sort (owner-major,
    row-minor) beats a two-key lexsort; the int64 key never overflows
    for any realistic (batch, group) shape, and the lexsort fallback
    covers the rest.
    """
    k = tuple_states.shape[1]
    out = np.zeros((m, k), dtype=np.float64)
    counts = np.bincount(owners, minlength=m).astype(np.int64)
    if not len(rows):
        return counts, out
    if m <= (2 ** 62) // max(n, 1):
        composite = np.sort(owners * n + rows)
        owners = composite // n
        rows = composite - owners * n
    else:  # pragma: no cover - astronomically large batches only
        sorter = np.lexsort((rows, owners))
        owners = owners[sorter]
        rows = rows[sorter]
    gathered = tuple_states[rows]
    for j in range(k):
        out[:, j] = np.bincount(owners, weights=gathered[:, j],
                                minlength=m)
    return counts, out


def gather_slice_states(order: np.ndarray, starts: np.ndarray,
                        stops: np.ndarray, owners: np.ndarray, m: int,
                        tuple_states: np.ndarray) -> np.ndarray:
    """Summed states per owner over the rows ``order[starts_i:stops_i]``,
    accumulated in ascending row order within each owner — bit-for-bit
    equal to the scalar path's ``tuple_states[mask].sum(axis=0)``.

    The shared gather kernel of the range and discrete gather tiers:
    slices may be range-clause binary-search bounds (one slice per
    predicate) or set-clause code buckets (several slices per predicate,
    with ``owners`` mapping each slice back to its predicate).
    """
    flat_owners, rows = expand_slices(order, starts, stops, owners)
    _, out = accumulate_owner_rows(flat_owners, rows, m, len(order),
                                   tuple_states)
    return out


class GroupAttributeIndex:
    """One group's rows sorted along one attribute.

    ``order`` maps sorted positions to the group's local row positions;
    ``prefix`` holds the (n+1, k) exact prefix states when the group is
    on the prefix tier, else None (gather tier).
    """

    __slots__ = ("order", "sorted_values", "prefix")

    def __init__(self, values: np.ndarray, tuple_states: np.ndarray | None,
                 exact: bool):
        order = np.argsort(values, kind="stable").astype(np.int64, copy=False)
        self.order = order
        self.sorted_values = values[order]
        self.prefix: np.ndarray | None = None
        if exact and tuple_states is not None:
            prefix = np.zeros((len(values) + 1, tuple_states.shape[1]),
                              dtype=np.float64)
            np.cumsum(tuple_states[order], axis=0, out=prefix[1:])
            self.prefix = prefix

    @property
    def uses_prefix(self) -> bool:
        return self.prefix is not None

    def resident_bytes(self) -> int:
        """Bytes of view data this group's index holds (the sorted copy,
        the permutation, and the prefix matrix when on the prefix tier)."""
        total = self.order.nbytes + self.sorted_values.nbytes
        if self.prefix is not None:
            total += self.prefix.nbytes
        return int(total)

    def slice_bounds(self, los: np.ndarray, his: np.ndarray,
                     closed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sorted-position bounds ``[a, b)`` of each range.

        Mirrors :meth:`RangeClause.mask_values` exactly: ``a`` is the
        first position with ``value >= lo``; ``b`` is one past the last
        position with ``value <= hi`` (closed) or ``value < hi`` (open).
        NaN values sort past every finite bound and are never included.
        """
        a = np.searchsorted(self.sorted_values, los, side="left")
        b = np.where(
            closed,
            np.searchsorted(self.sorted_values, his, side="right"),
            np.searchsorted(self.sorted_values, his, side="left"),
        )
        return a, b

    def removed_states(self, a: np.ndarray, b: np.ndarray,
                       tuple_states: np.ndarray) -> np.ndarray:
        """Summed removed state per slice, bit-for-bit equal to the
        scalar path's ``tuple_states[mask].sum(axis=0)``.

        Prefix tier: one O(1) subtraction per slice (exact by the
        integer-summability argument above).  Gather tier: the slices'
        row positions are concatenated, re-sorted to ascending row order
        within each slice, and accumulated with the same in-input-order
        ``bincount`` scatter-add as the batched mask kernel.
        """
        if self.prefix is not None:
            return self.prefix[b] - self.prefix[a]
        m = len(a)
        return gather_slice_states(self.order, a, b,
                                   np.arange(m, dtype=np.int64), m,
                                   tuple_states)


class PrefixAggregateIndex:
    """Lazily built per-(group, attribute) sorted indexes over the
    labeled rows of one scorer/evaluator.

    Parameters
    ----------
    values_by_attr:
        Continuous attribute name → values over the *labeled* rows (all
        groups concatenated, outliers first) — the same arrays the
        labeled :class:`~repro.predicates.evaluator.ArrayMaskEvaluator`
        compares against, so slice membership equals mask membership.
    group_slices:
        ``(start, stop)`` column spans of each group inside the labeled
        concatenation, in context order.
    group_states:
        Each group's ``(size, state_size)`` per-tuple aggregate states
        (the incremental-removal cache); the removed-state queries
        require them for every group.
    codes_by_attr:
        Discrete attribute name → factorized integer codes over the
        labeled rows (the same code arrays the labeled evaluator's set
        clauses compare against, so bucket membership equals mask
        membership).  Optional; without it only the range tiers exist.
    code_tables:
        Discrete attribute name → value → code mapping (the labeled
        evaluator's factorization tables), required for every attribute
        in ``codes_by_attr`` — set-clause values are translated through
        it exactly like :meth:`ArrayMaskEvaluator.clause_mask` does.
    """

    def __init__(self, values_by_attr: Mapping[str, np.ndarray],
                 group_slices: Sequence[tuple[int, int]],
                 group_states: Sequence[np.ndarray],
                 codes_by_attr: Mapping[str, np.ndarray] | None = None,
                 code_tables: Mapping[str, dict] | None = None):
        if len(group_slices) != len(group_states):
            raise PredicateError(
                f"{len(group_slices)} group slices vs {len(group_states)} "
                "state matrices")
        self._values = dict(values_by_attr)
        self._codes = dict(codes_by_attr or {})
        self._code_tables = dict(code_tables or {})
        missing = [attr for attr in self._codes if attr not in self._code_tables]
        if missing:
            raise PredicateError(
                f"discrete attributes {missing} have codes but no "
                "value → code table")
        self._slices = [(int(start), int(stop)) for start, stop in group_slices]
        self._states = list(group_states)
        for (start, stop), states in zip(self._slices, self._states):
            if states is None or len(states) != stop - start:
                raise PredicateError(
                    f"group slice [{start}, {stop}) does not match its "
                    "state matrix")
        self._exact = [exactly_summable(states) for states in self._states]
        self._by_attr: dict[str, list[GroupAttributeIndex]] = {}
        self._by_discrete: dict[str, list[GroupDiscreteIndex]] = {}
        #: Number of attributes indexed so far / seconds spent sorting
        #: and prefix-summing (surfaced through ``scorer_stats``).
        self.build_count = 0
        self.build_seconds = 0.0

    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        return len(self._slices)

    @property
    def n_labeled_rows(self) -> int:
        """Total labeled rows across all groups (the planner's
        profitability denominator)."""
        return sum(stop - start for start, stop in self._slices)

    @property
    def state_size(self) -> int:
        return self._states[0].shape[1] if self._states else 0

    @property
    def all_exact(self) -> bool:
        """Whether every group is exactly summable, i.e. single-clause
        queries never pay a per-matched-row gather (the cost model's
        ``exact`` flag)."""
        return all(self._exact)

    @property
    def attributes_built(self) -> tuple[str, ...]:
        """Attributes with built views (continuous first, then discrete)."""
        return tuple(self._by_attr) + tuple(self._by_discrete)

    def resident_bytes(self) -> int:
        """Bytes of *built view* data across all attributes and tiers.

        Deliberately excludes ``values_by_attr`` / ``codes_by_attr`` /
        ``group_states`` — those arrays are shared with (and accounted
        by) the owning scorer's evaluator and contexts; counting them
        here would double-bill the resident service's memory ledger.
        Views, by contrast, are owned copies (sorted values, permutation
        orders, prefix/bucket matrices) that exist only because the
        index was built.
        """
        total = 0
        for per_group in self._by_attr.values():
            total += sum(view.resident_bytes() for view in per_group)
        for per_group in self._by_discrete.values():
            total += sum(view.resident_bytes() for view in per_group)
        return int(total)

    @property
    def group_slices(self) -> tuple[tuple[int, int], ...]:
        """Each group's ``(start, stop)`` span inside the labeled
        concatenation."""
        return tuple(self._slices)

    def supports(self, attribute: str) -> bool:
        """Whether the attribute is continuous over the labeled rows."""
        return attribute in self._values

    def supports_discrete(self, attribute: str) -> bool:
        """Whether the attribute is a factorized discrete column of the
        labeled rows."""
        return attribute in self._codes

    def supports_clause(self, clause: Clause) -> bool:
        """Whether the clause's attribute has the raw arrays its kind
        needs — a range needs the continuous values, a set clause the
        factorized codes.  Anything else has no prepared index view."""
        if isinstance(clause, RangeClause):
            return self.supports(clause.attribute)
        if isinstance(clause, SetClause):
            return self.supports_discrete(clause.attribute)
        return False

    def prefix_tier_groups(self, attribute: str) -> int:
        """How many of the attribute's group indexes answer in O(1)."""
        return sum(gi.uses_prefix for gi in self.ensure(attribute))

    def bucket_tier_groups(self, attribute: str) -> int:
        """How many of the discrete attribute's group indexes answer
        set clauses from exact per-bucket sums."""
        return sum(gi.uses_buckets for gi in self.ensure_discrete(attribute))

    def n_codes(self, attribute: str) -> int:
        """Distinct codes of a discrete attribute over the labeled rows."""
        try:
            return len(self._code_tables[attribute])
        except KeyError:
            raise PredicateError(
                f"no discrete attribute {attribute!r} in index") from None

    def translate(self, attribute: str, values) -> np.ndarray:
        """Clause values → sorted factorized codes, dropping values the
        labeled rows never take (exactly like the labeled evaluator's
        set-clause translation, so matched row sets agree)."""
        code_of = self._code_tables.get(attribute)
        if code_of is None:
            raise PredicateError(
                f"no discrete attribute {attribute!r} in index")
        return np.asarray(
            sorted(code_of[v] for v in values if v in code_of),
            dtype=np.int64)

    def _active_count(self, active_groups: int | None) -> int:
        """How many leading groups a query scores: all of them, or the
        first ``active_groups`` (the scorer's outlier-only scoring)."""
        if active_groups is None:
            return self.n_groups
        return min(self.n_groups, int(active_groups))

    # ------------------------------------------------------------------
    def ensure(self, attribute: str) -> list[GroupAttributeIndex]:
        """Build (once) and return the attribute's per-group indexes."""
        per_group = self._by_attr.get(attribute)
        if per_group is None:
            try:
                values = self._values[attribute]
            except KeyError:
                raise PredicateError(
                    f"no continuous attribute {attribute!r} in index"
                ) from None
            fault_point("index.build")
            started = time.perf_counter()
            with span("index_build") as sp:
                per_group = [
                    GroupAttributeIndex(values[start:stop], states, exact)
                    for (start, stop), states, exact
                    in zip(self._slices, self._states, self._exact)
                ]
                if sp:
                    sp.annotate(attribute=attribute, kind="range",
                                groups=len(per_group))
            self._by_attr[attribute] = per_group
            self.build_count += 1
            self.build_seconds += time.perf_counter() - started
        return per_group

    def ensure_discrete(self, attribute: str) -> list[GroupDiscreteIndex]:
        """Build (once) and return the discrete attribute's per-group
        code-bucket indexes."""
        per_group = self._by_discrete.get(attribute)
        if per_group is None:
            try:
                codes = self._codes[attribute]
            except KeyError:
                raise PredicateError(
                    f"no discrete attribute {attribute!r} in index"
                ) from None
            n_codes = len(self._code_tables[attribute])
            fault_point("index.build")
            started = time.perf_counter()
            with span("index_build") as sp:
                per_group = [
                    GroupDiscreteIndex(codes[start:stop], n_codes, states,
                                       exact)
                    for (start, stop), states, exact
                    in zip(self._slices, self._states, self._exact)
                ]
                if sp:
                    sp.annotate(attribute=attribute, kind="discrete",
                                groups=len(per_group))
            self._by_discrete[attribute] = per_group
            self.build_count += 1
            self.build_seconds += time.perf_counter() - started
        return per_group

    def range_group_stats(self, attribute: str, los: np.ndarray,
                          his: np.ndarray, closed: np.ndarray,
                          active_groups: int | None = None,
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Matched counts and removed states of ``m`` ranges per group.

        Returns ``(counts, removed)`` with shapes ``(m, n_groups)`` and
        ``(m, n_groups, state_size)``, aligned with the construction-time
        group order — exactly the quantities the scorer's batched
        influence arithmetic consumes.  ``active_groups`` restricts the
        work to the first N groups (the scorer's outlier-only scoring
        skips hold-out groups entirely); the other groups stay zero.
        """
        per_group = self.ensure(attribute)
        m = len(los)
        counts = np.zeros((m, self.n_groups), dtype=np.int64)
        removed = np.zeros((m, self.n_groups, self.state_size),
                           dtype=np.float64)
        for gi in range(self._active_count(active_groups)):
            group_index = per_group[gi]
            a, b = group_index.slice_bounds(los, his, closed)
            counts[:, gi] = b - a
            removed[:, gi, :] = group_index.removed_states(
                a, b, self._states[gi])
        return counts, removed

    def set_group_stats(self, attribute: str,
                        wanted_lists: Sequence[np.ndarray],
                        active_groups: int | None = None,
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Matched counts and removed states of ``m`` set clauses per
        group, each clause given as its sorted wanted-code array (see
        :meth:`translate`).

        Same output contract as :meth:`range_group_stats` (including the
        ``active_groups`` restriction).
        Bucket-tier groups answer with one 0/1-matrix product against
        their exact per-bucket states (every intermediate an exact
        integer, so the blocked BLAS reduction cannot deviate from the
        scalar masked sum); gather-tier groups route the wanted buckets'
        slices through the shared ascending-row gather kernel.
        """
        per_group = self.ensure_discrete(attribute)
        m = len(wanted_lists)
        counts = np.zeros((m, self.n_groups), dtype=np.int64)
        removed = np.zeros((m, self.n_groups, self.state_size),
                           dtype=np.float64)
        if m == 0:
            return counts, removed
        n_codes = len(self._code_tables[attribute])
        # Flattened (clause, bucket) slice bookkeeping, shared by every
        # group of the attribute: which clause owns each wanted bucket.
        owners = np.repeat(
            np.arange(m, dtype=np.int64),
            np.asarray([len(w) for w in wanted_lists], dtype=np.int64))
        flat_wanted = (np.concatenate(wanted_lists)
                       if len(owners) else np.empty(0, dtype=np.int64))
        wanted_matrix = np.zeros((m, n_codes), dtype=np.float64)
        wanted_matrix[owners, flat_wanted] = 1.0
        for gi in range(self._active_count(active_groups)):
            group_index = per_group[gi]
            starts = group_index.offsets[flat_wanted]
            stops = group_index.offsets[flat_wanted + 1]
            counts[:, gi] = np.bincount(
                owners, weights=(stops - starts).astype(np.float64),
                minlength=m).astype(np.int64)
            if group_index.bucket_states is not None:
                removed[:, gi, :] = wanted_matrix @ group_index.bucket_states
            else:
                removed[:, gi, :] = gather_slice_states(
                    group_index.order, starts, stops, owners, m,
                    self._states[gi])
        return counts, removed

    # ------------------------------------------------------------------
    # 2-clause conjunctions (probe the rarer side, mask-test its rows)
    # ------------------------------------------------------------------
    def estimate_clause_count(self, clause: Clause) -> int:
        """Exact matched-row total of one clause over all labeled groups
        — the planner's selectivity estimate.  O(log n) per group for
        ranges, O(|values|) for set clauses, on views that are built
        anyway for the clause itself."""
        return int(self.estimate_clause_counts([clause])[0])

    def estimate_clause_counts(self, clauses: Sequence[Clause]) -> np.ndarray:
        """Exact matched-row totals of many clauses at once.

        The batched form of :meth:`estimate_clause_count`: one
        vectorized ``searchsorted`` (ranges) or bucket-width ``bincount``
        (set clauses) per (kind, attribute, group) instead of a Python
        loop per clause — this is what keeps the planner's cost pass
        negligible next to the scoring it prices.
        """
        out = np.zeros(len(clauses), dtype=np.int64)
        range_ids: dict[str, list[int]] = {}
        set_ids: dict[str, list[int]] = {}
        for j, clause in enumerate(clauses):
            if isinstance(clause, RangeClause):
                range_ids.setdefault(clause.attribute, []).append(j)
            elif isinstance(clause, SetClause):
                set_ids.setdefault(clause.attribute, []).append(j)
            else:
                raise PredicateError(
                    f"cannot estimate clause kind {type(clause).__name__}")
        for attribute, ids in range_ids.items():
            sub = [clauses[j] for j in ids]
            los = np.asarray([c.lo for c in sub], dtype=np.float64)
            his = np.asarray([c.hi for c in sub], dtype=np.float64)
            closed = np.asarray([c.include_hi for c in sub], dtype=bool)
            totals = np.zeros(len(ids), dtype=np.int64)
            for group_index in self.ensure(attribute):
                a, b = group_index.slice_bounds(los, his, closed)
                totals += b - a
            out[np.asarray(ids, dtype=np.int64)] = totals
        for attribute, ids in set_ids.items():
            wanted_lists = [self.translate(attribute, clauses[j].values)
                            for j in ids]
            owners = np.repeat(
                np.arange(len(ids), dtype=np.int64),
                np.asarray([len(w) for w in wanted_lists], dtype=np.int64))
            flat_wanted = (np.concatenate(wanted_lists)
                           if len(owners) else np.empty(0, dtype=np.int64))
            totals = np.zeros(len(ids), dtype=np.int64)
            for group_index in self.ensure_discrete(attribute):
                widths = (group_index.offsets[flat_wanted + 1]
                          - group_index.offsets[flat_wanted])
                totals += np.bincount(
                    owners, weights=widths.astype(np.float64),
                    minlength=len(ids)).astype(np.int64)
            out[np.asarray(ids, dtype=np.int64)] = totals
        return out

    def conjunction_group_stats(self, plans: Sequence[tuple[Clause, Clause]],
                                active_groups: int | None = None,
                                ) -> tuple[np.ndarray, np.ndarray]:
        """Matched counts and removed states of ``m`` 2-clause
        conjunctions per group, each given as ``(probe, other)`` with the
        probe side chosen by the planner.

        Same output contract as :meth:`range_group_stats` (including the
        ``active_groups`` restriction).  Per
        group, every plan's probe clause contributes its sorted slice or
        code buckets as candidate ``(plan, row)`` pairs — one vectorized
        expansion per (probe kind, attribute) family — and only those
        candidates are mask-tested against their plan's other clause
        (one vectorized comparison per (other kind, attribute) family,
        the exact comparison the labeled evaluator would run).  The
        survivors are reduced with the shared ascending-row-order
        scatter-add, so results are bit-for-bit equal to scalar scoring.
        """
        m = len(plans)
        counts = np.zeros((m, self.n_groups), dtype=np.int64)
        removed = np.zeros((m, self.n_groups, self.state_size),
                           dtype=np.float64)
        if m == 0:
            return counts, removed

        # Probe families: one vectorized slice computation per
        # (kind, attribute) pair per group.
        range_probe_ids: dict[str, list[int]] = {}
        set_probe_ids: dict[str, list[int]] = {}
        for j, (probe, _) in enumerate(plans):
            if isinstance(probe, RangeClause):
                range_probe_ids.setdefault(probe.attribute, []).append(j)
            else:
                set_probe_ids.setdefault(probe.attribute, []).append(j)
        probe_specs: list[tuple] = []
        for attribute, ids in range_probe_ids.items():
            clauses = [plans[j][0] for j in ids]
            probe_specs.append((
                "range", attribute, np.asarray(ids, dtype=np.int64),
                np.asarray([c.lo for c in clauses], dtype=np.float64),
                np.asarray([c.hi for c in clauses], dtype=np.float64),
                np.asarray([c.include_hi for c in clauses], dtype=bool),
            ))
        for attribute, ids in set_probe_ids.items():
            wanted_lists = [self.translate(attribute, plans[j][0].values)
                            for j in ids]
            bucket_owners = np.repeat(
                np.asarray(ids, dtype=np.int64),
                np.asarray([len(w) for w in wanted_lists], dtype=np.int64))
            flat_wanted = (np.concatenate(wanted_lists)
                           if len(bucket_owners)
                           else np.empty(0, dtype=np.int64))
            probe_specs.append(("set", attribute, bucket_owners, flat_wanted))

        # Other-side families: per-plan comparison parameters gathered
        # through the candidate rows' owner ids.
        families: list[tuple[str, str]] = []
        family_ids: dict[tuple[str, str], int] = {}
        family_of_plan = np.empty(m, dtype=np.int64)
        other_lo = np.zeros(m, dtype=np.float64)
        other_hi = np.zeros(m, dtype=np.float64)
        other_closed = np.zeros(m, dtype=bool)
        set_lookups: dict[str, np.ndarray] = {}
        for j, (_, other) in enumerate(plans):
            if isinstance(other, RangeClause):
                key = ("range", other.attribute)
                other_lo[j] = other.lo
                other_hi[j] = other.hi
                other_closed[j] = other.include_hi
            else:
                key = ("set", other.attribute)
                lookup = set_lookups.get(other.attribute)
                if lookup is None:
                    lookup = np.zeros((m, self.n_codes(other.attribute)),
                                      dtype=bool)
                    set_lookups[other.attribute] = lookup
                lookup[j, self.translate(other.attribute, other.values)] = True
            fid = family_ids.setdefault(key, len(family_ids))
            if fid == len(families):
                families.append(key)
            family_of_plan[j] = fid

        for gi in range(self._active_count(active_groups)):
            start, stop = self._slices[gi]
            owner_chunks: list[np.ndarray] = []
            row_chunks: list[np.ndarray] = []
            for spec in probe_specs:
                if spec[0] == "range":
                    _, attribute, ids, los, his, closed = spec
                    group_index = self.ensure(attribute)[gi]
                    a, b = group_index.slice_bounds(los, his, closed)
                    owners, rows = expand_slices(group_index.order, a, b, ids)
                else:
                    _, attribute, bucket_owners, flat_wanted = spec
                    group_index = self.ensure_discrete(attribute)[gi]
                    owners, rows = expand_slices(
                        group_index.order,
                        group_index.offsets[flat_wanted],
                        group_index.offsets[flat_wanted + 1],
                        bucket_owners)
                if len(rows):
                    owner_chunks.append(owners)
                    row_chunks.append(rows)
            if not row_chunks:
                continue
            owners_all = np.concatenate(owner_chunks)
            rows_all = np.concatenate(row_chunks)
            global_rows = rows_all + start
            test = np.zeros(len(rows_all), dtype=bool)
            family_per_row = family_of_plan[owners_all]
            for fid, (kind, attribute) in enumerate(families):
                sel = family_per_row == fid
                if not sel.any():
                    continue
                sub_owners = owners_all[sel]
                if kind == "range":
                    values = self._values[attribute][global_rows[sel]]
                    below = np.where(other_closed[sub_owners],
                                     values <= other_hi[sub_owners],
                                     values < other_hi[sub_owners])
                    test[sel] = (values >= other_lo[sub_owners]) & below
                else:
                    codes = self._codes[attribute][global_rows[sel]]
                    test[sel] = set_lookups[attribute][sub_owners, codes]
            group_counts, group_removed = accumulate_owner_rows(
                owners_all[test], rows_all[test], m, stop - start,
                self._states[gi])
            counts[:, gi] = group_counts
            removed[:, gi, :] = group_removed
        return counts, removed
