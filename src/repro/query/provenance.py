"""Backwards provenance for aggregate results (Figure 2's Provenance box).

For group-by queries over a single table the provenance of a result is
simply its input group — the rows sharing its group-by key — which the
query engine already records on every :class:`AggregateResult`.  This
component packages that mapping behind the interface the rest of the
system uses: resolve user-selected outlier/hold-out results to their
input groups, and take unions across selections (the paper's ``g_X``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import QueryError
from repro.query.result import AggregateResult, ResultSet
from repro.table.table import Table


class Provenance:
    """Maps labeled aggregate results back to input rows of ``D``.

    Parameters
    ----------
    table:
        The effective input relation (after any WHERE clause) the query
        ran over.
    results:
        The query's result set; its provenance indices must refer to
        ``table``.
    """

    def __init__(self, table: Table, results: ResultSet):
        self._table = table
        self._results = results
        for result in results:
            if len(result.indices) and int(np.max(result.indices)) >= len(table):
                raise QueryError(
                    f"result {result.key!r} references row "
                    f"{int(np.max(result.indices))} outside the table"
                )

    @property
    def table(self) -> Table:
        return self._table

    @property
    def results(self) -> ResultSet:
        return self._results

    def resolve(self, selection: Iterable) -> list[AggregateResult]:
        """Normalize a user selection to result objects.

        Accepts :class:`AggregateResult` instances, group keys (tuples),
        or scalar group keys.
        """
        resolved = []
        for item in selection:
            if isinstance(item, AggregateResult):
                if item.key not in {r.key for r in self._results}:
                    raise QueryError(f"result {item.key!r} is not part of this query")
                resolved.append(self._results.by_key(item.key))
            else:
                resolved.append(self._results.by_key(item))
        return resolved

    def union_input_group(self, results: Sequence[AggregateResult]) -> np.ndarray:
        """``g_X = ∪_{x∈X} g_x`` as a sorted, de-duplicated index array."""
        if not results:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([r.indices for r in results]))

    def input_rows(self, result: AggregateResult) -> Table:
        """The input group materialized as a table (for display/debugging)."""
        return self._table.take(result.indices)
