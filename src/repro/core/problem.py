"""The Influential Predicates problem instance (paper Section 3.3).

A :class:`ScorpionQuery` bundles everything the user supplies — the input
table, the group-by aggregate query, the outlier set ``O`` with error
vectors ``V``, the hold-out set ``H``, the trade-off ``λ`` and the
Section 7 knob ``c`` — validates it, and derives the objects the search
needs: the effective input relation ``D`` (WHERE applied), the query
results with provenance, and the explanation-attribute domain ``A_rest``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.errors import PartitionerError, QueryError
from repro.predicates.space import Domain
from repro.query.groupby import GroupByQuery
from repro.query.provenance import Provenance
from repro.query.result import AggregateResult, ResultSet
from repro.table.table import Table


class ScorpionQuery:
    """A validated problem instance for the influential-predicates search.

    Parameters
    ----------
    table:
        The raw input relation (before any WHERE clause).
    query:
        The group-by aggregate query the user ran.
    outliers:
        Results the user flagged as outliers — group keys (scalars or
        tuples) or :class:`AggregateResult` objects.  Must be non-empty.
    holdouts:
        Results the user flagged as normal; disjoint from ``outliers``.
    error_vectors:
        Either a single float applied to every outlier (+1 = "too high",
        −1 = "too low") or a mapping from group key to float.
    lam:
        ``λ ∈ [0, 1]`` — weight of outlier influence versus hold-out
        perturbation (Section 3.2).
    c:
        The Section 7 exponent trading predicate size against aggregate
        change; ``c ≥ 0``.
    c_holdout:
        Exponent for hold-out influence; defaults to ``c``.
    attributes:
        Explicit explanation attributes (``A_rest``).  Defaults to every
        attribute not used by the query.
    ignore:
        Attributes to exclude from the default ``A_rest`` (Section 6.4's
        user-specified ignore list).
    perturbation:
        How a predicate "acts on" matched tuples when influence is
        evaluated.  ``"delete"`` (the paper's formulation) removes them;
        ``"mean"`` implements the alternative the paper's Section 3.2
        footnote raises but does not explore — matched tuples keep their
        row but their aggregate attribute is imputed to the group mean,
        so group cardinalities never change and even group-covering
        predicates stay well-defined.
    """

    PERTURBATIONS = ("delete", "mean")

    def __init__(self, table: Table, query: GroupByQuery, outliers: Iterable,
                 holdouts: Iterable = (), error_vectors: float | Mapping = 1.0,
                 lam: float = 0.5, c: float = 1.0, c_holdout: float | None = None,
                 attributes: Sequence[str] | None = None, ignore: Sequence[str] = (),
                 perturbation: str = "delete"):
        if not 0.0 <= lam <= 1.0:
            raise PartitionerError(f"lambda must be in [0, 1], got {lam}")
        if c < 0:
            raise PartitionerError(f"c must be non-negative, got {c}")
        if c_holdout is not None and c_holdout < 0:
            raise PartitionerError(f"c_holdout must be non-negative, got {c_holdout}")
        if perturbation not in self.PERTURBATIONS:
            raise PartitionerError(
                f"perturbation must be one of {self.PERTURBATIONS}, "
                f"got {perturbation!r}")
        self.raw_table = table
        self.query = query
        self.lam = float(lam)
        self.c = float(c)
        self.c_holdout = float(c) if c_holdout is None else float(c_holdout)
        self.perturbation = perturbation

        #: The effective input relation ``D`` (WHERE clause applied).
        self.table: Table = query.filtered(table)
        #: Query output ``α`` with provenance into :attr:`table`.
        self.results: ResultSet = query.execute(table)
        self.provenance = Provenance(self.table, self.results)

        self.outlier_results: list[AggregateResult] = self.provenance.resolve(outliers)
        self.holdout_results: list[AggregateResult] = self.provenance.resolve(holdouts)
        if not self.outlier_results:
            raise QueryError("at least one outlier result is required")
        outlier_keys = {r.key for r in self.outlier_results}
        if len(outlier_keys) != len(self.outlier_results):
            raise QueryError("duplicate outlier selections")
        holdout_keys = {r.key for r in self.holdout_results}
        if len(holdout_keys) != len(self.holdout_results):
            raise QueryError("duplicate hold-out selections")
        overlap = outlier_keys & holdout_keys
        if overlap:
            raise QueryError(f"results {sorted(overlap)} are both outlier and hold-out")

        #: ``V`` — error vector per outlier key.
        self.error_vectors: dict[tuple, float] = self._resolve_error_vectors(error_vectors)

        if attributes is not None:
            attributes = tuple(attributes)
            reserved = set(query.group_by) | {query.agg_column}
            bad = [a for a in attributes if a in reserved]
            if bad:
                raise QueryError(
                    f"attributes {bad} are used by the query and cannot form predicates"
                )
            for name in attributes:
                self.table.schema[name]
            self.attributes: tuple[str, ...] = attributes
        else:
            self.attributes = query.rest_attributes(self.table, ignore=ignore)
        if not self.attributes:
            raise PartitionerError(
                "no explanation attributes remain; widen the table or the "
                "attributes/ignore arguments"
            )
        #: Observed domain of ``A_rest``.
        self.domain = Domain.from_table(self.table, self.attributes)

    def _resolve_error_vectors(self, error_vectors: float | Mapping) -> dict[tuple, float]:
        if isinstance(error_vectors, Mapping):
            resolved = {}
            for result in self.outlier_results:
                candidates = [result.key]
                if len(result.key) == 1:
                    candidates.append(result.key[0])
                for key in candidates:
                    if key in error_vectors:
                        resolved[result.key] = float(error_vectors[key])
                        break
                else:
                    raise QueryError(f"no error vector for outlier {result.key!r}")
            return resolved
        direction = float(error_vectors)
        return {r.key: direction for r in self.outlier_results}

    # ------------------------------------------------------------------
    # Shortcuts used throughout the core
    # ------------------------------------------------------------------
    @property
    def aggregate(self):
        return self.query.aggregate

    @property
    def agg_column(self) -> str:
        return self.query.agg_column

    @property
    def outlier_keys(self) -> list[tuple]:
        return [r.key for r in self.outlier_results]

    @property
    def holdout_keys(self) -> list[tuple]:
        return [r.key for r in self.holdout_results]

    def replace(self, **changes) -> "ScorpionQuery":
        """A new problem built from this one's constructor arguments, with
        ``changes`` overriding some of them (the group-by, provenance and
        domain are rebuilt)."""
        arguments = dict(
            table=self.raw_table,
            query=self.query,
            outliers=self.outlier_keys,
            holdouts=self.holdout_keys,
            error_vectors=self.error_vectors,
            lam=self.lam,
            c=self.c,
            c_holdout=self.c_holdout,
            attributes=self.attributes,
            perturbation=self.perturbation,
        )
        arguments.update(changes)
        return ScorpionQuery(**arguments)

    def with_c(self, c: float, c_holdout: float | None = None) -> "ScorpionQuery":
        """A copy of this problem with a different ``c`` (the Section 8.3.3
        caching experiments sweep ``c`` over an otherwise fixed query)."""
        return self.replace(c=c, c_holdout=c_holdout)

    def with_params(self, c: float | None = None,
                    c_holdout: float | None = None,
                    lam: float | None = None) -> "ScorpionQuery":
        """A copy with different search scalars but *shared* derived state.

        Unlike :meth:`with_c` — which re-runs the group-by, provenance,
        and domain construction from scratch — this rebinds only the
        knobs no derived artifact depends on (``c`` scales influence
        denominators, ``λ`` weights the fold; the query results,
        provenance, contexts, and attribute domain are all agnostic to
        them).  The resident :class:`~repro.service.ExplainService`
        leans on this to serve a ``c`` sweep from one cached problem
        image.
        """
        if lam is not None and not 0.0 <= lam <= 1.0:
            raise PartitionerError(f"lambda must be in [0, 1], got {lam}")
        if c is not None and c < 0:
            raise PartitionerError(f"c must be non-negative, got {c}")
        if c_holdout is not None and c_holdout < 0:
            raise PartitionerError(
                f"c_holdout must be non-negative, got {c_holdout}")
        clone = object.__new__(ScorpionQuery)
        clone.__dict__.update(self.__dict__)
        if c is not None:
            clone.c = float(c)
            # Mirror the constructor: an unspecified c_holdout follows c.
            clone.c_holdout = float(c) if c_holdout is None else float(c_holdout)
        elif c_holdout is not None:
            clone.c_holdout = float(c_holdout)
        if lam is not None:
            clone.lam = float(lam)
        return clone

    def __repr__(self) -> str:
        return (f"ScorpionQuery({self.query!r}, outliers={len(self.outlier_results)}, "
                f"holdouts={len(self.holdout_results)}, lam={self.lam}, c={self.c})")
