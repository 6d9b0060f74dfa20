"""Typed columns backed by numpy arrays.

Continuous columns store ``float64``; discrete columns store arbitrary
Python values via a numpy ``object`` array (small-cardinality categorical
data — sensor ids, state codes, recipient names).  Columns expose exactly
the vectorized operations the predicate evaluator needs: range masks for
continuous data and membership masks for discrete data.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.table.schema import ColumnKind, ColumnSpec


class Column:
    """One named, typed column of values.

    Instances are treated as immutable: all deriving operations (``take``,
    ``filter``) return new columns, and the backing array is flagged
    read-only to catch accidental mutation.

    >>> col = Column(ColumnSpec("temp", ColumnKind.CONTINUOUS), [34, 35, 100])
    >>> col.range_mask(30, 40).tolist()
    [True, True, False]
    """

    def __init__(self, spec: ColumnSpec, values: Iterable):
        self._spec = spec
        if spec.is_continuous:
            array = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                               dtype=np.float64)
            if array.ndim != 1:
                raise SchemaError(f"column {spec.name!r} values must be one-dimensional")
        else:
            if isinstance(values, np.ndarray) and values.dtype == object:
                array = values.copy()
            else:
                listed = list(values)
                array = np.empty(len(listed), dtype=object)
                for i, value in enumerate(listed):
                    array[i] = value
            if array.ndim != 1:
                raise SchemaError(f"column {spec.name!r} values must be one-dimensional")
        array.setflags(write=False)
        self._values = array
        # Lazy factorization for fast membership masks on discrete columns.
        self._codes: np.ndarray | None = None
        self._code_of: dict | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def spec(self) -> ColumnSpec:
        return self._spec

    @property
    def name(self) -> str:
        return self._spec.name

    @property
    def kind(self) -> ColumnKind:
        return self._spec.kind

    @property
    def values(self) -> np.ndarray:
        """The read-only backing array."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator:
        return iter(self._values)

    def __getitem__(self, index: int):
        return self._values[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self._spec != other._spec or len(self) != len(other):
            return False
        if self._spec.is_continuous:
            return bool(np.array_equal(self._values, other._values, equal_nan=True))
        return bool(np.array_equal(self._values, other._values))

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self._values[:4])
        suffix = ", ..." if len(self) > 4 else ""
        return f"Column({self.name!r}, {self.kind.value}, [{preview}{suffix}], n={len(self)})"

    # ------------------------------------------------------------------
    # Derivations
    # ------------------------------------------------------------------
    def take(self, indices: Sequence[int] | np.ndarray) -> "Column":
        """New column with rows selected by integer ``indices``."""
        return Column(self._spec, self._values[np.asarray(indices)])

    def filter(self, mask: np.ndarray) -> "Column":
        """New column with rows where boolean ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self._values.shape:
            raise SchemaError(
                f"mask length {mask.shape} does not match column length {self._values.shape}"
            )
        return Column(self._spec, self._values[mask])

    # ------------------------------------------------------------------
    # Predicate support
    # ------------------------------------------------------------------
    def range_mask(self, lo: float, hi: float, include_hi: bool = True) -> np.ndarray:
        """Boolean mask of rows with ``lo <= value <= hi`` (or ``< hi``).

        Only valid for continuous columns; range clauses over discrete
        columns are a schema error by construction (paper Section 3.1).
        """
        if not self._spec.is_continuous:
            raise SchemaError(f"range mask on discrete column {self.name!r}")
        if include_hi:
            return (self._values >= lo) & (self._values <= hi)
        return (self._values >= lo) & (self._values < hi)

    def codes(self) -> tuple[np.ndarray, dict]:
        """Integer codes of the rows and the value → code table.

        Codes follow first appearance, and two rows share a code exactly
        when their values are the same ``dict`` key: equal values do,
        and so does a NaN object with itself, but not with another NaN.
        Built on first use and cached.
        """
        if self._codes is None:
            self._factorize()
        assert self._code_of is not None and self._codes is not None
        return self._codes, self._code_of

    def _factorize(self) -> None:
        """Build the integer-code view used for fast membership masks."""
        code_of: dict = {}
        codes = np.empty(len(self._values), dtype=np.int64)
        for i, value in enumerate(self._values):
            code = code_of.get(value)
            if code is None:
                code = len(code_of)
                code_of[value] = code
            codes[i] = code
        codes.setflags(write=False)
        self._codes = codes
        self._code_of = code_of

    def notnull_mask(self) -> np.ndarray:
        """Boolean mask of rows holding a non-null value.

        ``None`` and float NaN count as null (a discrete object column
        loaded from messy data can hold either).  Continuous columns
        treat NaN as null, matching SQL semantics.
        """
        if self._spec.is_continuous:
            return ~np.isnan(self._values)
        mask = np.empty(len(self._values), dtype=bool)
        for i, value in enumerate(self._values):
            mask[i] = not (
                value is None
                or (isinstance(value, float) and value != value)
            )
        return mask

    def membership_mask(self, allowed: Iterable) -> np.ndarray:
        """Boolean mask of rows whose value is in ``allowed`` (discrete only).

        The first call factorizes the column into integer codes; subsequent
        calls are a vectorized ``np.isin`` over those codes, which matters
        because the partitioning algorithms evaluate thousands of
        set-containment clauses against the same column.
        """
        if not self._spec.is_discrete:
            raise SchemaError(f"membership mask on continuous column {self.name!r}")
        codes, code_of = self.codes()
        allowed_codes = [code_of[v] for v in allowed if v in code_of]
        if not allowed_codes:
            return np.zeros(len(self._values), dtype=bool)
        return np.isin(codes, np.asarray(allowed_codes, dtype=np.int64))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def distinct(self) -> list:
        """Sorted distinct values (lexicographic fallback for mixed types)."""
        if self._spec.is_continuous:
            return sorted(set(float(v) for v in self._values))
        try:
            return sorted(set(self._values))
        except TypeError:
            return sorted(set(self._values), key=repr)

    def min(self) -> float:
        """Smallest value, ignoring missing (NaN) ones."""
        return self._extreme(np.min, np.fmin, "min")

    def max(self) -> float:
        """Largest value, ignoring missing (NaN) ones."""
        return self._extreme(np.max, np.fmax, "max")

    def _extreme(self, reduce, skip_nan: np.ufunc, op: str) -> float:
        if not self._spec.is_continuous:
            raise SchemaError(f"{op}() on discrete column {self.name!r}")
        if len(self._values) == 0:
            raise SchemaError(f"{op}() on empty column {self.name!r}")
        value = float(reduce(self._values))
        if np.isnan(value):
            # A value is missing: ``fmin`` / ``fmax`` let any number win
            # over NaN.  NaN-free columns keep ``np.min`` / ``np.max``,
            # whose pick between 0.0 and -0.0 can differ from theirs.
            value = float(skip_nan.reduce(self._values))
            if np.isnan(value):
                raise SchemaError(
                    f"{op}() on column {self.name!r}: every value is missing")
        return value

    def cardinality(self) -> int:
        """Number of distinct values."""
        return len(set(self._values))
