"""Exception hierarchy for the Scorpion reproduction.

Every error raised by this package derives from :class:`ScorpionError` so
callers can catch library failures with a single ``except`` clause while
still distinguishing the common failure families below.
"""

from __future__ import annotations


class ScorpionError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(ScorpionError):
    """A table, column, or query referenced the schema inconsistently.

    Raised for unknown column names, duplicate column names, length
    mismatches between columns, and type mismatches between a column and
    the values supplied for it.
    """


class QueryError(ScorpionError):
    """A group-by query or SQL string was malformed or unexecutable."""


class PredicateError(ScorpionError):
    """A predicate was constructed or combined inconsistently.

    Examples: a range clause with ``lo > hi``, two clauses over the same
    attribute in one conjunction, or merging clauses of different kinds.
    """


class AggregateError(ScorpionError):
    """An aggregate function was misused.

    Raised when an aggregate is evaluated on an empty input where its
    value is undefined, when incremental removal is requested from an
    aggregate that does not support it, or when ``remove`` would produce
    a state describing a negative number of rows.
    """


class PartitionerError(ScorpionError):
    """A partitioning algorithm received an unusable problem instance."""


class DatasetError(ScorpionError):
    """A synthetic dataset generator received inconsistent parameters."""


class ResourceExhausted(ScorpionError):
    """The service ran out of a bounded resource and shedding did not
    help.

    Raised when a problem build hits :class:`MemoryError` even after
    the cache shed every unpinned entry and the build was retried once
    (serve mode maps it to the structured ``oom_retry`` error code).
    """
