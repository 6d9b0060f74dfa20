"""Scorpion — Explaining Away Outliers in Aggregate Queries.

A from-scratch reproduction of Wu & Madden (VLDB 2013).  Typical use::

    from repro import (ColumnKind, ColumnSpec, GroupByQuery, Schema,
                       Scorpion, ScorpionQuery, Table, get_aggregate)

    table = Table.from_rows(schema, rows)
    query = GroupByQuery("time", get_aggregate("avg"), "temp")
    problem = ScorpionQuery(table, query, outliers=["12PM", "1PM"],
                            holdouts=["11AM"], error_vectors=+1.0)
    result = Scorpion().explain(problem)
    print(result.best.predicate)

The README's Architecture and Layout sections map the pipeline to modules.
"""

from repro.aggregates import (
    AggregateFunction,
    Avg,
    Count,
    Max,
    Median,
    Min,
    StdDev,
    Sum,
    Variance,
    get_aggregate,
    list_aggregates,
    register_aggregate,
)
from repro.core import (
    CExplorer,
    DTPartitioner,
    Explanation,
    InfluenceScorer,
    MCPartitioner,
    Merger,
    NaivePartitioner,
    Scorpion,
    ScorpionQuery,
    ScorpionResult,
)
from repro.errors import (
    AggregateError,
    DatasetError,
    PartitionerError,
    PredicateError,
    QueryError,
    SchemaError,
    ScorpionError,
)
from repro.predicates import Domain, Predicate, RangeClause, SetClause
from repro.query import GroupByQuery, Provenance, ResultSet, parse_query
from repro.service import ExplainService
from repro.table import ColumnKind, ColumnSpec, Schema, Table, read_csv, write_csv

__version__ = "1.0.0"

__all__ = [
    "AggregateError",
    "AggregateFunction",
    "Avg",
    "CExplorer",
    "ColumnKind",
    "ColumnSpec",
    "Count",
    "DatasetError",
    "Domain",
    "DTPartitioner",
    "ExplainService",
    "Explanation",
    "GroupByQuery",
    "InfluenceScorer",
    "Max",
    "MCPartitioner",
    "Median",
    "Merger",
    "Min",
    "NaivePartitioner",
    "PartitionerError",
    "Predicate",
    "PredicateError",
    "Provenance",
    "QueryError",
    "RangeClause",
    "ResultSet",
    "Schema",
    "SchemaError",
    "Scorpion",
    "ScorpionError",
    "ScorpionQuery",
    "ScorpionResult",
    "SetClause",
    "StdDev",
    "Sum",
    "Table",
    "Variance",
    "get_aggregate",
    "list_aggregates",
    "parse_query",
    "read_csv",
    "register_aggregate",
    "write_csv",
]
