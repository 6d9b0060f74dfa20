"""A mini SQL dialect for the paper's query shapes.

Supported grammar (case-insensitive keywords)::

    SELECT <agg>(<column>) [, <column> ...]
    FROM <table>
    [WHERE <column> <op> <literal> [AND ...]]
    GROUP BY <column> [, <column> ...]

with ``<op>`` one of ``= != < <= > >=`` and literals either numbers or
single-quoted strings.  This covers all three queries in the paper
(Q1, the Intel STDDEV template, and the expenses SUM query).  The parser
returns a :class:`ParsedQuery`; call :meth:`ParsedQuery.to_query` to get
an executable :class:`~repro.query.groupby.GroupByQuery`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.aggregates.registry import get_aggregate
from repro.errors import QueryError
from repro.query.groupby import GroupByQuery
from repro.table.table import Table

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<string>'(?:[^']|'')*')      |
        (?P<number>-?(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?) |
        (?P<op><=|>=|!=|<>|=|<|>)       |
        (?P<punct>[(),])                |
        (?P<word>[A-Za-z_][A-Za-z_0-9.]*)
    )""",
    re.VERBOSE,
)

_COMPARATORS: dict[str, Callable[[np.ndarray, object], np.ndarray]] = {
    "=": lambda col, lit: col == lit,
    "!=": lambda col, lit: col != lit,
    "<>": lambda col, lit: col != lit,
    "<": lambda col, lit: col < lit,
    "<=": lambda col, lit: col <= lit,
    ">": lambda col, lit: col > lit,
    ">=": lambda col, lit: col >= lit,
}


@dataclass(frozen=True)
class Condition:
    """One ``column op literal`` WHERE condition."""

    column: str
    op: str
    literal: object

    def mask(self, table: Table) -> np.ndarray:
        column = table.column(self.column)
        literal = self.literal
        if column.spec.is_continuous:
            if isinstance(literal, str):
                raise QueryError(
                    f"string literal {literal!r} compared against continuous "
                    f"column {self.column!r}"
                )
            return _COMPARATORS[self.op](column.values, float(literal))
        if self.op in ("<", "<=", ">", ">="):
            raise QueryError(
                f"ordering comparison {self.op!r} on discrete column {self.column!r}"
            )
        if self.op == "=":
            return column.membership_mask([literal])
        # SQL three-valued logic: ``x != lit`` is NULL (i.e. false in a
        # WHERE clause) when x is NULL, so missing values never match a
        # negated equality — matching DuckDB and every SQL engine.
        return ~column.membership_mask([literal]) & column.notnull_mask()


@dataclass(frozen=True)
class ParsedQuery:
    """Outcome of :func:`parse_query`."""

    aggregate_name: str
    agg_column: str
    group_by: tuple[str, ...]
    table_name: str
    conditions: tuple[Condition, ...]
    select_columns: tuple[str, ...]

    def where(self, table: Table) -> np.ndarray:
        mask = np.ones(len(table), dtype=bool)
        for condition in self.conditions:
            mask &= condition.mask(table)
        return mask

    def to_query(self) -> GroupByQuery:
        """Build the executable :class:`GroupByQuery`."""
        where = None
        if self.conditions:
            conditions = self.conditions

            def where(table: Table, conditions=conditions) -> np.ndarray:
                mask = np.ones(len(table), dtype=bool)
                for condition in conditions:
                    mask &= condition.mask(table)
                return mask

        return GroupByQuery(
            group_by=self.group_by,
            aggregate=get_aggregate(self.aggregate_name),
            agg_column=self.agg_column,
            where=where,
        )


class _Tokens:
    """Token stream with one-token lookahead."""

    def __init__(self, text: str):
        self._tokens: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                if text[pos:].strip() == "":
                    break
                raise QueryError(f"cannot tokenize SQL at: {text[pos:pos + 20]!r}")
            pos = match.end()
            for kind in ("string", "number", "op", "punct", "word"):
                value = match.group(kind)
                if value is not None:
                    self._tokens.append((kind, value))
                    break
        self._index = 0

    def peek(self) -> tuple[str, str] | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def next(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise QueryError("unexpected end of SQL input")
        self._index += 1
        return token

    def expect_word(self, *keywords: str) -> str:
        kind, value = self.next()
        if kind != "word" or (keywords and value.upper() not in keywords):
            raise QueryError(f"expected {' or '.join(keywords) or 'identifier'}, got {value!r}")
        return value

    def expect_punct(self, symbol: str) -> None:
        kind, value = self.next()
        if kind != "punct" or value != symbol:
            raise QueryError(f"expected {symbol!r}, got {value!r}")

    def at_keyword(self, keyword: str) -> bool:
        token = self.peek()
        return token is not None and token[0] == "word" and token[1].upper() == keyword

    def exhausted(self) -> bool:
        return self.peek() is None


def _parse_literal(tokens: _Tokens) -> object:
    kind, value = tokens.next()
    if kind == "string":
        return value[1:-1].replace("''", "'")
    if kind == "number":
        # Integer literals stay ``int``: discrete columns are coded by
        # exact Python values, so set membership must compare against
        # the same typed literal the column holds.
        if any(ch in value for ch in ".eE"):
            return float(value)
        return int(value)
    raise QueryError(f"expected a literal, got {value!r}")


def parse_query(sql: str) -> ParsedQuery:
    """Parse a SQL string in the supported dialect.

    >>> q = parse_query("SELECT avg(temp) FROM sensors GROUP BY time")
    >>> q.aggregate_name, q.agg_column, q.group_by
    ('avg', 'temp', ('time',))
    """
    tokens = _Tokens(sql)
    tokens.expect_word("SELECT")
    aggregate_name = tokens.expect_word()
    tokens.expect_punct("(")
    agg_column = tokens.expect_word()
    tokens.expect_punct(")")
    select_columns: list[str] = []
    while tokens.peek() == ("punct", ","):
        tokens.next()
        select_columns.append(tokens.expect_word())
    tokens.expect_word("FROM")
    table_name = tokens.expect_word()

    conditions: list[Condition] = []
    if tokens.at_keyword("WHERE"):
        tokens.next()
        while True:
            column = tokens.expect_word()
            kind, op = tokens.next()
            if kind != "op":
                raise QueryError(f"expected a comparison operator, got {op!r}")
            literal = _parse_literal(tokens)
            conditions.append(Condition(column, op, literal))
            if tokens.at_keyword("AND"):
                tokens.next()
                continue
            break

    tokens.expect_word("GROUP")
    tokens.expect_word("BY")
    group_by = [tokens.expect_word()]
    while tokens.peek() == ("punct", ","):
        tokens.next()
        group_by.append(tokens.expect_word())
    if not tokens.exhausted():
        raise QueryError(f"trailing tokens after GROUP BY: {tokens.peek()!r}")

    extra = [c for c in select_columns if c not in group_by]
    if extra:
        raise QueryError(
            f"non-aggregated SELECT columns {extra} must appear in GROUP BY"
        )
    return ParsedQuery(
        aggregate_name=aggregate_name,
        agg_column=agg_column,
        group_by=tuple(group_by),
        table_name=table_name,
        conditions=tuple(conditions),
        select_columns=tuple(select_columns),
    )
