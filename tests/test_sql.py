"""Unit tests for the mini SQL parser."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.query.sql import Condition, parse_query
from repro.table import ColumnKind, ColumnSpec, Schema, Table


class TestParsing:
    def test_q1(self):
        q = parse_query("SELECT avg(temp) FROM sensors GROUP BY time")
        assert q.aggregate_name == "avg"
        assert q.agg_column == "temp"
        assert q.group_by == ("time",)
        assert q.table_name == "sensors"
        assert q.conditions == ()

    def test_keywords_case_insensitive(self):
        q = parse_query("select SUM(v) from t group by g")
        assert q.aggregate_name == "SUM"
        assert q.group_by == ("g",)

    def test_expenses_query(self):
        q = parse_query(
            "SELECT sum(disb_amt) FROM expenses "
            "WHERE candidate = 'Obama' GROUP BY date")
        assert q.conditions[0].column == "candidate"
        assert q.conditions[0].literal == "Obama"

    def test_numeric_conditions_and_conjunction(self):
        q = parse_query(
            "SELECT stddev(temp) FROM readings "
            "WHERE time >= 10 AND time <= 20 GROUP BY hour")
        assert len(q.conditions) == 2
        assert q.conditions[0].op == ">="
        assert q.conditions[1].literal == 20.0

    def test_escaped_quote_in_string(self):
        q = parse_query("SELECT sum(v) FROM t WHERE n = 'O''Brien' GROUP BY g")
        assert q.conditions[0].literal == "O'Brien"

    def test_multi_group_by(self):
        q = parse_query("SELECT avg(v) FROM t GROUP BY a, b")
        assert q.group_by == ("a", "b")

    def test_select_extra_columns_must_be_grouped(self):
        q = parse_query("SELECT avg(v), g FROM t GROUP BY g")
        assert q.select_columns == ("g",)
        with pytest.raises(QueryError):
            parse_query("SELECT avg(v), other FROM t GROUP BY g")


class TestLiterals:
    """Typed-literal contract: what the parser produces is what the
    condition masks compare against."""

    def test_integer_literal_stays_int(self):
        q = parse_query("SELECT avg(v) FROM t WHERE a = 5 GROUP BY g")
        assert q.conditions[0].literal == 5
        assert type(q.conditions[0].literal) is int

    def test_float_literal_stays_float(self):
        q = parse_query("SELECT avg(v) FROM t WHERE a = 5.25 GROUP BY g")
        assert q.conditions[0].literal == 5.25
        assert type(q.conditions[0].literal) is float

    def test_leading_dot_float(self):
        q = parse_query("SELECT avg(v) FROM t WHERE a >= .5 GROUP BY g")
        assert q.conditions[0].literal == 0.5
        assert type(q.conditions[0].literal) is float

    def test_scientific_notation_is_float(self):
        q = parse_query(
            "SELECT avg(v) FROM t WHERE a < 1e3 AND b > 2.5E-2 GROUP BY g")
        assert q.conditions[0].literal == 1000.0
        assert type(q.conditions[0].literal) is float
        assert q.conditions[1].literal == 0.025

    def test_negative_integer_stays_int(self):
        q = parse_query("SELECT avg(v) FROM t WHERE a > -3 GROUP BY g")
        assert q.conditions[0].literal == -3
        assert type(q.conditions[0].literal) is int

    def test_sql_spelled_not_equal(self):
        q = parse_query("SELECT avg(v) FROM t WHERE a <> 7 GROUP BY g")
        assert q.conditions[0].op == "<>"
        assert q.conditions[0].literal == 7

    def test_int_literal_matches_int_coded_discrete(self, sensors_table):
        # sensorid values are Python ints; the old float coercion made
        # `sensorid = 3` compare 3.0 against int codes.
        q = parse_query(
            "SELECT avg(temp) FROM sensors WHERE sensorid = 3 GROUP BY time"
        ).to_query()
        results = q.execute(sensors_table)
        assert sum(r.group_size for r in results) == 3


def _nullable_table() -> Table:
    schema = Schema([
        ColumnSpec("g", ColumnKind.DISCRETE),
        ColumnSpec("state", ColumnKind.DISCRETE),
        ColumnSpec("v", ColumnKind.CONTINUOUS),
    ])
    return Table.from_rows(schema, [
        ("a", "TX", 1.0),
        ("a", None, 2.0),
        ("a", "CA", 3.0),
        ("b", float("nan"), 4.0),
        ("b", "TX", 5.0),
    ])


class TestNullSemantics:
    """Discrete ``!=`` must not match missing values — SQL three-valued
    logic."""

    def test_not_equal_excludes_missing_discrete_values(self):
        schema = Schema([
            ColumnSpec("g", ColumnKind.DISCRETE),
            ColumnSpec("state", ColumnKind.DISCRETE),
            ColumnSpec("v", ColumnKind.CONTINUOUS),
        ])
        table = Table.from_rows(schema, [
            ("a", "TX", 1.0), ("a", None, 2.0), ("a", "CA", 3.0),
        ])
        q = parse_query(
            "SELECT sum(v) FROM t WHERE state != 'TX' GROUP BY g"
        ).to_query()
        results = q.execute(table)
        # Only the CA row matches; the None row satisfies neither = nor
        # != (SQL three-valued logic).
        assert results.by_key(("a",)).value == pytest.approx(3.0)
        assert results.by_key(("a",)).group_size == 1

    def test_not_equal_excludes_nulls(self):
        table = _nullable_table()
        condition = Condition("state", "!=", "TX")
        mask = condition.mask(table)
        # Rows 1 (None) and 3 (NaN) must NOT match despite != 'TX'.
        np.testing.assert_array_equal(
            mask, [False, False, True, False, False])

    def test_equality_never_matches_nulls(self):
        table = _nullable_table()
        condition = Condition("state", "=", "TX")
        np.testing.assert_array_equal(
            condition.mask(table), [True, False, False, False, True])

    def test_notnull_mask(self):
        table = _nullable_table()
        np.testing.assert_array_equal(
            table.column("state").notnull_mask(),
            [True, False, True, False, True])
        cont = Table.from_rows(
            Schema([ColumnSpec("v", ColumnKind.CONTINUOUS)]),
            [(1.0,), (float("nan"),), (3.0,)])
        np.testing.assert_array_equal(
            cont.column("v").notnull_mask(), [True, False, True])


class TestRejections:
    @pytest.mark.parametrize("sql", [
        "SELECT avg temp FROM t GROUP BY g",          # missing parens
        "SELECT avg(temp) FROM t",                     # no GROUP BY
        "SELECT avg(temp) GROUP BY g",                 # no FROM
        "avg(temp) FROM t GROUP BY g",                 # no SELECT
        "SELECT avg(temp) FROM t GROUP BY g extra",    # trailing tokens
        "SELECT avg(temp) FROM t WHERE GROUP BY g",    # empty condition
        "SELECT avg(temp) FROM t WHERE a ! 1 GROUP BY g",
    ])
    def test_malformed_rejected(self, sql):
        with pytest.raises(QueryError):
            parse_query(sql)


class TestExecution:
    def test_to_query_runs(self, sensors_table):
        q = parse_query("SELECT avg(temp) FROM sensors GROUP BY time").to_query()
        results = q.execute(sensors_table)
        assert results.by_key("1PM").value == pytest.approx(50.0)

    def test_where_equality_on_discrete(self, sensors_table):
        q = parse_query(
            "SELECT avg(temp) FROM sensors WHERE time = '11AM' GROUP BY time"
        ).to_query()
        results = q.execute(sensors_table)
        assert len(results) == 1

    def test_where_inequality_on_continuous(self, sensors_table):
        q = parse_query(
            "SELECT avg(temp) FROM sensors WHERE voltage < 2.5 GROUP BY time"
        ).to_query()
        results = q.execute(sensors_table)
        # Only the two low-voltage sensor-3 readings survive.
        assert sum(r.group_size for r in results) == 2

    def test_unknown_aggregate_rejected_at_to_query(self):
        parsed = parse_query("SELECT nope(v) FROM t GROUP BY g")
        from repro.errors import AggregateError
        with pytest.raises(AggregateError):
            parsed.to_query()

    def test_string_vs_continuous_comparison_rejected(self, sensors_table):
        q = parse_query(
            "SELECT avg(temp) FROM sensors WHERE voltage = 'x' GROUP BY time"
        ).to_query()
        with pytest.raises(QueryError):
            q.execute(sensors_table)

    def test_ordering_comparison_on_discrete_rejected(self, sensors_table):
        q = parse_query(
            "SELECT avg(temp) FROM sensors WHERE time < '1PM' GROUP BY time"
        ).to_query()
        with pytest.raises(QueryError):
            q.execute(sensors_table)

    def test_not_equal_on_discrete(self, sensors_table):
        q = parse_query(
            "SELECT avg(temp) FROM sensors WHERE sensorid != 3 GROUP BY time"
        ).to_query()
        results = q.execute(sensors_table)
        assert results.by_key("12PM").value == pytest.approx(35.0)
