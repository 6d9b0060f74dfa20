"""Unit tests for the experiment runner and report formatting."""

import numpy as np
import pytest

from repro.errors import PartitionerError
from repro.eval.report import format_series, format_table
from repro.eval.runner import make_partitioner, run_algorithm


class TestMakePartitioner:
    def test_known_names(self):
        from repro.core.dt import DTPartitioner
        from repro.core.mc import MCPartitioner
        from repro.core.naive import NaivePartitioner
        assert isinstance(make_partitioner("dt"), DTPartitioner)
        assert isinstance(make_partitioner("MC"), MCPartitioner)
        assert isinstance(make_partitioner("naive", time_budget=1.0),
                          NaivePartitioner)

    def test_unknown_rejected(self):
        with pytest.raises(PartitionerError):
            make_partitioner("zz")

    def test_kwargs_forwarded(self):
        partitioner = make_partitioner("dt", min_leaf_size=5)
        assert partitioner.params.min_leaf_size == 5


class TestRunAlgorithm:
    def test_records_accuracy(self, sum_problem):
        table = sum_problem.table
        truth = table.values("value") > 10.0
        record = run_algorithm("mc", sum_problem, table=table, truth_mask=truth)
        assert record.algorithm == "mc"
        assert record.predicate is not None
        assert 0.0 <= record.f_score <= 1.0
        assert record.runtime > 0

    def test_without_truth_no_stats(self, sum_problem):
        record = run_algorithm("mc", sum_problem)
        assert record.stats is None
        assert record.f_score == 0.0

    def test_outlier_row_restriction(self, sum_problem):
        table = sum_problem.table
        truth = table.values("value") > 10.0
        outlier_rows = np.flatnonzero(
            table.column("g").membership_mask(["g0", "g1"]))
        restricted = run_algorithm("mc", sum_problem, table=table,
                                   truth_mask=truth, outlier_rows=outlier_rows)
        assert restricted.stats is not None
        # All planted tuples live in outlier groups: recall is unaffected
        # by the restriction, and precision can only improve.
        unrestricted = run_algorithm("mc", sum_problem, table=table,
                                     truth_mask=truth)
        assert restricted.precision >= unrestricted.precision - 1e-9


class TestReport:
    def test_format_table_aligned(self):
        rendered = format_table("Title", ["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = rendered.splitlines()
        assert lines[0] == "Title"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len({len(line) for line in lines[2:]}) == 1

    def test_format_table_number_rendering(self):
        rendered = format_table("t", ["v"], [[1234.5678], [0.0001], [float("nan")]])
        assert "1.23e+03" in rendered
        assert "0.0001" in rendered
        assert "nan" in rendered

    def test_format_series(self):
        rendered = format_series("fig", {"dt": {0.1: 0.9}, "mc": {0.1: 0.8, 0.5: 0.7}},
                                 x_label="c")
        assert "c" in rendered.splitlines()[2]
        assert "dt" in rendered and "mc" in rendered
        # dt has no value at c = 0.5 → NaN cell.
        assert "nan" in rendered
