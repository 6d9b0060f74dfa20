"""Evaluation harness: accuracy metrics, experiment running, reporting.

Implements the Section 8.2 methodology — a predicate is scored by
comparing the tuples it selects *within the outlier input groups*
(``p(g_O)``) against a ground-truth tuple set, via precision, recall and
F-score — plus the run/record/format plumbing every benchmark shares.
"""

from repro.eval.metrics import AccuracyStats, confusion_counts, score_predicate
from repro.eval.plot import ascii_scatter, overlay_box
from repro.eval.report import format_series, format_table
from repro.eval.runner import RunRecord, run_algorithm

__all__ = [
    "AccuracyStats",
    "RunRecord",
    "ascii_scatter",
    "confusion_counts",
    "format_series",
    "format_table",
    "overlay_box",
    "run_algorithm",
    "score_predicate",
]
