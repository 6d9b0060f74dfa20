"""Figure 12: DT / MC / NAIVE accuracy as c varies (SYNTH-2D, outer
ground truth).

The paper's takeaway — both fast algorithms generate results comparable
to the exhaustive NAIVE baseline, with similar maximum F-scores — is the
shape we assert: across the c sweep, DT's and MC's best F-scores come
within 0.15 of NAIVE's.
"""

from repro.eval import format_series
from repro.eval.runner import run_algorithm

from benchmarks.conftest import C_SWEEP, NAIVE_KWARGS, emit_report, run_once

ALGORITHMS = ("naive", "dt", "mc")


def _experiment(dataset):
    series = {name: {} for name in ALGORITHMS}
    for c in C_SWEEP:
        problem = dataset.scorpion_query(c=c)
        for name in ALGORITHMS:
            kwargs = NAIVE_KWARGS if name == "naive" else {}
            record = run_algorithm(
                name, problem,
                table=dataset.table,
                truth_mask=dataset.truth_outer(),
                outlier_rows=dataset.outlier_row_indices(),
                **kwargs)
            series[name][c] = round(record.f_score, 3)
    return series


def _assert_comparable(series):
    naive_best = max(series["naive"].values())
    for name in ("dt", "mc"):
        best = max(series[name].values())
        assert best >= naive_best - 0.15, (
            f"{name} best F {best} vs naive {naive_best}")


def test_fig12_easy(benchmark, synth_2d_easy):
    series = run_once(benchmark, lambda: _experiment(synth_2d_easy))
    emit_report("fig12_accuracy_vs_c_easy", format_series(
        "Figure 12 (left) — F-score vs c, SYNTH-2D-Easy, outer truth",
        series, x_label="c"))
    _assert_comparable(series)


def test_fig12_hard(benchmark, synth_2d_hard):
    series = run_once(benchmark, lambda: _experiment(synth_2d_hard))
    emit_report("fig12_accuracy_vs_c_hard", format_series(
        "Figure 12 (right) — F-score vs c, SYNTH-2D-Hard, outer truth",
        series, x_label="c"))
    _assert_comparable(series)
