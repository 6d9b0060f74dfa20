"""Figure 13: F-score as the dataset dimensionality grows (2D → 4D),
Easy and Hard, all three algorithms.

The paper's shape: DT and MC remain competitive with NAIVE as dimensions
increase — and can even beat it, because NAIVE's fixed 15-bin grid (and
its budget) limits the granularity it can reach, while DT refines splits
freely.  We assert competitiveness at every dimensionality.
"""

from repro.eval import format_table
from repro.eval.runner import run_algorithm

from benchmarks.conftest import (
    C_SWEEP_SHORT,
    NAIVE_KWARGS,
    emit_report,
    run_once,
    synth_dataset,
)

DIMS = (2, 3, 4)
ALGORITHMS = ("naive", "dt", "mc")


def _experiment(difficulty: str):
    rows = []
    best_by_dim: dict[int, dict[str, float]] = {}
    for n_dims in DIMS:
        dataset = synth_dataset(n_dims, difficulty)
        best_by_dim[n_dims] = {}
        for name in ALGORITHMS:
            best_f = 0.0
            best_c = None
            for c in C_SWEEP_SHORT:
                problem = dataset.scorpion_query(c=c)
                kwargs = NAIVE_KWARGS if name == "naive" else {}
                record = run_algorithm(
                    name, problem,
                    table=dataset.table,
                    truth_mask=dataset.truth_outer(),
                    outlier_rows=dataset.outlier_row_indices(),
                    **kwargs)
                if record.f_score >= best_f:
                    best_f, best_c = record.f_score, c
            rows.append([f"{n_dims}D", name, best_c, round(best_f, 3)])
            best_by_dim[n_dims][name] = best_f
    return rows, best_by_dim


def _assert_competitive(best_by_dim):
    for n_dims, scores in best_by_dim.items():
        for name in ("dt", "mc"):
            assert scores[name] >= scores["naive"] - 0.2, (
                f"{name} at {n_dims}D: {scores[name]} vs naive {scores['naive']}")


def test_fig13_easy(benchmark):
    rows, best = run_once(benchmark, lambda: _experiment("easy"))
    emit_report("fig13_dimensionality_easy", format_table(
        "Figure 13 (Easy) — best F-score over the c sweep, by dimensionality",
        ["dims", "algorithm", "best c", "best F"], rows))
    _assert_competitive(best)


def test_fig13_hard(benchmark):
    rows, best = run_once(benchmark, lambda: _experiment("hard"))
    emit_report("fig13_dimensionality_hard", format_table(
        "Figure 13 (Hard) — best F-score over the c sweep, by dimensionality",
        ["dims", "algorithm", "best c", "best F"], rows))
    _assert_competitive(best)
