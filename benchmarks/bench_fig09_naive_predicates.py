"""Figure 9: the optimal NAIVE predicate's footprint as c varies.

The paper shows five scatter plots of SYNTH-2D-Hard with the NAIVE
predicate overlaid: c = 0 encloses the whole outer cube (many incidental
normal points included), and increasing c shrinks the box toward the
high-valued inner cube.  We reproduce the row of boxes and check the
monotone-shrinkage shape: matched row count does not increase with c.
"""

from repro.eval import format_table, score_predicate
from repro.eval.runner import run_algorithm

from benchmarks.conftest import NAIVE_KWARGS, emit_report, run_once

# The paper plots c up to 0.5; we extend to 1.0 because the exact c at
# which the optimum shifts from the outer to the inner cube depends on
# the (unpublished) value-distribution details — on our generator it
# falls near c ≈ 0.7, so the sweep runs past it.
C_VALUES = (0.0, 0.05, 0.1, 0.2, 0.5, 0.75, 1.0)


def _experiment(dataset):
    rows = []
    matched_counts = []
    for c in C_VALUES:
        problem = dataset.scorpion_query(c=c)
        record = run_algorithm("naive", problem, n_bins=15, **NAIVE_KWARGS)
        matched = int(record.predicate.mask(dataset.table).sum())
        matched_counts.append(matched)
        inner = score_predicate(record.predicate, dataset.table,
                                dataset.truth_inner(),
                                dataset.outlier_row_indices())
        outer = score_predicate(record.predicate, dataset.table,
                                dataset.truth_outer(),
                                dataset.outlier_row_indices())
        rows.append([c, str(record.predicate), matched,
                     round(outer.recall, 3), round(inner.recall, 3)])
    return rows, matched_counts


def test_fig09_naive_predicate_footprint(benchmark, synth_2d_hard):
    rows, matched = run_once(benchmark, lambda: _experiment(synth_2d_hard))
    emit_report("fig09_naive_predicates", format_table(
        "Figure 9 — optimal NAIVE predicate vs c (SYNTH-2D-Hard)",
        ["c", "predicate", "rows matched", "outer recall", "inner recall"],
        rows))
    # Shape: the footprint shrinks (weakly) as c grows, and the top of
    # the sweep is far more selective than c = 0 (the optimum shifts
    # from the outer cube to the inner cube).
    assert all(a >= b for a, b in zip(matched, matched[1:])), matched
    assert matched[0] > 1.5 * matched[-1]
