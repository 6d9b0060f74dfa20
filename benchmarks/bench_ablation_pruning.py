"""Ablation: MC's anti-monotonicity pruning (Section 6.2).

Pruning discards predicates whose refinement bound cannot reach the
incumbent.  Disabling it (bound treated as always passing) forces MC to
carry every supported cell through intersections and merging.

The bound covers *refinements* of a cell, not merges it might later
join, so pruning can cost a little final influence in exchange for the
order-of-magnitude evaluation savings — exactly the "comparable quality,
orders of magnitude less time" trade the paper reports.  We assert big
savings and bounded quality loss.
"""

import time

from repro.core.influence import InfluenceScorer
from repro.core.mc import MCPartitioner
from repro.eval import format_table

from benchmarks.conftest import emit_report, run_once, synth_dataset


class _UnprunedMC(MCPartitioner):
    """MC with the pruning rule disabled (cap retained as a safety net):
    every level is pruned as if there were no incumbent yet."""

    def _prune(self, level, index, best_influence):
        return super()._prune(level, index, float("-inf"))


def _experiment():
    dataset = synth_dataset(3, "easy")
    problem = dataset.scorpion_query(c=0.4)
    rows = []
    outcomes = {}
    for label, cls in (("pruning", MCPartitioner), ("no pruning", _UnprunedMC)):
        scorer = InfluenceScorer(problem)
        started = time.perf_counter()
        result = cls(n_bins=15).run(problem, scorer)
        elapsed = time.perf_counter() - started
        best = result.best.influence if result.best else float("nan")
        rows.append([label, round(elapsed, 2), scorer.stats.mask_scores,
                     round(best, 4)])
        outcomes[label] = (elapsed, scorer.stats.mask_scores, best)
    return rows, outcomes


def test_mc_pruning(benchmark):
    rows, outcomes = run_once(benchmark, _experiment)
    emit_report("ablation_pruning", format_table(
        "Ablation — MC anti-monotone pruning (§6.2), 3D Easy, c = 0.4",
        ["configuration", "seconds", "influence evaluations",
         "best influence"], rows))
    pruned_time, pruned_evals, pruned_best = outcomes["pruning"]
    full_time, full_evals, full_best = outcomes["no pruning"]
    # Pruning saves the bulk of the influence evaluations...
    assert pruned_evals <= full_evals / 2
    # ...while staying in the same quality regime as the full search.
    assert pruned_best >= full_best * 0.8
