"""Shared benchmark infrastructure.

Every benchmark regenerates one of the paper's tables or figures.  The
series/rows it would plot are written to ``benchmarks/reports/<id>.txt``
(and echoed to stdout) so the shapes are inspectable, next to the
paper's, after a ``pytest benchmarks/ --benchmark-only`` run.

Dataset sizes are scaled down from the paper's (laptop-scale budgets);
set ``SCORPION_BENCH_SCALE=paper`` for full-size datasets and NAIVE
budgets.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.datasets import make_synth

REPORTS_DIR = Path(__file__).parent / "reports"

#: Machine-readable scoring-performance ledger at the repo root; each
#: scoring bench merges its section so the scalar/batch rows-per-second
#: trajectory is tracked across PRs.
BENCH_JSON = Path(__file__).parent.parent / "BENCH_scorer.json"

#: "quick" (default) or "paper".
SCALE = os.environ.get("SCORPION_BENCH_SCALE", "quick")

#: Tuples per SYNTH group (paper: 2000).
SYNTH_GROUP_SIZE = 2000 if SCALE == "paper" else 500
#: NAIVE wall-clock budget in seconds (paper: 40 minutes).
NAIVE_BUDGET = 240.0 if SCALE == "paper" else 5.0
#: NAIVE's budget in the figure benches: the paper's wall clock alone,
#: without the library's default evaluation cap.
NAIVE_KWARGS = {"time_budget": NAIVE_BUDGET, "max_evaluations": None}
#: The c sweep most figures share (paper sweeps [0, 0.5]).
C_SWEEP = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5)
C_SWEEP_SHORT = (0.05, 0.1, 0.3)


def emit_report(name: str, text: str) -> None:
    """Persist a figure/table reproduction and echo it."""
    REPORTS_DIR.mkdir(exist_ok=True)
    path = REPORTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[report written to {path}]")


def emit_bench_json(section: str, payload: dict) -> None:
    """Merge one bench's machine-readable results into
    ``BENCH_scorer.json`` (read-modify-write so the scoring benches can
    run in any order or alone).  The scale is recorded per section:
    sections persist across runs, so a file-level label would mislabel
    sections written at a different ``SCORPION_BENCH_SCALE``."""
    data: dict = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except ValueError:
            data = {}
    data[section] = dict(payload, scale=SCALE)
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"[bench json section {section!r} written to {BENCH_JSON}]")


def synth_dataset(n_dims: int, difficulty: str, seed: int = 0,
                  tuples_per_group: int | None = None):
    return make_synth(n_dims, difficulty,
                      tuples_per_group=tuples_per_group or SYNTH_GROUP_SIZE,
                      seed=seed)


@pytest.fixture(scope="session")
def synth_2d_hard():
    return synth_dataset(2, "hard")


@pytest.fixture(scope="session")
def synth_2d_easy():
    return synth_dataset(2, "easy")


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments themselves are the unit of interest (they sweep many
    configurations internally), so one round is both representative and
    affordable.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
