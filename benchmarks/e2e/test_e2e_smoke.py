"""Smoke test of the end-to-end benchmark, run by the tier-1 suite.

Runs every workload at reduced size with 2 timed requests, untraced and
traced, and checks that

* every metric ``BENCHMARK.json`` names is emitted with its unit, and
* the seed-0 top explanations equal ``golden.json`` (the explanation
  drift guard).

After an intended change of explanations, rewrite the golden file with
``E2E_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
GOLDEN = HERE / "golden.json"


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """The untraced and the traced smoke run (side by side: the test
    checks outputs, not timings).  Returns each run's contract lines,
    keyed by trace mode, and all run records."""
    out = tmp_path_factory.mktemp("e2e")
    procs = {trace: subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "0",
         "--trace", str(trace), "--out", str(out / f"trace{trace}.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for trace in (0, 1)}
    lines, records = {}, []
    for trace, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stdout + stderr
        lines[trace] = [json.loads(line) for line in stdout.splitlines()
                        if line.startswith("{")]
        records += json.loads((out / f"trace{trace}.json").read_text())
    return lines, records


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(smoke_runs, trace, section):
    lines, _ = smoke_runs
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert len(lines[trace]) == len(SPEC["workloads"])
    for line in lines[trace]:
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
        assert all(math.isfinite(m["value"]) for m in line["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
def test_seed0_explanations_match_golden(smoke_runs, trace):
    _, records = smoke_runs
    answers = {r["workload"]: r["answers"] for r in records if r["trace"] == trace}
    if os.environ.get("E2E_UPDATE_GOLDEN") and trace == 0:
        GOLDEN.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    golden = json.loads(GOLDEN.read_text())
    assert answers.keys() == golden.keys()
    for workload, expected in golden.items():
        got = answers[workload]
        assert got.keys() == expected.keys(), workload
        for c, (predicate, influence) in expected.items():
            assert got[c][0] == predicate, (workload, c)
            assert got[c][1] == pytest.approx(influence, rel=1e-9), (workload, c)
