"""Compare two sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py --base benchmarks/e2e/baseline.json --new new.json

Each file holds a JSON list of run records as ``run.py --out`` appends
them; smoke records and records made with another ``--seconds`` than
``run_seconds`` are ignored.  Both sets must have scaled their latencies
to the same reference probe time (that of ``baseline.json`` when they
ran).  For every workload and every end-to-end metric of
``BENCHMARK.json`` this prints each set's median and quartiles, the
change of the new median against the base median (positive = worse), and
a verdict against the metric's bound: ``ok`` (within it), ``better`` or
``WORSE``.  Per-layer metrics of traced records follow with their
medians and no verdict.  Exits 1 if any metric is ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(paths: list[Path], seconds: float) -> list[dict]:
    records = []
    for path in paths:
        records.extend(r for r in json.loads(path.read_text())
                       if not r["smoke"] and r["seconds"] == seconds)
    return records


def values(records: list[dict], workload: str, trace: int, metric: str) -> list[float]:
    return [r["metrics"][metric] for r in records
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["metrics"]]


def summary(vals: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles`` gives them."""
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def worse_by(base: float, new: float, better: str) -> float:
    """Relative change of ``new`` against ``base``; positive = worse."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _fmt(stats: tuple[float, float, float], n: int) -> str:
    q1, med, q3 = stats
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}] n={n}"


def compare(base: list[dict], new: list[dict], spec: dict) -> int:
    worse = 0
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        print(f"{workload}")
        for metric in spec["end_to_end"]:
            a = values(base, workload, 0, metric["name"])
            b = values(new, workload, 0, metric["name"])
            if not a or not b:
                print(f"  {metric['name']:16s} missing (base n={len(a)}, new n={len(b)})")
                continue
            sa, sb = summary(a), summary(b)
            change = worse_by(sa[1], sb[1], metric["better"])
            verdict = ("WORSE" if change > metric["bound"]
                       else "better" if change < -metric["bound"] else "ok")
            worse += verdict == "WORSE"
            print(f"  {metric['name']:16s} base {_fmt(sa, len(a))}  new {_fmt(sb, len(b))}"
                  f"  change {change:+.2%} bound {metric['bound']:g}  {verdict}")
        for metric in spec["per_layer"]:
            a = values(base, workload, 1, metric["name"])
            b = values(new, workload, 1, metric["name"])
            if a and b:
                print(f"  {metric['name']:28s} base {summary(a)[1]:11.5g}"
                      f"  new {summary(b)[1]:11.5g} {metric['unit']}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--new", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = load(args.base, spec["run_seconds"])
    new = load(args.new, spec["run_seconds"])
    references = {r["reference_probe_s"] for r in base + new}
    if len(references) > 1:
        print(f"error: the records were scaled to different reference probe "
              f"times {sorted(references)}", file=sys.stderr)
        return 2
    return compare(base, new, spec)


if __name__ == "__main__":
    sys.exit(main())
