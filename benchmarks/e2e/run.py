"""End-to-end explain benchmark: the repository's performance contract.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0                 # all four workloads
    python3 benchmarks/e2e/run.py --workload synth-dt --seed 0 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --traced        # per-layer self times

Each workload runs in fresh serial processes (``workloads.py``): an
untraced run in 3 sessions that each set up and send a third of the
timed requests, a traced run in one; ``setup_s`` is the median of the
sessions' set-up times.  Every ``SCORPION_*`` variable is stripped from
their environment.  For each workload the command prints every
metric ``BENCHMARK.json`` names, with its unit, then a JSON line
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``
(``--traced``).  ``--seconds`` defaults to ``BENCHMARK.json``'s
``run_seconds`` and sets the timed request count; records note it, and
``compare.py`` uses only records made with ``run_seconds``.  The command
exits 1 if any answer was wrong and 2 if a workload could not run.
``--out FILE`` appends full run records for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"

#: Runs whose median probe time defines the speed latencies are scaled to.
BASELINE = HERE / "baseline.json"

#: Fresh processes an untraced run is split into.  Each gives one
#: ``setup_s`` sample and calibrates its own cost model, which routes
#: predicates from a timing and so can differ between processes.
SESSIONS = 3

#: Seconds one workload's processes may take together before the one
#: still running is killed.
WORKLOAD_LIMIT_S = 170.0


class BenchmarkError(Exception):
    """A workload could not be run (as opposed to answering wrongly)."""


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git
    (which could search directories outside the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCORPION_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start ``workloads.py``, read its messages and kill it at the
    ``time.perf_counter()`` ``deadline``.  Returns the set-up time
    (process start to the ready line, data generation excluded) and the
    ``result`` message."""
    command = [sys.executable, str(HERE / "workloads.py"), *args]
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - started, 0.0), proc.kill)
    watchdog.start()
    try:
        setup_s = result = None
        for line in proc.stdout:
            if not line.startswith("{"):
                continue
            message = json.loads(line)
            if "ready" in message:
                setup_s = time.perf_counter() - started - message["gen_s"]
            elif "result" in message:
                result = message["result"]
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None or result is None:
        raise BenchmarkError(f"{' '.join(args)}: exited with code {code}")
    return setup_s, result


def reference_probe_s() -> float:
    """Median probe time of the baseline's untraced runs.  Latencies are
    reported in seconds at the speed the machine had when the baseline
    was recorded; records scaled to another reference do not compare."""
    records = json.loads(BASELINE.read_text())
    return statistics.median(r["probe_s"] for r in records if not r["trace"])


def scaled_latencies(session: dict, reference: float) -> list[float]:
    """Each of a session's latencies times ``reference`` over the mean of
    the probe times just before and just after it."""
    probes = session["probe_times_s"]
    return [latency * 2.0 * reference / (before + after)
            for latency, before, after in zip(session["latencies_s"], probes, probes[1:])]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def run_metrics(sessions: list[dict], setups: list[float], reference: float,
                attempted: int, failures: list[str]) -> dict:
    """The end-to-end metrics of a run's sessions (plus the per-layer
    ones of a traced session)."""
    scaled = [x for session in sessions for x in scaled_latencies(session, reference)]
    first = sessions[0]
    metrics = {
        "latency_p50_s": statistics.median(scaled),
        "latency_p75_s": (statistics.quantiles(scaled, n=4)[2] if len(scaled) > 1
                          else scaled[0]),
        "explains_per_s": len(scaled) / sum(scaled),
        # Scaled by the session's median probe time, like the latencies:
        # unscaled, its median moved by 19% between two sets of runs.
        "setup_s": statistics.median(
            setup * reference / statistics.median(session["probe_times_s"])
            for setup, session in zip(setups, sessions)),
        "peak_rss_mb": statistics.median(session["peak_rss_mb"] for session in sessions),
        "f_score": _mean(first["f_scores"].values()),
        "mean_influence": _mean(influence for _, influence in first["answers"].values()),
        "success_rate": 1.0 - len(failures) / attempted,
    }
    metrics.update(first.get("layer_metrics", {}))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict:
    """One workload's run record (see ``compare.py``).  A traced run is
    one session, so that each traced request has untraced repeats of the
    same request around it in the same process."""
    deadline = time.perf_counter() + WORKLOAD_LIMIT_S
    n_sessions = 1 if (trace or smoke) else SESSIONS
    base = ["--workload", name, "--seed", str(seed), "--trace", str(trace),
            "--seconds", str(seconds), "--sessions", str(n_sessions)]
    if smoke:
        base += ["--small", "--requests", "2"]
    setups, sessions = [], []
    for i in range(n_sessions):
        last = i == n_sessions - 1
        setup_s, session = _spawn(base + ["--session", str(i)]
                                  + (["--check-seed"] if last else []), deadline)
        setups.append(setup_s)
        sessions.append(session)

    # Every session must give each request the first session's answer.
    answers = sessions[0]["answers"]
    failures = [failure for session in sessions for failure in session["failures"]]
    for i, session in enumerate(sessions[1:], 1):
        failures += [f"session {i} c={key}: answer {answer} differs from {answers[key]}"
                     for key, answer in session["answers"].items()
                     if answers.get(key, answer) != answer]
    attempted = sum(session["attempted"] for session in sessions)
    reference = reference_probe_s()
    probes = [p for session in sessions for p in session["probe_times_s"]]
    return {"workload": name, "seed": seed, "trace": trace, "smoke": smoke,
            "seconds": seconds, "setup_samples_s": setups,
            "attempted": attempted, "failures": failures,
            "metrics": run_metrics(sessions, setups, reference, attempted, failures),
            "answers": answers, "probe_s": statistics.median(probes),
            "reference_probe_s": reference,
            "absent_layers": sessions[0]["absent_layers"],
            "numpy": sessions[0]["numpy"], "sessions": sessions}


def report(record: dict, spec: dict) -> dict:
    """Print a record's metrics by name with units; return the contract
    line."""
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    requests = sum(len(session["latencies_s"]) for session in record["sessions"])
    print(f"# {record['workload']}: seed={record['seed']} trace={record['trace']} "
          f"sessions={len(record['sessions'])} requests={requests} "
          f"probe_s={record['probe_s']:.5f} sha={record['env']['git_sha']}"
          f" nproc={record['env']['nproc']} python={record['env']['python']}"
          f" numpy={record['numpy']}")
    for name, metric in metrics.items():
        print(f"  {name:30s} {metric['value']:14.6g} {metric['unit']}")
    for layer in record["absent_layers"]:
        print(f"  warning: layer {layer} absent (reported as 0)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    return {"correct": not record["failures"], "attempted": record["attempted"],
            "failed": len(record["failures"]), "metrics": metrics}


def _append(path: Path, records: list[dict]) -> None:
    existing = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(existing + records, indent=1) + "\n")


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not SPEC.is_file():
        print(f"error: {ROOT} holds no repro package under src/ or no "
              "BENCHMARK.json; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end explain benchmark (see README.md).")
    parser.add_argument("--workload", choices=workloads + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="generator seed of the extra checked instance "
                             "(timed requests always use seed 0)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="run length, which sets the timed request count "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from timing wrappers")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced data sizes and 2 timed requests")
    parser.add_argument("--out", type=Path, help="append run records to this JSON file")
    args = parser.parse_args(argv)

    env = {"git_sha": _git_sha(), "nproc": os.cpu_count(),
           "python": platform.python_version()}
    names = workloads if args.workload == "all" else [args.workload]
    records, status = [], 0
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        record["env"] = env
        records.append(record)
        line = report(record, spec)
        print(json.dumps(line), flush=True)
        status = status or (0 if line["correct"] else 1)
    if args.out is not None:
        _append(args.out, records)
    return status


if __name__ == "__main__":
    sys.exit(main())
