"""The four end-to-end workloads and the closed request loop that times them.

``run.py`` starts this file in a fresh process per session of a run::

    python workloads.py --workload synth-dt --seed 0 --seconds 10 --sessions 3 --session 0 --trace 0

The process generates the workload's data, answers one untimed warm-up
request and prints a ``{"ready": ...}`` line; ``run.py`` times process
start to that line as one ``setup_s`` sample.  Then one client sends the
session's share (:func:`session_share`) of the run's fixed number of
requests (:func:`run_requests`, or exactly ``--requests``) back to back
and checks every answer.  With ``--check-seed`` it then explains one instance generated
from ``--seed`` and checks it the same way.  It prints one
``{"result": ...}`` line of raw measurements, which ``run.py`` turns
into the run's metrics.

The timed requests always explain the generators' seed-0 instance.  The
explain algorithms are sensitive to their exact input (DT samples rows
by position: shuffling the rows of one SYNTH instance moved a DT explain
between 0.37 s and 1.2 s and changed its answer), so latency measured on
seed-drawn instances varies between seeds by far more than any useful
regression bound.  ``--seed`` draws the extra checked instance instead,
so every seed still runs the whole pipeline on inputs it has not seen.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import ExplainService, NaivePartitioner, Scorpion
from repro.datasets import ExpensesConfig, generate_expenses, make_intel, make_synth

from tracing import LayerTracer, layer_metrics

#: Generator seed of the instance every timed request explains.
REFERENCE_SEED = 0

#: The paper's Intel explanation attributes (as ``IntelDataset.scorpion_query``).
INTEL_ATTRIBUTES = ("sensorid", "voltage", "humidity", "light")

#: The paper's c-slider positions, swept in this order by ``intel-sweep``.
C_SLIDER = (1.0, 0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.0)

#: Timed requests per second of ``--seconds``: about one client's
#: request rate on the machine the benchmark was built on, when quiet.
REQUESTS_PER_SECOND = 1.6


def run_requests(seconds: float) -> int:
    """Timed requests of a run.  The count is fixed by ``seconds`` alone,
    however fast the machine or the code is, and is whole c-slider
    cycles, so ``intel-sweep`` sends each ``c`` equally often (10 s: 16
    requests)."""
    cycle = len(C_SLIDER)
    return cycle * math.ceil(seconds * REQUESTS_PER_SECOND / cycle)


def session_share(n_requests: int, session: int, sessions: int) -> range:
    """The positions, in the run's request sequence, of the requests
    that ``session`` of ``sessions`` sends: a contiguous share, so the
    sessions together send the run's whole cycles."""
    return range(session * n_requests // sessions,
                 (session + 1) * n_requests // sessions)


@dataclass(frozen=True)
class Workload:
    """One workload: how to build its data and answer a request."""

    name: str
    #: The partitioner every answer must come from.
    algorithm: str
    #: Lowest acceptable F-score of an answer against ground truth.
    f_floor: float
    #: The distinct requests (one ``c`` each), sent in this order, cycled.
    c_values: tuple[float, ...]
    #: ``(seed, small) -> dataset``.
    generate: Callable
    #: ``dataset -> (table, truth mask, outlier rows)`` for F-scores.
    truth: Callable
    #: ``(dataset, small, exit stack) -> request``, where
    #: ``request(c) -> ScorpionResult`` is one timed request.
    open: Callable


def _synth_truth(ds):
    return ds.table, ds.truth_outer(), ds.outlier_row_indices()


def _cold(make_scorpion: Callable):
    """A one-shot workload: each request builds the problem and a fresh
    ``make_scorpion(small)``, then explains."""
    def open_(ds, small, stack):
        return lambda c: make_scorpion(small).explain(ds.scorpion_query(c=c))
    return open_


def _open_intel(ds, small, stack):
    service = stack.enter_context(ExplainService())

    def request(c):
        return service.explain_request(
            ds.table, ds.query(), ds.outlier_keys, ds.holdout_keys, 1.0,
            c=c, attributes=INTEL_ATTRIBUTES)
    return request


WORKLOADS = {w.name: w for w in (
    Workload(
        "synth-dt", "dt", 0.5, (0.1,),
        lambda seed, small: make_synth(3, "easy", 200 if small else 2000, seed),
        _synth_truth, _cold(lambda small: Scorpion(algorithm="dt"))),
    Workload(
        "intel-sweep", "dt", 0.9, C_SLIDER,
        lambda seed, small: make_intel(2, 1 if small else 2, seed),
        lambda ds: (ds.table, ds.failure_mask, ds.outlier_row_indices()),
        _open_intel),
    Workload(
        "expenses-mc", "mc", 0.9, (0.5,),
        lambda seed, small: generate_expenses(
            ExpensesConfig(rows_per_day=10 if small else 30, seed=seed)),
        lambda ds: (ds.effective_table(), ds.effective_truth_mask(),
                    ds.outlier_row_indices()),
        _cold(lambda small: Scorpion())),
    Workload(
        "synth-naive", "naive", 0.5, (0.1,),
        lambda seed, small: make_synth(2, "hard", 200 if small else 2000, seed),
        _synth_truth, _cold(lambda small: Scorpion(partitioner=NaivePartitioner(
            time_budget=None, max_evaluations=250 if small else 2500)))),
)}


def f_score(predicate, table, truth: np.ndarray, rows: np.ndarray) -> float:
    """F of ``predicate`` against ``truth``, both restricted to the
    outlier groups' ``rows`` (the paper's Section 8.2 measure)."""
    selected = predicate.mask(table)[rows]
    truth = truth[rows]
    hits = np.count_nonzero(selected & truth)
    if hits == 0:
        return 0.0
    precision = hits / np.count_nonzero(selected)
    recall = hits / np.count_nonzero(truth)
    return 2.0 * precision * recall / (precision + recall)


class Checker:
    """Sends requests and judges their answers: the right algorithm, F at
    or above the workload's floor, and the same top answer every time a
    request repeats.  ``first`` holds each distinct request's first
    ``(predicate, influence)`` answer and ``f_scores`` its F."""

    def __init__(self, workload: Workload, truth: tuple):
        self.workload = workload
        self.truth = truth
        self.first: dict[str, tuple[str, float]] = {}
        self.f_scores: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def send(self, request: Callable, c: float):
        """One request; returns its result, or None when it raised."""
        self.attempted += 1
        key = repr(c)
        try:
            result = request(c)
        except Exception as exc:  # a failed request is counted, not fatal
            self.failures.append(f"c={key}: raised {exc!r}")
            return None
        best = result.best
        if best is None:
            self.failures.append(f"c={key}: no explanation")
            return result
        answer = (str(best.predicate), float(best.influence))
        problems = []
        if result.algorithm != self.workload.algorithm:
            problems.append(f"algorithm {result.algorithm}")
        if self.first.setdefault(key, answer) != answer:
            problems.append(f"answer {answer} differs from {self.first[key]}")
        f = self.f_scores.setdefault(key, f_score(best.predicate, *self.truth))
        if f < self.workload.f_floor:
            problems.append(f"F {f:.3f} below {self.workload.f_floor}")
        if problems:
            self.failures.append(f"c={key}: " + "; ".join(problems))
        return result


class SpeedProbe:
    """How fast the (shared) machine is running right now.

    Times a fixed pure-Python loop of about 7 ms that touches neither the
    library nor any array.  On the shared 2-vCPU KVM guest the baseline
    comes from, neighbours slow every process by up to 30% for seconds to
    minutes at a time, and the loop slows with the requests.  The timed
    loop runs the probe, untimed, before each request and after the last
    one; ``run.py`` divides each latency by the probe times around it.
    """

    def __init__(self):
        self.times: list[float] = []

    def run(self) -> None:
        started = time.perf_counter()
        total, table = 0, {}
        for i in range(60_000):
            total += i * i
            table[i & 1023] = total
        self.times.append(time.perf_counter() - started)


def traced_turn(i: int, cycle: int) -> bool:
    """Whether request ``i`` is traced.  Traced and untraced requests
    alternate; with an even cycle the pattern flips every cycle, so each
    distinct request is traced every other time it comes round."""
    flip = i // cycle if cycle % 2 == 0 else 0
    return (i + flip) % 2 == 0


def overhead_ratio(latencies: list[float], probes: list[float], cycle: int) -> float:
    """Summed latency of the traced requests over that of the untraced
    ones, which are as many and the same mix of requests.  Each latency
    is first divided by the probe times around it, so that changes of
    machine speed during the loop cancel and the ratio isolates the cost
    of the wrappers."""
    traced = untraced = 0.0
    for i, (latency, before, after) in enumerate(zip(latencies, probes, probes[1:])):
        if traced_turn(i, cycle):
            traced += latency / (before + after)
        else:
            untraced += latency / (before + after)
    return traced / untraced if untraced else 0.0


def timed_loop(workload: Workload, request: Callable, checker: Checker,
               positions: range, probe: SpeedProbe, tracer) -> tuple:
    """The closed loop: one client, no think time apart from the untimed
    speed probe between requests.  Sends the requests at ``positions``
    of the run's sequence.  Returns every request's wall latency and,
    when ``tracer`` is given, the traced requests'
    ``(latency, self_s, counts, scorer_stats)`` records."""
    cycle = len(workload.c_values)
    latencies: list[float] = []
    traced: list[tuple] = []
    probe.run()
    for i in positions:
        trace_this = tracer is not None and traced_turn(i, cycle)
        if tracer is not None:
            (tracer.install if trace_this else tracer.uninstall)()
            tracer.reset()
        sent = time.perf_counter()
        result = checker.send(request, workload.c_values[i % cycle])
        latency = time.perf_counter() - sent
        latencies.append(latency)
        probe.run()
        if trace_this and result is not None:
            traced.append((latency, dict(tracer.self_s), dict(tracer.counts),
                           result.scorer_stats))
    if tracer is not None:
        tracer.uninstall()
    return latencies, traced


def _emit(message: dict) -> None:
    print(json.dumps(message), flush=True)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length; sets the run's timed request count")
    parser.add_argument("--sessions", type=int, required=True,
                        help="sessions the run's requests are split into")
    parser.add_argument("--session", type=int, required=True,
                        help="which of them this is, from 0")
    parser.add_argument("--requests", type=int, default=None,
                        help="give the run exactly this many timed requests instead")
    parser.add_argument("--check-seed", action="store_true",
                        help="then explain and check an instance drawn from --seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced data sizes (the smoke test)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        # Installed for the warm-up too: the one-off cost-model
        # calibration happens there.
        tracer = LayerTracer()
        tracer.install()

    with contextlib.ExitStack() as stack:
        started = time.perf_counter()
        ds = workload.generate(REFERENCE_SEED, args.small)
        gen_s = time.perf_counter() - started
        request = workload.open(ds, args.small, stack)
        checker = Checker(workload, workload.truth(ds))
        checker.send(request, workload.c_values[0])
        _emit({"ready": True, "gen_s": gen_s})

        speed = SpeedProbe()
        n_requests = (run_requests(args.seconds)
                      if args.requests is None else args.requests)
        positions = session_share(n_requests, args.session, args.sessions)
        latencies, traced = timed_loop(workload, request, checker, positions,
                                       speed, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.check_seed:
            seeded_ds = workload.generate(args.seed, args.small)
            seeded = Checker(workload, workload.truth(seeded_ds))
            seeded.send(workload.open(seeded_ds, args.small, stack),
                        workload.c_values[0])
            checker.attempted += seeded.attempted
            checker.failures += [f"seed {args.seed} instance: {failure}"
                                 for failure in seeded.failures]

    result = {
        "attempted": checker.attempted,
        "failures": checker.failures,
        "latencies_s": latencies,
        "probe_times_s": speed.times,
        "peak_rss_mb": peak_rss_mb,
        "answers": {key: list(answer) for key, answer in checker.first.items()},
        "f_scores": checker.f_scores,
        "absent_layers": tracer.absent if tracer is not None else [],
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["layer_metrics"] = {
            **layer_metrics(traced, tracer.process_self_s),
            "trace.overhead_ratio": overhead_ratio(latencies, speed.times,
                                                   len(workload.c_values)),
        }
    _emit({"result": result})


if __name__ == "__main__":
    main()
