"""Unit tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, run
from repro.table import write_csv

from tests.conftest import SENSOR_ROWS, SENSOR_SCHEMA, replace_calls
from repro.table.table import Table


@pytest.fixture
def sensors_csv(tmp_path):
    path = tmp_path / "sensors.csv"
    write_csv(Table.from_rows(SENSOR_SCHEMA, SENSOR_ROWS), path)
    return str(path)


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_required_arguments(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args([
            "--csv", "x.csv", "--query", "q", "--outliers", "a"])
        assert args.direction == "high"
        assert args.c == 0.5
        assert args.top_k == 3


class TestRun:
    def test_end_to_end(self, sensors_csv):
        code, output = _run([
            "--csv", sensors_csv,
            "--query", "SELECT avg(temp) FROM sensors GROUP BY time",
            "--outliers", "12PM,1PM",
            "--holdouts", "11AM",
            "--c", "0.5",
            "--algorithm", "naive",
        ])
        assert code == 0
        assert "algorithm: naive" in output
        assert "voltage" in output or "sensorid" in output
        assert "->" in output  # updated outputs section

    def test_explore_c(self, sensors_csv):
        code, output = _run([
            "--csv", sensors_csv,
            "--query", "SELECT avg(temp) FROM sensors GROUP BY time",
            "--outliers", "12PM,1PM",
            "--holdouts", "11AM",
            "--algorithm", "naive",
            "--explore-c",
        ])
        assert code == 0
        assert "c-ladder" in output

    def test_ignore_attributes(self, sensors_csv):
        code, output = _run([
            "--csv", sensors_csv,
            "--query", "SELECT avg(temp) FROM sensors GROUP BY time",
            "--outliers", "12PM",
            "--ignore", "humidity,voltage",
            "--algorithm", "naive",
        ])
        assert code == 0
        assert "humidity" not in output
        assert "voltage" not in output

    def test_missing_outlier_key_is_reported(self, sensors_csv, capsys):
        code, _ = _run([
            "--csv", sensors_csv,
            "--query", "SELECT avg(temp) FROM sensors GROUP BY time",
            "--outliers", "3AM",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_csv_is_reported(self, capsys):
        code, _ = _run([
            "--csv", "/nonexistent/file.csv",
            "--query", "SELECT avg(temp) FROM sensors GROUP BY time",
            "--outliers", "12PM",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_sql_is_reported(self, sensors_csv, capsys):
        code, _ = _run([
            "--csv", sensors_csv,
            "--query", "SELECT avg temp FROM sensors GROUP BY time",
            "--outliers", "12PM",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_outliers_rejected(self, sensors_csv, capsys):
        code, _ = _run([
            "--csv", sensors_csv,
            "--query", "SELECT avg(temp) FROM sensors GROUP BY time",
            "--outliers", " , ",
        ])
        assert code == 2

    def test_numeric_group_keys_coerced(self, tmp_path):
        import numpy as np
        from repro.table import ColumnKind, ColumnSpec, Schema
        rng = np.random.default_rng(0)
        rows = []
        for g in (1, 2, 3, 4):
            for _ in range(30):
                value = 100.0 if (g <= 2 and rng.uniform() < 0.3) else 10.0
                rows.append((str(g), rng.uniform(0, 100), value))
        schema = Schema([ColumnSpec("g", ColumnKind.DISCRETE),
                         ColumnSpec("x", ColumnKind.CONTINUOUS),
                         ColumnSpec("v", ColumnKind.CONTINUOUS)])
        path = tmp_path / "t.csv"
        write_csv(Table.from_rows(schema, rows), path)
        code, output = _run([
            "--csv", str(path),
            "--query", "SELECT avg(v) FROM t GROUP BY g",
            "--outliers", "1,2",
            "--holdouts", "3,4",
            "--algorithm", "dt",
        ])
        assert code == 0
        assert "algorithm: dt" in output

    @pytest.mark.parametrize("algorithm", ["mc", "naive", "dt"])
    def test_missing_continuous_value_is_explained(self, tmp_path, algorithm):
        # One empty x cell loads as NaN.  It used to make x's domain
        # [nan, nan], and then every explain failed.
        import numpy as np
        rng = np.random.default_rng(3)
        lines = ["g,x,v"]
        for i in range(80):
            g = "abcd"[i % 4]
            x = rng.uniform(0, 100)
            value = 51.0 if g in "ab" and x >= 50 else 1.0
            lines.append(f"{g},{'' if i == 5 else round(x, 3)},{value}")
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        code, output = _run([
            "--csv", str(path),
            "--query", "SELECT sum(v) FROM t GROUP BY g",
            "--outliers", "a,b",
            "--holdouts", "c,d",
            "--algorithm", algorithm,
        ])
        assert code == 0
        assert f"algorithm: {algorithm}" in output
        if algorithm != "dt":  # DT's cuts still go NaN on that row
            assert "1. x in [51.9874, 97.346]" in output


class TestServe:
    """JSON-lines resident-service mode (--serve)."""

    @pytest.fixture
    def planted_csv(self, tmp_path):
        import numpy as np
        from repro.table import ColumnKind, ColumnSpec, Schema
        rng = np.random.default_rng(0)
        rows = []
        for g in ("a", "b", "c", "d"):
            for _ in range(60):
                value = 100.0 if (g in ("a", "b") and rng.uniform() < 0.3) else 10.0
                rows.append((g, rng.uniform(0, 100), value))
        schema = Schema([ColumnSpec("g", ColumnKind.DISCRETE),
                         ColumnSpec("x", ColumnKind.CONTINUOUS),
                         ColumnSpec("v", ColumnKind.CONTINUOUS)])
        path = tmp_path / "planted.csv"
        write_csv(Table.from_rows(schema, rows), path)
        return str(path)

    @staticmethod
    def _stdin(requests):
        return io.StringIO(
            "\n".join(json.dumps(r) if isinstance(r, dict) else r
                      for r in requests) + "\n")

    def _serve(self, csv_path, requests, extra_args=(), log=None):
        """Serve ``requests`` (a list of lines, or a ready stdin)."""
        out = io.StringIO()
        stdin = (requests if hasattr(requests, "readline")
                 else self._stdin(requests))
        code = run([
            "--csv", csv_path,
            "--query", "SELECT avg(v) FROM t GROUP BY g",
            "--algorithm", "dt",
            "--serve", *extra_args,
        ], out=out, stdin=stdin, log=log)
        return code, [json.loads(line)
                      for line in out.getvalue().splitlines()]

    def test_requests_answered_and_cached(self, planted_csv):
        code, responses = self._serve(planted_csv, [
            {"outliers": ["a", "b"], "holdouts": ["c", "d"], "c": 0.5},
            {"outliers": ["a", "b"], "holdouts": ["c", "d"], "c": 0.1},
        ])
        assert code == 0
        assert [r["ok"] for r in responses] == [True, True]
        # Same content key (c excluded): the second request is warm.
        assert [r["cache_hit"] for r in responses] == [False, True]
        assert responses[0]["explanations"]
        assert responses[1]["stats"]["service_entries"] == 1

    def test_bad_request_yields_error_line_and_loop_survives(
            self, planted_csv):
        code, responses = self._serve(planted_csv, [
            "not json",
            {"c": 0.5},  # missing outliers
            {"outliers": ["a"], "holdouts": ["c"]},
        ])
        assert code == 0
        assert [r["ok"] for r in responses] == [False, False, True]
        assert all("error" in r for r in responses[:2])

    def test_cache_bytes_flag(self, planted_csv):
        # Requests are answered one at a time, so the second same-key
        # request starts only after the first has unpinned its entry.
        code, responses = self._serve(planted_csv, [
            {"outliers": ["a"], "holdouts": ["c"]},
            {"outliers": ["a"], "holdouts": ["c"]},
        ], extra_args=("--cache-bytes", "0"))
        assert code == 0
        # Zero capacity: nothing stays resident between requests.
        assert [r["cache_hit"] for r in responses] == [False, False]
        # Each response snapshots the counters while its own entry is
        # still pinned, so it sees only the *previous* request's
        # eviction.
        assert responses[1]["stats"]["service_evictions"] == 1

    def test_stats_op_reconciles_with_requests(self, planted_csv):
        code, responses = self._serve(planted_csv, [
            {"outliers": ["a"], "holdouts": ["c"]},
            {"outliers": ["a"], "holdouts": ["c"]},
            {"op": "stats"},
        ])
        assert code == 0
        stats_resp = responses[2]
        assert stats_resp["ok"] is True
        assert stats_resp["op"] == "stats"
        stats = stats_resp["stats"]
        # The per-service counters see exactly this serve loop's two
        # explains; the registry-backed keys are process-wide (every
        # service in the process shares the global registry), so they
        # reconcile as >= and histogram-count == requests.
        assert stats["service_hits"] + stats["service_misses"] == 2
        assert stats["service_requests"] >= 2
        assert stats["service_request_seconds"]["count"] == \
            stats["service_requests"]
        assert all("trace_id" in r for r in responses)
        assert len({r["trace_id"] for r in responses}) == 3

    def test_metrics_op_returns_prometheus_text(self, planted_csv):
        code, responses = self._serve(planted_csv, [
            {"outliers": ["a"], "holdouts": ["c"]},
            {"op": "metrics"},
        ])
        assert code == 0
        metrics = responses[1]
        assert metrics["ok"] is True
        text = metrics["metrics"]
        assert "# TYPE scorpion_requests_total counter" in text
        assert "# TYPE scorpion_request_seconds histogram" in text
        assert 'scorpion_request_seconds_bucket{le="+Inf"}' in text

    def test_malformed_and_unknown_op_codes(self, planted_csv):
        code, responses = self._serve(planted_csv, [
            "{not json",
            {"op": "frobnicate"},
            {"outliers": ["a"], "holdouts": ["c"]},
        ])
        assert code == 0
        assert [r["ok"] for r in responses] == [False, False, True]
        assert responses[0]["code"] == "bad_json"
        assert responses[1]["code"] == "unknown_op"
        assert all("trace_id" in r for r in responses)

    def test_structured_log_lines_join_on_trace_id(self, planted_csv):
        log = io.StringIO()
        code, responses = self._serve(planted_csv, [
            {"outliers": ["a"], "holdouts": ["c"]},
            "not json",
        ], log=log)
        assert code == 0
        records = [json.loads(line) for line in log.getvalue().splitlines()]
        events = [r["event"] for r in records]
        assert events == ["request_start", "request_finish",
                          "request_start", "request_error",
                          "serve_shutdown"]
        start, finish, _error_start, error, shutdown = records
        assert shutdown["reason"] == "eof"
        # Log lines and response lines join on the shared trace_id.
        assert start["trace_id"] == finish["trace_id"] \
            == responses[0]["trace_id"]
        assert error["trace_id"] == responses[1]["trace_id"]
        assert start["op"] == "explain"
        assert finish["elapsed_ms"] > 0
        assert finish["cache_hit"] is False
        assert error["code"] == "bad_json"
        assert all("ts" in r for r in records)

    def test_serve_trace_flag_attaches_spans(self, planted_csv):
        code, responses = self._serve(planted_csv, [
            {"outliers": ["a"], "holdouts": ["c"]},
        ], extra_args=("--trace",))
        assert code == 0
        trace = responses[0]["trace"]
        assert trace
        names = {sp["name"] for sp in trace}
        assert "checkout" in names
        assert "explain" in names

    def test_health_op(self, planted_csv):
        code, responses = self._serve(planted_csv, [
            {"outliers": ["a"], "holdouts": ["c"]},
            {"op": "health"},
        ])
        assert code == 0
        assert responses[1]["ok"] is True
        assert responses[1]["op"] == "health"
        health = responses[1]["health"]
        assert health["ok"] is True
        assert health["cache_entries"] == 1
        for key in ("oom_retries", "pinned_entries", "cache_capacity_bytes",
                    "cached_bytes"):
            assert key in health, key
        # Shards run on the request's own threads: there is no pool
        # state to report.
        for key in ("pools", "degraded", "pool_starts", "pool_failures",
                    "pool_restarts", "pool_retries", "degraded_batches"):
            assert key not in health, key
        assert "degraded" not in responses[0]

    def test_piped_requests_answered_in_order(self, planted_csv):
        # Twenty requests arrive at once over ten content keys; each is
        # answered before the next line is read.
        problems = [(outliers, holdouts)
                    for outliers in (["a"], ["b"], ["a", "b"])
                    for holdouts in ([], ["c"], ["d"], ["c", "d"])][:10]
        requests = [{"outliers": outliers, "holdouts": holdouts, "c": c}
                    for c in (0.5, 0.2) for outliers, holdouts in problems]
        log = io.StringIO()
        code, responses = self._serve(planted_csv, requests, log=log)
        assert code == 0
        assert len(responses) == 20
        assert all(r["ok"] for r in responses)
        # Response i saw exactly the i + 1 checkouts before it: misses
        # for the first pass over the keys, hits for the second.
        assert [r["cache_hit"] for r in responses] == \
            [False] * 10 + [True] * 10
        assert [r["stats"]["service_hits"] + r["stats"]["service_misses"]
                for r in responses] == list(range(1, 21))
        records = [json.loads(line) for line in log.getvalue().splitlines()]
        assert [r["event"] for r in records] == \
            ["request_start", "request_finish"] * 20 + ["serve_shutdown"]
        for i, response in enumerate(responses):
            start, finish = records[2 * i], records[2 * i + 1]
            assert start["trace_id"] == finish["trace_id"] \
                == response["trace_id"]

    def test_oom_retry_code_and_loop_survival(self, planted_csv, monkeypatch):
        from repro.core.scorpion import Scorpion

        # Both build attempts (initial + post-shed retry) hit
        # MemoryError: structured oom_retry, not a crash; the next
        # request (builds work again) succeeds on the same loop.
        replace_calls(monkeypatch, Scorpion, "build_scorer",
                      MemoryError("build out of memory"), calls=(1, 2))
        code, responses = self._serve(planted_csv, [
            {"outliers": ["a"], "holdouts": ["c"]},
            {"outliers": ["a"], "holdouts": ["c"]},
        ])
        assert code == 0
        assert responses[0]["ok"] is False
        assert responses[0]["code"] == "oom_retry"
        assert "out of memory" in responses[0]["error"]
        assert responses[1]["ok"] is True

    def test_internal_error_code_and_loop_survival(self, planted_csv,
                                                   monkeypatch):
        from repro.service import ExplainService

        replace_calls(monkeypatch, ExplainService, "_acquire",
                      OSError("checkout failed"))
        log = io.StringIO()
        code, responses = self._serve(planted_csv, [
            {"outliers": ["a"], "holdouts": ["c"]},
            {"outliers": ["a"], "holdouts": ["c"]},
        ], log=log)
        assert code == 0
        assert responses[0]["ok"] is False
        assert responses[0]["code"] == "internal"
        assert "OSError" in responses[0]["error"]
        assert responses[1]["ok"] is True
        # The traceback is in the log record, and not in the response.
        assert "traceback" not in responses[0]
        assert "Traceback" not in json.dumps(responses[0])
        records = [json.loads(line) for line in log.getvalue().splitlines()]
        errors = [r for r in records if r["event"] == "request_error"]
        assert len(errors) == 1
        assert errors[0]["trace_id"] == responses[0]["trace_id"]
        assert "OSError: checkout failed" in errors[0]["traceback"]
        assert "_acquire" in errors[0]["traceback"]

    def test_read_fault_is_graceful_shutdown(self, planted_csv, monkeypatch):
        log = io.StringIO()
        stdin = self._stdin([
            {"outliers": ["a"], "holdouts": ["c"]},
            {"outliers": ["a"], "holdouts": ["c"]},  # never read
        ])
        replace_calls(monkeypatch, stdin, "readline",
                      OSError("stdin went away"), calls=(2,))
        code, responses = self._serve(planted_csv, stdin, log=log)
        assert code == 0
        # The request read before the failure was answered.
        assert len(responses) == 1 and responses[0]["ok"] is True
        records = [json.loads(line) for line in log.getvalue().splitlines()]
        assert [r["event"] for r in records] == \
            ["request_start", "request_finish", "read_error",
             "serve_shutdown"]
        assert records[-1]["reason"] == "read_error"

    def test_sigint_drains_inflight_and_shuts_down(self, planted_csv,
                                                   monkeypatch):
        import signal
        import threading
        import time

        main = threading.main_thread().ident

        def blocked_read():
            # The second read blocks (as a deployed readline does) until
            # SIGINT reaches the main thread and breaks it.
            threading.Timer(
                0.2, signal.pthread_kill, (main, signal.SIGINT)).start()
            time.sleep(60)
            return ""

        log = io.StringIO()
        stdin = self._stdin([{"outliers": ["a"], "holdouts": ["c"]}])
        replace_calls(monkeypatch, stdin, "readline", blocked_read,
                      calls=(2,))
        started = time.monotonic()
        code, responses = self._serve(planted_csv, stdin, log=log)
        assert time.monotonic() - started < 30, "SIGINT did not break the read"
        assert code == 0
        assert len(responses) == 1 and responses[0]["ok"] is True
        records = [json.loads(line) for line in log.getvalue().splitlines()]
        assert records[-1]["event"] == "serve_shutdown"
        assert records[-1]["reason"] == "SIGINT"

    def test_sigint_mid_request_answers_it_then_stops(self, planted_csv,
                                                      monkeypatch):
        import signal

        from repro.core.scorpion import Scorpion

        build = Scorpion.build_scorer

        def interrupted_build(scorpion, problem):
            signal.raise_signal(signal.SIGINT)
            return build(scorpion, problem)

        monkeypatch.setattr(Scorpion, "build_scorer", interrupted_build)
        log = io.StringIO()
        code, responses = self._serve(planted_csv, [
            {"outliers": ["a"], "holdouts": ["c"]},
            {"outliers": ["b"], "holdouts": ["d"]},  # never read
        ], log=log)
        assert code == 0
        assert len(responses) == 1 and responses[0]["ok"] is True
        records = [json.loads(line) for line in log.getvalue().splitlines()]
        assert [r["event"] for r in records] == \
            ["request_start", "request_finish", "serve_shutdown"]
        assert records[-1]["reason"] == "SIGINT"

    def test_metrics_file_dump(self, planted_csv, tmp_path):
        path = tmp_path / "metrics.prom"
        code, responses = self._serve(planted_csv, [
            {"outliers": ["a"], "holdouts": ["c"]},
        ], extra_args=("--metrics-file", str(path)))
        assert code == 0
        text = path.read_text()
        assert "# TYPE scorpion_requests_total counter" in text
        assert "scorpion_request_seconds_count" in text


class TestProfile:
    def test_profile_prints_span_tree(self, sensors_csv):
        code, output = _run([
            "--csv", sensors_csv,
            "--query", "SELECT avg(temp) FROM sensors GROUP BY time",
            "--outliers", "12PM,1PM",
            "--holdouts", "11AM",
            "--algorithm", "naive",
            "--profile",
        ])
        assert code == 0
        assert "algorithm: naive" in output
        # The profile tree: an explain root with indented child phases.
        assert "\nexplain" in output or output.startswith("explain")
        assert "  build" in output
        assert " ms" in output

    def test_one_shot_metrics_file(self, sensors_csv, tmp_path):
        path = tmp_path / "metrics.prom"
        code, _ = _run([
            "--csv", sensors_csv,
            "--query", "SELECT avg(temp) FROM sensors GROUP BY time",
            "--outliers", "12PM,1PM",
            "--holdouts", "11AM",
            "--algorithm", "naive",
            "--metrics-file", str(path),
        ])
        assert code == 0
        assert "# TYPE" in path.read_text()
