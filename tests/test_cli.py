"""Unit tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, run
from repro.table import write_csv

from tests.conftest import SENSOR_ROWS, SENSOR_SCHEMA
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

    def _serve(self, csv_path, requests, extra_args=(), log=None):
        import json
        out = io.StringIO()
        stdin = io.StringIO(
            "\n".join(json.dumps(r) if isinstance(r, dict) else r
                      for r in requests) + "\n")
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
        # The stats op between the explains is a drain barrier: without
        # it the two same-key requests may coalesce in flight (one
        # build, shared entry) — here we want to observe residency
        # *between* completed requests.
        code, responses = self._serve(planted_csv, [
            {"outliers": ["a"], "holdouts": ["c"]},
            {"op": "stats"},
            {"outliers": ["a"], "holdouts": ["c"]},
        ], extra_args=("--cache-bytes", "0"))
        assert code == 0
        # Zero capacity: nothing stays resident between requests.
        assert [r["cache_hit"] for r in (responses[0], responses[2])] \
            == [False, False]
        # Each response snapshots the counters while its own entry is
        # still pinned, so it sees only the *previous* request's
        # eviction.
        assert responses[2]["stats"]["service_evictions"] == 1

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
        import json
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

    def test_overloaded_code_under_backpressure(self, planted_csv):
        from repro.faults import fault_injection

        # Hang the first request's build so the second arrives while
        # the single in-flight slot is occupied.
        with fault_injection("service.build:hang=0.7@1"):
            code, responses = self._serve(planted_csv, [
                {"outliers": ["a"], "holdouts": ["c"]},
                {"outliers": ["b"], "holdouts": ["d"]},
            ], extra_args=("--inflight-limit", "1"))
        assert code == 0
        codes = [r.get("code") for r in responses]
        assert "overloaded" in codes
        overloaded = responses[codes.index("overloaded")]
        assert overloaded["ok"] is False
        assert "in-flight limit 1" in overloaded["error"]
        # The accepted request still drained to a real answer.
        ok = [r for r in responses if r["ok"]]
        assert len(ok) == 1 and ok[0]["explanations"]

    def test_oom_retry_code_and_loop_survival(self, planted_csv):
        from repro.faults import fault_injection

        # Both build attempts (initial + post-shed retry) hit
        # MemoryError: structured oom_retry, not a crash; the next
        # request (fault expired) succeeds on the same loop.
        with fault_injection("service.build:memerror@1..2"):
            code, responses = self._serve(planted_csv, [
                {"outliers": ["a"], "holdouts": ["c"]},
                {"outliers": ["a"], "holdouts": ["c"]},
            ])
        assert code == 0
        assert responses[0]["ok"] is False
        assert responses[0]["code"] == "oom_retry"
        assert "out of memory" in responses[0]["error"]
        assert responses[1]["ok"] is True

    def test_internal_error_code_and_loop_survival(self, planted_csv):
        from repro.faults import fault_injection

        with fault_injection("service.checkout:oserror@1"):
            code, responses = self._serve(planted_csv, [
                {"outliers": ["a"], "holdouts": ["c"]},
                {"outliers": ["a"], "holdouts": ["c"]},
            ])
        assert code == 0
        assert responses[0]["ok"] is False
        assert responses[0]["code"] == "internal"
        assert "OSError" in responses[0]["error"]
        assert responses[1]["ok"] is True

    def test_read_fault_is_graceful_shutdown(self, planted_csv):
        import json
        from repro.faults import fault_injection

        log = io.StringIO()
        with fault_injection("serve.read:oserror@2"):
            code, responses = self._serve(planted_csv, [
                {"outliers": ["a"], "holdouts": ["c"]},
                {"outliers": ["a"], "holdouts": ["c"]},  # never read
            ], log=log)
        assert code == 0
        # The accepted request drained before shutdown.
        assert len(responses) == 1 and responses[0]["ok"] is True
        records = [json.loads(line) for line in log.getvalue().splitlines()]
        assert [r["event"] for r in records if r["event"] != "request_start"
                and r["event"] != "request_finish"] == \
            ["read_error", "serve_shutdown"]
        assert records[-1]["reason"] == "read_error"

    def test_sigint_drains_inflight_and_shuts_down(self, planted_csv):
        import json
        import signal
        import threading
        from repro.faults import fault_injection

        log = io.StringIO()
        timer = threading.Timer(
            0.3, lambda: signal.raise_signal(signal.SIGINT))
        timer.start()
        try:
            # The second read hangs (a blocked readline, as deployed);
            # SIGINT must break it, drain request 1, and exit 0.
            with fault_injection("serve.read:hang=30@2"):
                code, responses = self._serve(planted_csv, [
                    {"outliers": ["a"], "holdouts": ["c"]},
                ], log=log)
        finally:
            timer.cancel()
        assert code == 0
        assert responses and responses[0]["ok"] is True
        records = [json.loads(line) for line in log.getvalue().splitlines()]
        assert records[-1]["event"] == "serve_shutdown"
        assert records[-1]["reason"] == "SIGINT"

    def test_inflight_limit_validation(self, planted_csv, capsys):
        code, responses = self._serve(planted_csv, [
            {"outliers": ["a"], "holdouts": ["c"]},
        ], extra_args=("--inflight-limit", "0"))
        assert code == 2
        assert not responses
        assert "inflight" in capsys.readouterr().err.lower()

    def test_inflight_limit_env(self, planted_csv, monkeypatch):
        from repro.cli import _resolve_inflight
        monkeypatch.setenv("SCORPION_INFLIGHT_LIMIT", "3")
        assert _resolve_inflight(None) == 3
        assert _resolve_inflight(5) == 5
        monkeypatch.delenv("SCORPION_INFLIGHT_LIMIT")
        assert _resolve_inflight(None) == 8

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
