"""External worker protocol: round trips, error taxonomy, worker lifecycle."""

import json
import sys

import pytest

from dsekit import (
    EvaluationError,
    EvaluationTimeoutError,
    EvaluatorTerminatedError,
    ExternalEvaluator,
    ProtocolError,
)

from .conftest import tiny_metrics

WORKER = [sys.executable, "-m", "dsekit.mock_worker"]


def worker_command(*extra: str) -> list[str]:
    return WORKER + list(extra)


@pytest.fixture
def worker():
    with ExternalEvaluator(worker_command(), timeout=30.0) as ev:
        yield ev


def script_worker(tmp_path, body: str) -> list[str]:
    """A one-off worker whose per-line behavior is the given python body."""
    path = tmp_path / "worker.py"
    path.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    request = json.loads(line)\n"
        + "".join("    " + row + "\n" for row in body.splitlines()),
        encoding="utf-8",
    )
    return [sys.executable, str(path)]


class TestRoundTrip:
    def test_metrics_round_trip(self, worker):
        config = {"A": 2, "B": 100}
        assert worker.evaluate(config, "t") == tiny_metrics(2, 100)

    def test_many_requests_reuse_one_worker(self, worker):
        for a in (1, 2, 4):
            for b in (100, 200):
                got = worker.evaluate({"A": a, "B": b}, "t")
                assert got == tiny_metrics(a, b)
        assert worker._next_id == 7  # six requests through a single pipe

    def test_string_command_is_shell_split(self):
        command = " ".join(WORKER + ["--model", "tiny"])
        with ExternalEvaluator(command, timeout=30.0) as ev:
            assert ev.evaluate({"A": 1, "B": 100}, "t") == tiny_metrics(1, 100)

    def test_request_shape(self, tmp_path):
        command = script_worker(
            tmp_path,
            'assert set(request) == {"id", "benchmark", "config"}\n'
            'assert isinstance(request["id"], int)\n'
            'print(json.dumps({"id": request["id"],'
            ' "metrics": {"echo": float(len(request["config"]))}}), flush=True)',
        )
        with ExternalEvaluator(command, timeout=30.0) as ev:
            assert ev.evaluate({"A": 1, "B": 2}, "bench") == {"echo": 2.0}

    def test_synthetic_model(self):
        with ExternalEvaluator(worker_command("--model", "synthetic"), timeout=30.0) as ev:
            config = {"cores": 4, "freq": 2800, "l1i": 32, "l1d": 32, "l2": 512, "l3": 4096}
            metrics = ev.evaluate(config, "synth-fluid")
        assert metrics["power"] == pytest.approx(4.727945, abs=1e-9)
        assert metrics["time"] == pytest.approx(911.1607142857141, rel=1e-12)


class TestErrorTaxonomy:
    def test_error_response_raises_and_worker_survives(self, tmp_path):
        command = worker_command("--error-on", "bad")
        with ExternalEvaluator(command, timeout=30.0) as ev:
            with pytest.raises(EvaluationError, match="injected failure"):
                ev.evaluate({"A": 1, "B": 100}, "bad")
            worker_before = ev._worker
            assert ev.evaluate({"A": 1, "B": 100}, "t") == tiny_metrics(1, 100)
            assert ev._worker is worker_before  # same process kept serving

    def test_worker_exit_raises_terminated(self, tmp_path):
        command = [sys.executable, "-c", "pass"]  # exits immediately
        with ExternalEvaluator(command, timeout=30.0) as ev:
            with pytest.raises(EvaluatorTerminatedError):
                ev.evaluate({"A": 1}, "t")

    def test_malformed_json_raises_protocol_error(self, tmp_path):
        command = script_worker(tmp_path, 'print("not json", flush=True)')
        with ExternalEvaluator(command, timeout=30.0) as ev:
            with pytest.raises(ProtocolError, match="malformed response"):
                ev.evaluate({"A": 1}, "t")

    def test_id_mismatch_raises_protocol_error(self):
        command = worker_command("--skew-id-on", "skewed")
        with ExternalEvaluator(command, timeout=30.0) as ev:
            with pytest.raises(ProtocolError, match="does not match request id"):
                ev.evaluate({"A": 1, "B": 100}, "skewed")

    def test_timeout_raises_and_discards_worker(self):
        command = worker_command("--hang-on", "slow")
        with ExternalEvaluator(command, timeout=0.4) as ev:
            with pytest.raises(EvaluationTimeoutError, match="0.4"):
                ev.evaluate({"A": 1, "B": 100}, "slow")
            assert ev._worker is None

    def test_non_object_response(self, tmp_path):
        command = script_worker(tmp_path, 'print(json.dumps([1, 2]), flush=True)')
        with ExternalEvaluator(command, timeout=30.0) as ev:
            with pytest.raises(ProtocolError, match="not a JSON object"):
                ev.evaluate({"A": 1}, "t")

    def test_missing_metrics_object(self, tmp_path):
        command = script_worker(
            tmp_path, 'print(json.dumps({"id": request["id"]}), flush=True)'
        )
        with ExternalEvaluator(command, timeout=30.0) as ev:
            with pytest.raises(ProtocolError, match="no metrics"):
                ev.evaluate({"A": 1}, "t")

    def test_non_numeric_metric_value(self, tmp_path):
        command = script_worker(
            tmp_path,
            'print(json.dumps({"id": request["id"],'
            ' "metrics": {"power": "hot"}}), flush=True)',
        )
        with ExternalEvaluator(command, timeout=30.0) as ev:
            with pytest.raises(ProtocolError, match="non-numeric"):
                ev.evaluate({"A": 1}, "t")

    def test_non_utf8_response_raises_protocol_error_and_respawns(self, tmp_path):
        command = script_worker(
            tmp_path,
            'if request["benchmark"] == "bad":\n'
            '    sys.stdout.buffer.write(b"\\xff\\n")\n'
            '    sys.stdout.flush()\n'
            '    continue\n'
            'print(json.dumps({"id": request["id"], "metrics": {"m": 1.0}}), flush=True)',
        )
        with ExternalEvaluator(command, timeout=30.0) as ev:
            with pytest.raises(ProtocolError, match="not UTF-8"):
                ev.evaluate({"A": 1}, "bad")
            assert ev._worker is None
            assert ev.evaluate({"A": 1}, "t") == {"m": 1.0}

    def test_empty_command_rejected(self):
        with pytest.raises(ValueError, match="empty worker command"):
            ExternalEvaluator("   ")


class TestLifecycle:
    def test_fatal_error_respawns_on_next_call(self, tmp_path):
        flag = tmp_path / "first_call"
        path = tmp_path / "worker.py"
        path.write_text(
            f"""\
import json, pathlib, sys
flag = pathlib.Path({str(flag)!r})
if not flag.exists():
    flag.write_text("seen")
    sys.exit(1)  # first process dies before answering
for line in sys.stdin:
    request = json.loads(line)
    print(json.dumps({{"id": request["id"], "metrics": {{"m": 1.0}}}}), flush=True)
""",
            encoding="utf-8",
        )
        command = [sys.executable, str(path)]
        with ExternalEvaluator(command, timeout=30.0) as ev:
            with pytest.raises(EvaluatorTerminatedError):
                ev.evaluate({"A": 1}, "t")
            assert ev._worker is None
            assert ev.evaluate({"A": 1}, "t") == {"m": 1.0}

    def test_ids_keep_increasing_across_respawns(self, tmp_path):
        command = script_worker(
            tmp_path,
            'print(json.dumps({"id": request["id"], "metrics": {"m": 1.0}}), flush=True)',
        )
        with ExternalEvaluator(command, timeout=30.0) as ev:
            ev.evaluate({"A": 1}, "t")
            ev.close()
            ev.evaluate({"A": 2}, "t")
            assert ev._next_id == 3

    def test_close_kills_the_worker(self):
        ev = ExternalEvaluator(worker_command(), timeout=30.0)
        ev.evaluate({"A": 1, "B": 100}, "t")
        proc = ev._worker.proc
        ev.close()
        assert proc.poll() is not None
        assert ev._worker is None

    def test_context_manager_closes(self):
        with ExternalEvaluator(worker_command(), timeout=30.0) as ev:
            ev.evaluate({"A": 1, "B": 100}, "t")
            proc = ev._worker.proc
        assert proc.poll() is not None


class TestMockWorkerDirect:
    """The reference worker itself, driven without ExternalEvaluator."""

    def run_worker(self, lines, *extra):
        import subprocess

        proc = subprocess.run(
            worker_command(*extra),
            input="\n".join(lines) + "\n",
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        return [json.loads(line) for line in proc.stdout.splitlines()]

    def test_malformed_request_gets_error_response(self):
        responses = self.run_worker(["{broken", json.dumps({"id": 4})])
        assert responses == [
            {"id": -1, "error": "malformed request"},
            {"id": -1, "error": "malformed request"},
        ]

    def test_blank_lines_are_skipped(self):
        request = {"id": 9, "benchmark": "t", "config": {"A": 1, "B": 100}}
        responses = self.run_worker(["", json.dumps(request), "   "])
        assert len(responses) == 1
        assert responses[0]["id"] == 9
        assert responses[0]["metrics"] == tiny_metrics(1, 100)

    def test_model_error_becomes_error_response(self):
        request = {"id": 2, "benchmark": "t", "config": {"A": 1}}  # B missing
        responses = self.run_worker([json.dumps(request)])
        assert responses[0]["id"] == 2
        assert "error" in responses[0]
