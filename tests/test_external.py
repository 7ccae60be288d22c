"""External worker protocol: round trips, error taxonomy, worker lifecycle, pool."""

import io
import json
import sys

import pytest
from click.testing import CliRunner

from dsekit import (
    EvaluationError,
    EvaluationTimeoutError,
    EvaluatorTerminatedError,
    ExternalEvaluator,
    ProtocolError,
    SyntheticEvaluator,
    make_space,
    run,
)
from dsekit.cli import main

from .conftest import TINY_WEIGHTS, TinyEvaluator, tiny_metrics

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


SYNTH_CONFIG = {"cores": 4, "freq": 2800, "l1i": 32, "l1d": 32, "l2": 512, "l3": 4096}


class TestModelErrors:
    """A configuration the worker's model cannot evaluate gets an error
    response, and the same worker answers the next request."""

    @pytest.mark.parametrize(
        "config", [{"A": 0, "B": 100}, {"A": "x", "B": 100}], ids=["zero-A", "string-A"]
    )
    def test_tiny_setting_outside_the_model(self, config):
        with ExternalEvaluator(worker_command("--model", "tiny"), timeout=30.0) as ev:
            assert ev.evaluate({"A": 1, "B": 100}, "t") == tiny_metrics(1, 100)
            pid = ev._workers[0].proc.pid
            with pytest.raises(EvaluationError, match="tiny model cannot evaluate configuration") as info:
                ev.evaluate(config, "t")
            assert not isinstance(info.value, EvaluatorTerminatedError)
            assert ev.evaluate({"A": 2, "B": 100}, "t") == tiny_metrics(2, 100)
            assert [worker.proc.pid for worker in ev._workers] == [pid]

    @pytest.mark.parametrize(
        "config, bench_name",
        [({**SYNTH_CONFIG, "cores": 0}, "synth-fluid"), (SYNTH_CONFIG, "no-such-benchmark")],
        ids=["zero-cores", "unknown-benchmark"],
    )
    def test_synthetic_answers_the_in_process_error(self, config, bench_name):
        with pytest.raises(EvaluationError) as expected:
            SyntheticEvaluator().evaluate(config, bench_name)
        with ExternalEvaluator(worker_command("--model", "synthetic"), timeout=30.0) as ev:
            with pytest.raises(EvaluationError) as got:
                ev.evaluate(config, bench_name)
            assert type(got.value) is EvaluationError
            assert str(got.value) == str(expected.value)
            assert len(ev._workers) == 1


class TestErrorTaxonomy:
    def test_error_response_raises_and_worker_survives(self, tmp_path):
        command = worker_command("--error-on", "bad")
        with ExternalEvaluator(command, timeout=30.0) as ev:
            with pytest.raises(EvaluationError, match="injected failure"):
                ev.evaluate({"A": 1, "B": 100}, "bad")
            worker_before = ev._workers[0]
            assert ev.evaluate({"A": 1, "B": 100}, "t") == tiny_metrics(1, 100)
            assert ev._workers == [worker_before]  # same process kept serving

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

    def test_response_nested_too_deep_fails_only_the_benchmark(self, tmp_path, tiny_space_file):
        command = script_worker(tmp_path, 'print("[" * 100000 + "]" * 100000, flush=True)')
        with ExternalEvaluator(command, timeout=30.0) as ev:
            with pytest.raises(ProtocolError, match="malformed response line: maximum recursion depth"):
                ev.evaluate({"A": 1}, "t")
        out = tmp_path / "run"
        result = CliRunner().invoke(
            main,
            ["run", "--space", str(tiny_space_file), "-T", "3", "--profile", "lowpower",
             "--evaluator", "exec:" + " ".join(command), "--out", str(out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 2
        assert "t: FAILED: malformed response line: " in result.stdout
        assert (out / "result.json").is_file()

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
            assert ev._workers == []

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

    # A metric value must be a JSON number: a numeric string or a boolean
    # is not one, whatever float() would make of it.
    @pytest.mark.parametrize("value", ['"hot"', '"1.5"', "True"], ids=["hot", "numeric-string", "true"])
    def test_non_numeric_metric_value(self, tmp_path, value):
        command = script_worker(
            tmp_path,
            'print(json.dumps({"id": request["id"],'
            f' "metrics": {{"power": {value}}}}}), flush=True)',
        )
        with ExternalEvaluator(command, timeout=30.0) as ev:
            with pytest.raises(ProtocolError, match="non-numeric"):
                ev.evaluate({"A": 1}, "t")

    def test_metric_value_beyond_float_range(self, tmp_path):
        command = script_worker(
            tmp_path,
            'print(json.dumps({"id": request["id"],'
            ' "metrics": {"power": 10 ** 400}}), flush=True)',
        )
        with ExternalEvaluator(command, timeout=30.0) as ev:
            with pytest.raises(ProtocolError, match="out of range"):
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
            assert ev._workers == []
            assert ev.evaluate({"A": 1}, "t") == {"m": 1.0}

    def test_empty_command_rejected(self):
        with pytest.raises(ValueError, match="empty worker command"):
            ExternalEvaluator("   ")

    @pytest.mark.parametrize("timeout", [-5.0, 0.0, float("nan"), float("inf")])
    def test_timeout_must_be_finite_and_positive(self, timeout):
        with pytest.raises(ValueError, match="timeout must be a finite number > 0"):
            ExternalEvaluator(WORKER, timeout=timeout)

    def test_jobs_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
            ExternalEvaluator(WORKER, jobs=0)


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
            assert ev._workers == []
            assert ev.evaluate({"A": 1}, "t") == {"m": 1.0}

    def test_worker_gone_between_requests_fails_the_next_one(self, tmp_path):
        command = script_worker(
            tmp_path,
            'print(json.dumps({"id": request["id"], "metrics": {"m": 1.0}}), flush=True)\n'
            "break",
        )
        with ExternalEvaluator(command, timeout=30.0) as ev:
            assert ev.evaluate({"A": 1}, "t") == {"m": 1.0}
            ev._workers[0].proc.wait(timeout=30)
            with pytest.raises(EvaluatorTerminatedError, match="exit 0"):
                ev.evaluate({"A": 2}, "t")  # its line can no longer be sent
            assert ev.evaluate({"A": 3}, "t") == {"m": 1.0}

    def test_a_worker_that_closes_stdout_but_runs_on_is_killed(self, tmp_path):
        command = script_worker(tmp_path, "import os, time\nos.close(1)\ntime.sleep(60)")
        with ExternalEvaluator(command, timeout=30.0) as ev:
            assert ev.submit({"A": 1}, "t")
            proc = ev._workers[0].proc
            with pytest.raises(EvaluatorTerminatedError, match=r"worker closed stdout \(exit None\)"):
                ev.evaluate({"A": 1}, "t")
            assert proc.poll() is not None
            assert ev._workers == []

    def test_a_response_line_with_no_request_pending_replaces_the_worker(self, tmp_path):
        command = script_worker(
            tmp_path,
            'line = json.dumps({"id": request["id"], "metrics": {"m": float(request["config"]["A"])}})\n'
            'sys.stdout.write(line + "\\n" + line + "\\n")  # each answer twice, in one write\n'
            "sys.stdout.flush()",
        )
        with ExternalEvaluator(command, timeout=30.0) as ev:
            for a in (1, 2):
                assert ev.submit({"A": a}, "t")
                worker = ev._workers[0]
                assert ev.evaluate({"A": a}, "t") == {"m": float(a)}
                assert worker not in ev._workers and worker.proc.poll() is not None

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
        proc = ev._workers[0].proc
        ev.close()
        assert proc.poll() is not None
        assert ev._workers == []

    def test_context_manager_closes(self):
        with ExternalEvaluator(worker_command(), timeout=30.0) as ev:
            ev.evaluate({"A": 1, "B": 100}, "t")
            proc = ev._workers[0].proc
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

    def test_request_nested_too_deep_gets_error_response(self):
        request = {"id": 3, "benchmark": "t", "config": {"A": 1, "B": 100}}
        responses = self.run_worker(["[" * 100000 + "]" * 100000, json.dumps(request)])
        assert responses == [
            {"id": -1, "error": "malformed request"},
            {"id": 3, "metrics": tiny_metrics(1, 100)},
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

    def test_each_response_line_is_one_write(self, monkeypatch):
        # on unbuffered stdout each write is a system call, and the reader a wakeup
        from dsekit import mock_worker

        class Writes(io.StringIO):
            def __init__(self):
                super().__init__()
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return super().write(text)

        requests = [{"id": 1, "benchmark": "t", "config": {"A": 1, "B": 100}}, "{broken"]
        requests.append({"id": 2, "benchmark": "t", "config": {"A": 2, "B": 200}})
        lines = [r if isinstance(r, str) else json.dumps(r) for r in requests]
        stdout = Writes()
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        monkeypatch.setattr(sys, "stdout", stdout)
        mock_worker.main([], standalone_mode=False)
        assert [json.loads(text) for text in stdout.writes] == [
            {"id": 1, "metrics": tiny_metrics(1, 100)},
            {"id": -1, "error": "malformed request"},
            {"id": 2, "metrics": tiny_metrics(2, 200)},
        ]
        assert all(text.count("\n") == 1 and text.endswith("\n") for text in stdout.writes)


class TestPool:
    """Three workers, each holding up to two requests."""

    def test_hung_benchmark_fails_alone(self):
        space = make_space([("A", [1, 2, 4]), ("B", [100, 200])], ["t", "slow", "u"])
        command = worker_command("--hang-on", "slow")
        with ExternalEvaluator(command, timeout=2.0, jobs=3) as ev:
            result = run(space, ev, TINY_WEIGHTS, 3)
        expected = run(space, TinyEvaluator(), TINY_WEIGHTS, 3)
        assert [b for b, r in result.benchmarks.items() if r.error is not None] == ["slow"]
        assert "no response from worker within 2.0 s" in result.benchmarks["slow"].error
        assert result.benchmarks["slow"].records == []
        for name in ("t", "u"):
            assert result.benchmarks[name].records == expected.benchmarks[name].records

    def test_worker_exit_fails_only_the_request_it_served(self, tmp_path):
        command = script_worker(
            tmp_path,
            'if request["config"]["A"] == 1:\n'
            '    import time\n'
            '    time.sleep(0.5)\n'
            '    sys.exit(3)\n'
            'print(json.dumps({"id": request["id"],'
            ' "metrics": {"m": float(request["config"]["A"])}}), flush=True)',
        )
        configs = [{"A": a} for a in range(1, 7)]
        with ExternalEvaluator(command, timeout=30.0, jobs=3) as ev:
            assert all(ev.submit(config, "t") for config in configs)
            assert not ev.submit({"A": 7}, "t")  # all six slots are taken
            first = ev._workers[0]
            assert [request.id for request in first.queued] == [1, 4]
            behind = first.queued[1]
            with pytest.raises(EvaluatorTerminatedError, match="exit 3"):
                ev.evaluate(configs[0], "t")
            for config in configs[1:]:
                assert ev.evaluate(config, "t") == {"m": float(config["A"])}
            assert first not in ev._workers
            assert behind.worker is not None and behind.worker is not first
            assert ev._next_id == 7  # request 4 was sent again, not replaced

    def test_timeout_starts_when_the_worker_can_start(self, tmp_path):
        command = script_worker(
            tmp_path,
            'import time\n'
            'time.sleep(request["config"]["sleep"])\n'
            'print(json.dumps({"id": request["id"], "metrics": {"m": 1.0}}), flush=True)',
        )
        with ExternalEvaluator(command, timeout=1.0, jobs=1) as ev:
            ev.evaluate({"sleep": 0}, "t")  # the worker is up
            assert ev.submit({"sleep": 0.6}, "t")
            assert ev.submit({"sleep": 0.61}, "t")
            assert ev.evaluate({"sleep": 0.6}, "t") == {"m": 1.0}
            # about 1.2 s after it was sent, but 0.6 s after the worker could start it
            assert ev.evaluate({"sleep": 0.61}, "t") == {"m": 1.0}

    def test_close_leaves_no_worker_alive(self):
        ev = ExternalEvaluator(worker_command(), timeout=30.0, jobs=3)
        for a in (1, 2, 4):
            for b in (100, 200):
                assert ev.submit({"A": a, "B": b}, "t")
        assert ev.evaluate({"A": 1, "B": 100}, "t") == tiny_metrics(1, 100)
        procs = [worker.proc for worker in ev._workers]
        assert len(procs) == 3
        ev.close()
        assert all(proc.poll() is not None for proc in procs)
        assert ev._workers == []

    def test_passed_over_requests_are_abandoned(self):
        with ExternalEvaluator(worker_command(), timeout=30.0, jobs=2) as ev:
            assert ev.submit({"A": 1, "B": 100}, "t")
            assert ev.submit({"A": 2, "B": 100}, "t")
            # asked out of order: the first submitted request is dropped
            assert ev.evaluate({"A": 2, "B": 100}, "t") == tiny_metrics(2, 100)
            assert ev.evaluate({"A": 1, "B": 100}, "t") == tiny_metrics(1, 100)
            assert ev._next_id == 4
