import csv
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from dsekit import __version__
from dsekit.artifacts import (
    COMPARE_JSON_FILE,
    COMPARE_TXT_FILE,
    EVALS_FILE,
    MANIFEST_FILE,
    ORACLE_FILE,
    PARETO_FILE,
    RESULT_FILE,
    SIGNIFICANCE_FILE,
    SPACE_FILE,
    SWEEP_FILE,
    load_run,
    replay_hash,
    space_hash,
)
from dsekit import cli, errors, oracle_compare
from dsekit.cli import main
from dsekit.evaluators import SyntheticEvaluator
from dsekit.explorer import run as run_search
from dsekit.objective import NormalizationContext, objective
from dsekit.pareto import pareto_front

from .conftest import tiny_metrics, write_tiny_csv

TINY_BEST_F = 0.3513986013986014


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(main, [str(a) for a in args], env=env, catch_exceptions=False)


def do_run(runner, tmp_path, out="run", threshold=3, **overrides):
    """A standard tiny table-backed run; returns (result, out_dir)."""
    space_file = tmp_path / "tiny.json"
    if not space_file.exists():
        space_file.write_text(
            json.dumps(
                {
                    "parameters": [
                        {"name": "A", "settings": [1, 2, 4]},
                        {"name": "B", "settings": [100, 200]},
                    ],
                    "benchmarks": ["t"],
                }
            ),
            encoding="utf-8",
        )
    csv_file = tmp_path / "tiny.csv"
    if not csv_file.exists():
        write_tiny_csv(csv_file)
    out_dir = tmp_path / out
    args = {
        "--space": space_file,
        "--threshold": threshold,
        "--weights": "power=0.1,time=0.9",
        "--evaluator": f"table:{csv_file}",
        "--out": out_dir,
        "--jobs": 1,
        **overrides,
    }
    flat = ["run"]
    for key, value in args.items():
        if value is not None:
            flat += [key, value]
    return invoke(runner, *flat), out_dir


def two_benchmark_space(tmp_path):
    """The tiny space file with benchmarks t and u."""
    path = tmp_path / "two.json"
    space = {
        "parameters": [{"name": "A", "settings": [1, 2, 4]}, {"name": "B", "settings": [100, 200]}],
        "benchmarks": ["t", "u"],
    }
    path.write_text(json.dumps(space), encoding="utf-8")
    return path


#: The six parameters the synthetic model needs, two or three settings each.
SYNTH_PARAMETERS = {
    "cores": [2, 4, 8],
    "freq": [1700, 2800],
    "l1i": [16, 32],
    "l1d": [16, 32],
    "l2": [256, 512],
    "l3": [2048, 4096],
}
SYNTH_BENCHMARKS = ["synth-blk", "synth-fluid", "synth-ocean"]


def synthetic_space(tmp_path, benchmarks=SYNTH_BENCHMARKS, **settings):
    """A space file of the synthetic model's parameters, ``settings``
    replacing or adding some, over ``benchmarks``."""
    path = tmp_path / "synth.json"
    parameters = {**SYNTH_PARAMETERS, **settings}
    space = {
        "parameters": [{"name": name, "settings": values} for name, values in parameters.items()],
        "benchmarks": list(benchmarks),
    }
    path.write_text(json.dumps(space), encoding="utf-8")
    return path


#: The ``evals.csv`` and ``pareto.csv`` of ``awkward_run``, byte for byte:
#: string settings that need quoting, one with a leading space, and an empty one.
AWKWARD_EVALS = (
    "benchmark,phase,seq,cores,freq,l1i,l1d,l2,l3,bpred,power,time,norm_power,norm_time,objective\r\n"
    "synth-blk,oneshot,0,4,2800,32,32,512,4096,BPredX,4.727945,911.7736816406251,1.0,1.0,1.0\r\n"
    "synth-blk,oneshot,1,4,2800,32,32,512,4096,,4.727945,911.7736816406251,1.0,1.0,1.0\r\n"
    'synth-blk,exhaustive,2,4,2800,32,32,512,4096,"a,b X2",4.88872625,882.4369469467476,'
    "1.0340065821408668,0.9678245432122041,0.9744427471050705\r\n"
    'synth-blk,exhaustive,3,4,2800,32,32,512,4096,"say ""x2""",4.727945,911.7736816406251,1.0,1.0,1.0\r\n'
    "synth-blk,exhaustive,4,4,2800,32,32,512,4096, lead,4.727945,911.7736816406251,1.0,1.0,1.0\r\n"
    "synth-fluid,oneshot,0,4,2800,32,32,512,4096,BPredX,4.727945,911.1607142857141,1.0,1.0,1.0\r\n"
    "synth-fluid,oneshot,1,4,2800,32,32,512,4096,,4.727945,911.1607142857141,1.0,1.0,1.0\r\n"
    'synth-fluid,exhaustive,2,4,2800,32,32,512,4096,"a,b X2",4.88872625,895.6845238095236,'
    "1.0340065821408668,0.9830148619957537,0.9881140340102651\r\n"
    'synth-fluid,exhaustive,3,4,2800,32,32,512,4096,"say ""x2""",4.727945,911.1607142857141,1.0,1.0,1.0\r\n'
    "synth-fluid,exhaustive,4,4,2800,32,32,512,4096, lead,4.727945,911.1607142857141,1.0,1.0,1.0\r\n"
)
AWKWARD_PARETO = (
    "benchmark,power,time,objective,cores,freq,l1i,l1d,l2,l3,bpred,chosen\r\n"
    "synth-blk,4.727945,911.7736816406251,1.0,4,2800,32,32,512,4096,BPredX,0\r\n"
    'synth-blk,4.88872625,882.4369469467476,0.9744427471050705,4,2800,32,32,512,4096,"a,b X2",1\r\n'
    "synth-fluid,4.727945,911.1607142857141,1.0,4,2800,32,32,512,4096,BPredX,0\r\n"
    'synth-fluid,4.88872625,895.6845238095236,0.9881140340102651,4,2800,32,32,512,4096,"a,b X2",1\r\n'
)


def awkward_run(runner, tmp_path):
    """A synthetic run over one setting of each required parameter and
    ``bpred`` settings that are awkward in a CSV cell; returns its directory."""
    bpred = ["BPredX", "a,b X2", 'say "x2"', " lead", ""]
    space_file = synthetic_space(
        tmp_path, ["synth-blk", "synth-fluid"],
        cores=[4], freq=[2800], l1i=[32], l1d=[32], l2=[512], l3=[4096], bpred=bpred,
    )
    out_dir = tmp_path / "awkward"
    result = invoke(
        runner, "run", "--space", space_file, "-T", 5, "--profile", "highperf",
        "--evaluator", "synthetic", "--out", out_dir, "--jobs", 1,
    )
    assert result.exit_code == 0, result.output
    return out_dir


def tree(root):
    """Every file under ``root`` but the manifests, as (path, bytes) pairs."""
    return [
        (path.relative_to(root), path.read_bytes())
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != MANIFEST_FILE
    ]


class TestValidate:
    def test_valid_file(self, runner, tiny_space_file):
        result = invoke(runner, "validate", tiny_space_file)
        assert result.exit_code == 0
        assert "ok: 2 parameters, 1 benchmarks, 6 configurations" in result.stdout

    def test_shipped_space_by_name(self, runner):
        result = invoke(runner, "validate", "parsec-small")
        assert result.exit_code == 0
        assert "2700 configurations" in result.stdout

    def test_violations_exit_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"parameters": [{"name": "A", "settings": []}], "benchmarks": []}',
            encoding="utf-8",
        )
        result = invoke(runner, "validate", bad)
        assert result.exit_code == 1
        assert "violation:" in result.stdout

    @pytest.mark.parametrize(
        "name, file", [("seq", "evals.csv"), ("phase", "evals.csv"), ("chosen", "pareto.csv")]
    )
    def test_a_parameter_named_like_a_fixed_column_exits_1(self, runner, tmp_path, name, file):
        # every run of this space would fail, so validate refuses it too
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"parameters": [{"name": "%s", "settings": [1, 2]}], "benchmarks": ["b"]}' % name,
            encoding="utf-8",
        )
        result = invoke(runner, "validate", bad)
        assert result.exit_code == 1
        assert result.stdout == f"violation: {file} would hold two columns named {name!r}\n"

    def test_missing_file_exit_3(self, runner):
        result = invoke(runner, "validate", "no-such-space")
        assert result.exit_code == 3
        assert "not found" in result.stderr

    def test_malformed_json_exit_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        result = invoke(runner, "validate", bad)
        assert result.exit_code == 1

    @pytest.mark.parametrize("settings", ['"abc"', "[[1], [2]]", "[null, 2]"])
    def test_malformed_settings_exit_1(self, runner, tmp_path, settings):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"parameters": [{"name": "A", "settings": %s}], "benchmarks": ["b"]}' % settings,
            encoding="utf-8",
        )
        result = invoke(runner, "validate", bad)
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ")
        assert "'A'" in result.stderr
        assert "Traceback" not in result.output

    def test_settings_that_share_a_text_exit_1_before_a_backend(self, runner, tmp_path):
        path = tmp_path / "texts.json"
        path.write_text(
            '{"parameters": [{"name": "A", "settings": [1, "1"]},'
            ' {"name": "B", "settings": [100, 200]}], "benchmarks": ["t"]}',
            encoding="utf-8",
        )
        violation = "parameter 'A' has settings 1 and '1' with the same text '1'"
        result = invoke(runner, "validate", path)
        assert result.exit_code == 1
        assert result.stdout == f"violation: {violation}\n"
        # a missing table would exit 3 had the backend been built
        result = invoke(
            runner, "run", "--space", path, "-T", 1, "--profile", "lowpower",
            "--evaluator", f"table:{tmp_path / 'absent.csv'}", "--out", tmp_path / "out",
        )
        assert result.exit_code == 1
        assert result.stderr == f"error: invalid space: {violation}\n"
        assert not (tmp_path / "out").exists()

    def test_duplicate_benchmark_exits_1_before_a_backend(self, runner, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text(
            '{"parameters": [{"name": "A", "settings": [1, 2]}], "benchmarks": ["t", "t"]}',
            encoding="utf-8",
        )
        violation = "duplicate benchmark name 't'"
        result = invoke(runner, "validate", path)
        assert result.exit_code == 1
        assert result.stdout == f"violation: {violation}\n"
        # a missing table would exit 3 had the backend been built
        result = invoke(
            runner, "run", "--space", path, "-T", 1, "--profile", "lowpower",
            "--evaluator", f"table:{tmp_path / 'absent.csv'}", "--out", tmp_path / "out",
        )
        assert result.exit_code == 1
        assert result.stderr == f"error: invalid space: {violation}\n"
        assert not (tmp_path / "out").exists()

    def test_descending_settings_warn_but_pass(self, runner, tmp_path):
        path = tmp_path / "desc.json"
        path.write_text(
            '{"parameters": [{"name": "A", "settings": [4, 1]}], "benchmarks": ["b"]}',
            encoding="utf-8",
        )
        result = invoke(runner, "validate", path)
        assert result.exit_code == 0
        assert "not in ascending order" in result.stderr

    @pytest.mark.parametrize(
        "command, search_args",
        [("run", ["-T", 3, "--jobs", 1]), ("sweep", ["--thresholds", "1,3", "--jobs", 2])],
        ids=["run", "sweep"],
    )
    def test_descending_settings_warn_once_in_a_search(self, runner, tmp_path, tiny_csv, command, search_args):
        path = tmp_path / "desc.json"
        path.write_text(
            json.dumps(
                {
                    "parameters": [{"name": "A", "settings": [4, 2, 1]}, {"name": "B", "settings": [100, 200]}],
                    "benchmarks": ["t"],
                }
            ),
            encoding="utf-8",
        )
        result = invoke(
            runner, command, "--space", path, *search_args, "--weights", "power=0.1,time=0.9",
            "--evaluator", f"table:{tiny_csv}", "--out", tmp_path / "out",
        )
        assert result.exit_code == 0, result.output
        assert result.stderr == "warning: parameter 'A': numeric settings are not in ascending order\n"


class TestRun:
    def test_writes_all_artifacts(self, runner, tmp_path):
        result, out_dir = do_run(runner, tmp_path)
        assert result.exit_code == 0
        for name in (
            MANIFEST_FILE,
            SPACE_FILE,
            RESULT_FILE,
            EVALS_FILE,
            SIGNIFICANCE_FILE,
            PARETO_FILE,
        ):
            assert (out_dir / name).is_file()
        assert "t: F=0.351399 [A=4 B=200] (5 unique evaluations)" in result.stdout

    def test_result_payload(self, runner, tmp_path):
        _, out_dir = do_run(runner, tmp_path)
        payload = json.loads((out_dir / RESULT_FILE).read_text(encoding="utf-8"))
        bench = payload["benchmarks"]["t"]
        assert bench["best_config"] == {"A": 4, "B": 200}
        assert bench["objective"] == pytest.approx(TINY_BEST_F, rel=1e-12)
        assert bench["partition"]["exhaustive"] == ["A"]
        assert bench["partition"]["greedy"] == ["B"]
        assert bench["unique_evaluations"] == 5
        assert bench["error"] is None
        assert payload["threshold"] == 3
        assert payload["weights"] == {"power": 0.1, "time": 0.9}

    def test_evals_csv_layout(self, runner, tmp_path):
        _, out_dir = do_run(runner, tmp_path)
        with open(out_dir / EVALS_FILE, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "benchmark", "phase", "seq", "A", "B",
            "power", "time", "norm_power", "norm_time", "objective",
        ]
        assert len(rows) == 1 + 5
        phases = [r[1] for r in rows[1:]]
        assert phases == ["oneshot", "oneshot", "oneshot", "exhaustive", "exhaustive"]
        assert [r[2] for r in rows[1:]] == ["0", "1", "2", "3", "4"]
        # first row is the all-first-settings configuration
        assert rows[1][3:5] == ["1", "100"]
        assert float(rows[1][9]) == pytest.approx(0.1 * (0.7 / 2.2) + 0.9)

    def test_significance_csv(self, runner, tmp_path):
        _, out_dir = do_run(runner, tmp_path)
        with open(out_dir / SIGNIFICANCE_FILE, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        table = {r["parameter"]: float(r["significance"]) for r in rows}
        assert all(r["benchmark"] == "t" for r in rows)
        assert table["A"] == pytest.approx(-0.554895104895105, rel=1e-12)
        assert table["B"] == pytest.approx(-0.025524475524475565, rel=1e-12)

    def test_pareto_csv(self, runner, tmp_path):
        _, out_dir = do_run(runner, tmp_path)
        with open(out_dir / PARETO_FILE, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "front must not be empty"
        assert set(rows[0]) == {
            "benchmark", "power", "time", "objective", "A", "B", "chosen",
        }
        chosen = [r for r in rows if r["chosen"] == "1"]
        assert len(chosen) == 1
        assert chosen[0]["A"] == "4" and chosen[0]["B"] == "200"
        # front members are mutually non-dominated, sorted by first metric
        powers = [float(r["power"]) for r in rows]
        times = [float(r["time"]) for r in rows]
        assert powers == sorted(powers)
        assert times == sorted(times, reverse=True)

    def test_manifest_and_replay_hash(self, runner, tmp_path):
        _, out_dir = do_run(runner, tmp_path)
        manifest = json.loads((out_dir / MANIFEST_FILE).read_text(encoding="utf-8"))
        assert manifest["tool"] == "dsekit"
        assert manifest["version"] == __version__
        assert manifest["threshold"] == 3
        assert manifest["replay_hash"] == replay_hash(manifest)
        # the replay hash ignores timestamp, jobs, and output location
        changed = dict(manifest, timestamp="2000-01-01T00:00:00", jobs=99, out_dir="x")
        assert replay_hash(changed) == manifest["replay_hash"]
        assert replay_hash(dict(manifest, threshold=4)) != manifest["replay_hash"]

    def test_load_run_round_trip(self, runner, tmp_path, monkeypatch):
        searched = {}

        def recorded(*args):
            result = run_search(*args)
            searched.update(result.benchmarks)
            return result

        monkeypatch.setattr(cli, "run_search", recorded)
        # the table holds no rows of benchmark u, so its search fails
        result, out_dir = do_run(runner, tmp_path, **{"--space": two_benchmark_space(tmp_path)})
        assert result.exit_code == 2
        manifest, run_result = load_run(out_dir)
        assert manifest["replay_hash"]
        assert space_hash(run_result.space) == manifest["space_sha256"]
        bench = run_result.benchmarks["t"]
        assert bench.best_config == {"A": 4, "B": 200}
        assert len(bench.records) == 5
        assert bench.records[0].config == {"A": 1, "B": 100}
        assert bench.records[0].normalized is not None
        assert list(searched) == list(run_result.benchmarks) == ["t", "u"]
        assert bench.partition.exhaustive == ("A",) and run_result.benchmarks["u"].error
        fields = (
            "best_config", "best_metrics", "objective", "significance", "partition",
            "normalization", "unique_evaluations", "total_requests", "error",
        )
        for name, returned in searched.items():
            loaded = run_result.benchmarks[name]
            for field in fields:
                assert getattr(loaded, field) == getattr(returned, field), (name, field)
            logged = [(r.phase, r.seq, r.config, r.metrics, r.objective) for r in loaded.records]
            assert logged == [(r.phase, r.seq, r.config, r.metrics, r.objective) for r in returned.records]

    def test_profile_flag(self, runner, tmp_path):
        result, out_dir = do_run(
            runner, tmp_path, **{"--weights": None, "--profile": "highperf"}
        )
        assert result.exit_code == 0
        manifest = json.loads((out_dir / MANIFEST_FILE).read_text(encoding="utf-8"))
        assert manifest["weights"] == {"power": 0.1, "time": 0.9}

    def test_weights_and_profile_conflict(self, runner, tmp_path):
        result, _ = do_run(runner, tmp_path, **{"--profile": "highperf"})
        assert result.exit_code == 1
        assert "exactly one of --weights or --profile" in result.stderr

    def test_weights_required(self, runner, tmp_path):
        result, _ = do_run(runner, tmp_path, **{"--weights": None})
        assert result.exit_code == 1

    def test_weights_naming_other_metrics_fail_every_benchmark(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "make_evaluator", lambda spec, space, timeout, jobs: TinyBackend())
        result, out_dir = do_run(
            runner, tmp_path, **{"--space": two_benchmark_space(tmp_path), "--weights": "power=1.0"}
        )
        assert result.exit_code == 2
        payload = json.loads((out_dir / RESULT_FILE).read_text(encoding="utf-8"))
        for name in ("t", "u"):
            assert f"{name}: FAILED: " in result.stdout
            assert "expected ['power']" in payload["benchmarks"][name]["error"]

    def test_bad_threshold(self, runner, tmp_path):
        result, _ = do_run(runner, tmp_path, threshold=0)
        assert result.exit_code == 1
        assert "threshold" in result.stderr

    def test_threshold_below_one_exits_1_before_any_warning_or_file(self, runner, tmp_path):
        # descending settings would warn, but a refused command prints no warning
        space_file = tmp_path / "desc.json"
        space_file.write_text(
            '{"parameters": [{"name": "A", "settings": [4, 1]}], "benchmarks": ["t"]}',
            encoding="utf-8",
        )
        result, out_dir = do_run(runner, tmp_path, threshold=0, **{"--space": space_file})
        assert result.exit_code == 1
        assert result.stderr == "error: threshold must be >= 1\n"
        assert not out_dir.exists()

    def test_bad_weights_exit_1_before_the_table_is_read(self, runner, tmp_path):
        result, out_dir = do_run(
            runner, tmp_path,
            **{"--weights": "power=0.5,time=0.6", "--evaluator": f"table:{tmp_path / 'missing.csv'}"},
        )
        assert result.exit_code == 1
        assert result.stderr.startswith("error: invalid weights")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "name, file", [("seq", "evals.csv"), ("phase", "evals.csv"), ("power", "evals.csv"),
                       ("norm_time", "evals.csv"), ("chosen", "pareto.csv")],
    )
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_a_parameter_named_like_a_column_exits_1_before_a_backend(
        self, runner, tmp_path, name, file, command
    ):
        path = tmp_path / "named.json"
        path.write_text(
            f'{{"parameters": [{{"name": "{name}", "settings": ["a", "b"]}}], "benchmarks": ["t"]}}',
            encoding="utf-8",
        )
        # a missing table would exit 3 had the backend been built
        thresholds = ["-T", 1] if command == "run" else ["--thresholds", "1,2"]
        result = invoke(
            runner, command, "--space", path, *thresholds, "--profile", "lowpower",
            "--evaluator", f"table:{tmp_path / 'absent.csv'}", "--out", tmp_path / "out",
        )
        assert result.exit_code == 1
        assert result.stderr == f"error: {file} would hold two columns named {name!r}\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_evaluator(self, runner, tmp_path):
        result, _ = do_run(runner, tmp_path, **{"--evaluator": "quantum"})
        assert result.exit_code == 1

    def test_missing_space_file(self, runner, tmp_path):
        result = invoke(
            runner, "run", "--space", tmp_path / "nope.json", "--threshold", 3,
            "--weights", "power=1.0", "--evaluator", "sepmono",
            "--out", tmp_path / "out",
        )
        assert result.exit_code == 3

    def test_missing_table_file(self, runner, tmp_path):
        result, _ = do_run(runner, tmp_path, **{"--evaluator": "table:/no/such.csv"})
        assert result.exit_code == 3

    def test_incomplete_table_fails_with_artifacts(self, runner, tmp_path):
        short_csv = tmp_path / "short.csv"
        short_csv.write_text(
            "benchmark,A,B,power,time\n"
            "t,1,100,0.7,26.0\n"
            "t,4,100,2.2,8.0\n"
            "t,1,200,0.9,25.0\n",
            encoding="utf-8",
        )
        result, out_dir = do_run(runner, tmp_path, **{"--evaluator": f"table:{short_csv}"})
        assert result.exit_code == 2
        assert "evaluation failed for: t" in result.stderr
        payload = json.loads((out_dir / RESULT_FILE).read_text(encoding="utf-8"))
        assert payload["benchmarks"]["t"]["error"]
        assert "t: FAILED" in result.stdout

    @pytest.mark.parametrize(
        "settings",
        [{"cores": [0, 2]}, {"cores": ["a", "b"]}, {"width": [0, 2]}],
        ids=["zero-cores", "string-cores", "zero-width"],
    )
    def test_synthetic_setting_outside_the_model_fails_its_benchmarks(self, runner, tmp_path, settings):
        space_file = synthetic_space(tmp_path, SYNTH_BENCHMARKS[:2], **settings)
        out_dir = tmp_path / "run"
        result = invoke(
            runner, "run", "--space", space_file, "-T", 4, "--profile", "lowpower",
            "--evaluator", "synthetic", "--jobs", 1, "--out", out_dir,
        )
        assert result.exit_code == 2
        assert ": FAILED: synthetic model cannot evaluate configuration" in result.stdout
        payload = json.loads((out_dir / RESULT_FILE).read_text(encoding="utf-8"))
        assert all(entry["error"] for entry in payload["benchmarks"].values())

    def test_zero_cores_through_the_reference_worker_match_the_in_process_run(self, tmp_path):
        # Run as a process, so a worker traceback would reach its stderr.
        space_file = synthetic_space(tmp_path, SYNTH_BENCHMARKS[:2], cores=[0, 2])
        worker = f"exec:{sys.executable} -m dsekit.mock_worker --model synthetic"
        outputs = []
        for name, evaluator in (("inproc", "synthetic"), ("exec", worker)):
            out_dir = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "dsekit.cli", "run", "--space", str(space_file), "-T", "4",
                 "--profile", "lowpower", "--evaluator", evaluator, "--jobs", "1", "--out", str(out_dir)],
                capture_output=True, text=True, timeout=120,
            )
            assert "Traceback" not in proc.stderr
            files = [(out_dir / f).read_bytes() for f in (RESULT_FILE, EVALS_FILE)]
            outputs.append((proc.returncode, proc.stdout, files))
        assert outputs[0][0] == 2
        assert ": FAILED: synthetic model cannot evaluate configuration" in outputs[0][1]
        assert outputs[1] == outputs[0]

    def test_table_replays_string_settings_that_look_numeric(self, runner, tmp_path):
        space_file = tmp_path / "modes.json"
        space_file.write_text(
            json.dumps(
                {"parameters": [{"name": "A", "settings": [1, 2]}, {"name": "mode", "settings": ["0", "1"]}],
                 "benchmarks": ["t"]}
            ),
            encoding="utf-8",
        )
        table = tmp_path / "modes.csv"
        table.write_text(
            "benchmark,A,mode,power,time\n"
            "t,1,0,1.0,4.0\n"
            "t,1,1,2.0,1.0\n"
            "t,2,0,2.0,3.0\n"
            "t,2.0,1,3.0,2.0\n",  # a table may spell the setting 2 as 2.0
            encoding="utf-8",
        )
        result, out_dir = do_run(
            runner, tmp_path, threshold=4, **{"--space": space_file, "--evaluator": f"table:{table}"}
        )
        assert result.exit_code == 0, result.output
        best = json.loads((out_dir / RESULT_FILE).read_text(encoding="utf-8"))["benchmarks"]["t"]["best_config"]
        assert best == {"A": 1, "mode": "1"}
        _, run_result = load_run(out_dir)
        oneshot = [r.config for r in run_result.benchmarks["t"].records[:3]]
        assert oneshot == [{"A": 1, "mode": "0"}, {"A": 2, "mode": "0"}, {"A": 1, "mode": "1"}]

    def test_awkward_string_settings_are_written_as_csv_writes_them(self, runner, tmp_path):
        run_dir = awkward_run(runner, tmp_path)
        assert (run_dir / EVALS_FILE).read_bytes() == AWKWARD_EVALS.encode()
        assert (run_dir / PARETO_FILE).read_bytes() == AWKWARD_PARETO.encode()
        assert invoke(runner, "oracle", run_dir).exit_code == 0
        assert invoke(runner, "compare", run_dir, run_dir / "oracle").exit_code == 0

    def test_partition_warning_reaches_stderr(self, runner, tmp_path):
        result, _ = do_run(runner, tmp_path, threshold=2)
        assert result.exit_code == 0
        assert "exhaustive set is empty" in result.stderr

    def test_sepmono_needs_no_table(self, runner, tmp_path):
        result, out_dir = do_run(runner, tmp_path, **{"--evaluator": "sepmono"})
        assert result.exit_code == 0
        payload = json.loads((out_dir / RESULT_FILE).read_text(encoding="utf-8"))
        # time carries 0.9 of the weight, so the optimum is the all-last corner
        assert payload["benchmarks"]["t"]["best_config"] == {"A": 4, "B": 200}


class TestDeterminism:
    def test_identical_runs_share_bytes_and_replay_hash(self, runner, tmp_path):
        _, first = do_run(runner, tmp_path, out="run1")
        _, second = do_run(runner, tmp_path, out="run2")
        for name in (EVALS_FILE, RESULT_FILE, SIGNIFICANCE_FILE, PARETO_FILE, SPACE_FILE):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        m1 = json.loads((first / MANIFEST_FILE).read_text(encoding="utf-8"))
        m2 = json.loads((second / MANIFEST_FILE).read_text(encoding="utf-8"))
        assert m1["replay_hash"] == m2["replay_hash"]
        assert m1["space_sha256"] == m2["space_sha256"]


class TestOracle:
    def test_oracle_and_compare_round_trip(self, runner, tmp_path):
        _, run_dir = do_run(runner, tmp_path)
        result = invoke(runner, "oracle", run_dir)
        assert result.exit_code == 0
        oracle_file = run_dir / "oracle" / ORACLE_FILE
        assert oracle_file.is_file()
        payload = json.loads(oracle_file.read_text(encoding="utf-8"))
        bench = payload["benchmarks"]["t"]
        assert bench["best_config"] == {"A": 4, "B": 200}
        assert bench["objective"] == pytest.approx(TINY_BEST_F, rel=1e-12)
        assert bench["evaluations"] == 6
        assert "t: F=0.351399 [A=4 B=200]" in result.stdout

        compared = invoke(runner, "compare", run_dir, run_dir / "oracle")
        assert compared.exit_code == 0
        assert (run_dir / COMPARE_JSON_FILE).is_file()
        assert (run_dir / COMPARE_TXT_FILE).is_file()
        doc = json.loads((run_dir / COMPARE_JSON_FILE).read_text(encoding="utf-8"))
        row = doc["benchmarks"]["t"]
        assert row["objective_gap_pct"] == 0.0
        assert row["unique_evaluations"] == 5
        assert row["cardinality"] == 6
        assert row["speedup"] == pytest.approx(1.2)
        text = (run_dir / COMPARE_TXT_FILE).read_text(encoding="utf-8")
        assert "benchmark: t" in text
        assert "speedup" in text
        assert compared.stdout.rstrip("\n") in text.rstrip("\n")

    def test_oracle_and_compare_call_the_names_patched_on_cli(self, runner, tmp_path, monkeypatch):
        # as perfbench/tracing.py wraps them to time each layer
        _, run_dir = do_run(runner, tmp_path)
        calls = []

        def recorded(name):
            function = getattr(cli, name)

            def call(*args):
                calls.append(name)
                return function(*args)

            monkeypatch.setattr(cli, name, call)

        recorded("oracle_search")
        recorded("compare_runs")
        assert invoke(runner, "oracle", run_dir).exit_code == 0
        assert calls == ["oracle_search"]
        assert invoke(runner, "compare", run_dir, run_dir / "oracle").exit_code == 0
        assert calls == ["oracle_search", "compare_runs"]

    def test_a_run_with_no_calibrated_benchmark_gives_an_empty_oracle(self, runner, tmp_path):
        space = tmp_path / "u.json"
        parameters = [{"name": "A", "settings": [1, 2, 4]}, {"name": "B", "settings": [100, 200]}]
        space.write_text(json.dumps({"parameters": parameters, "benchmarks": ["u"]}), encoding="utf-8")
        ran, run_dir = do_run(runner, tmp_path, **{"--space": space})  # the table holds no row of u
        assert ran.exit_code == 2
        result = invoke(runner, "oracle", run_dir)
        assert result.exit_code == 0
        assert result.stdout == ""
        assert result.stderr == "warning: skipping u: run has no normalization data\n"
        payload = json.loads((run_dir / "oracle" / ORACLE_FILE).read_text(encoding="utf-8"))
        assert payload["benchmarks"] == {}

    def test_custom_out_dir(self, runner, tmp_path):
        _, run_dir = do_run(runner, tmp_path)
        custom = tmp_path / "elsewhere"
        result = invoke(runner, "oracle", run_dir, "--out", custom)
        assert result.exit_code == 0
        assert (custom / ORACLE_FILE).is_file()

    def test_guard_blocks_via_environment(self, runner, tmp_path):
        _, run_dir = do_run(runner, tmp_path)
        result = invoke(runner, "oracle", run_dir, env={"DSE_ORACLE_GUARD": "5"})
        assert result.exit_code == 1
        assert "enumeration guard" in result.stderr

    def test_guard_refuses_before_the_backend_is_built(self, runner, tmp_path, monkeypatch):
        _, run_dir = do_run(runner, tmp_path)
        built = []
        monkeypatch.setattr(cli, "make_evaluator", lambda *args, **kwargs: built.append(args))
        result = invoke(runner, "oracle", run_dir, env={"DSE_ORACLE_GUARD": "5"})
        assert result.exit_code == 1
        assert "error: space cardinality 6 exceeds the enumeration guard 5" in result.stderr
        assert built == []
        assert not (run_dir / "oracle").exists()

    def test_missing_run_dir(self, runner, tmp_path):
        result = invoke(runner, "oracle", tmp_path / "absent")
        assert result.exit_code == 3

    def test_malformed_guard_exits_1(self, runner, tmp_path):
        _, run_dir = do_run(runner, tmp_path)
        result = invoke(runner, "oracle", run_dir, env={"DSE_ORACLE_GUARD": "abc"})
        assert result.exit_code == 1
        assert "error: DSE_ORACLE_GUARD must be an integer" in result.stderr
        assert not (run_dir / "oracle").exists()

    def test_run_failed_on_degenerate_weight_exits_1(self, runner, tmp_path, monkeypatch):
        class ZeroPower:
            def evaluate(self, config, benchmark):
                return {**tiny_metrics(config["A"], config["B"]), "power": 0.0}

        monkeypatch.setattr(cli, "make_evaluator", lambda spec, space, timeout, jobs: ZeroPower())
        result, run_dir = do_run(runner, tmp_path)
        assert result.exit_code == 2
        payload = json.loads((run_dir / RESULT_FILE).read_text(encoding="utf-8"))
        assert payload["benchmarks"]["t"]["normalization"] == {
            "maxima": {"power": 0.0, "time": 26.0},
            "degenerate": ["power"],
        }
        result = invoke(runner, "oracle", run_dir)
        assert result.exit_code == 1
        assert "error: metric 'power' is 0 in every one-shot record" in result.stderr

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_prints_no_objective_lines(self, runner, tmp_path, monkeypatch, jobs):
        class FailsU:
            fail = False

            def evaluate(self, config, benchmark):
                if self.fail and benchmark == "u" and config == {"A": 4, "B": 200}:
                    raise errors.EvaluationError("u fault")
                return tiny_metrics(config["A"], config["B"])

        backend = FailsU()
        monkeypatch.setattr(cli, "make_evaluator", lambda spec, space, timeout, jobs: backend)
        ran, run_dir = do_run(runner, tmp_path, **{"--space": two_benchmark_space(tmp_path)})
        assert ran.exit_code == 0, ran.output
        backend.fail = True
        result = invoke(runner, "oracle", run_dir, "--jobs", jobs)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: u fault\n"
        assert not (run_dir / "oracle").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("settings", [[], [200, 100]], ids=["empty", "reordered"])
    def test_space_refused_or_not_the_hashed_one_exits_1(self, runner, tmp_path, settings, jobs):
        # the table lacks A=2: the run fails after calibration, its maxima recorded
        rows = write_tiny_csv(tmp_path / "tiny.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        (tmp_path / "tiny.csv").write_text("".join(r for r in rows if ",2," not in r), encoding="utf-8")
        ran, run_dir = do_run(runner, tmp_path)
        assert ran.exit_code == 2
        assert json.loads((run_dir / RESULT_FILE).read_text(encoding="utf-8"))["benchmarks"]["t"]["normalization"]["maxima"]
        space = json.loads((run_dir / SPACE_FILE).read_text(encoding="utf-8"))
        space["parameters"][1]["settings"] = settings
        (run_dir / SPACE_FILE).write_text(json.dumps(space), encoding="utf-8")
        result = invoke(runner, "oracle", run_dir, "--jobs", jobs)
        assert result.exit_code == 1
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith(f"error: {run_dir / SPACE_FILE}: ")
        assert not (run_dir / "oracle").exists()

    def test_backend_metric_order_does_not_reach_the_outputs(self, runner, tmp_path, monkeypatch):
        """A backend that answers time before power writes the run directory
        and oracle of one that answers power first, as the weights order them."""

        class Ordered:
            def __init__(self, order):
                self.order = order

            def evaluate(self, config, benchmark):
                metrics = tiny_metrics(config["A"], config["B"])
                return {metric: metrics[metric] for metric in self.order}

        outputs = []
        for name, order in (("power-first", ["power", "time"]), ("time-first", ["time", "power"])):
            backend = Ordered(order)
            monkeypatch.setattr(cli, "make_evaluator", lambda spec, space, timeout, jobs: backend)
            result, run_dir = do_run(runner, tmp_path, out=name)
            assert result.exit_code == 0, result.output
            oracle = invoke(runner, "oracle", run_dir)
            assert oracle.exit_code == 0, oracle.output
            outputs.append((result.stdout, oracle.stdout, tree(run_dir)))
        assert (tmp_path / "time-first" / "oracle" / ORACLE_FILE).is_file()
        assert outputs[0] == outputs[1]


class TestCompareMismatch:
    def test_different_weights_rejected(self, runner, tmp_path):
        _, run_a = do_run(runner, tmp_path, out="a")
        invoke(runner, "oracle", run_a)
        _, run_b = do_run(
            runner, tmp_path, out="b", **{"--weights": "power=0.2,time=0.8"}
        )
        result = invoke(runner, "compare", run_b, run_a / "oracle")
        assert result.exit_code == 1
        assert "disagree on weights" in result.stderr

    def test_different_space_rejected(self, runner, tmp_path, tiny_csv):
        _, run_a = do_run(runner, tmp_path, out="a")
        invoke(runner, "oracle", run_a)
        other_space = tmp_path / "other.json"
        other_space.write_text(
            json.dumps(
                {
                    "parameters": [
                        {"name": "A", "settings": [1, 2]},
                        {"name": "B", "settings": [100, 200]},
                    ],
                    "benchmarks": ["t"],
                }
            ),
            encoding="utf-8",
        )
        result_b = invoke(
            runner, "run", "--space", other_space, "--threshold", 3,
            "--weights", "power=0.1,time=0.9", "--evaluator", f"table:{tiny_csv}",
            "--out", tmp_path / "b", "--jobs", 1,
        )
        assert result_b.exit_code == 0
        result = invoke(runner, "compare", tmp_path / "b", run_a / "oracle")
        assert result.exit_code == 1
        assert "disagree on space_sha256" in result.stderr

    def test_different_evaluator_rejected(self, runner, tmp_path):
        # the same table under another path: the same space, weights and answers
        _, run_a = do_run(runner, tmp_path, out="a")
        invoke(runner, "oracle", run_a)
        copy = write_tiny_csv(tmp_path / "copy.csv")
        _, run_b = do_run(runner, tmp_path, out="b", **{"--evaluator": f"table:{copy}"})
        result = invoke(runner, "compare", run_b, run_a / "oracle")
        assert result.exit_code == 1
        assert "disagree on evaluator" in result.stderr

    def test_benchmark_failed_in_the_run_exits_1(self, runner, tmp_path):
        run_dir = awkward_run(runner, tmp_path)
        assert invoke(runner, "oracle", run_dir).exit_code == 0
        path = run_dir / RESULT_FILE
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["benchmarks"]["synth-fluid"].update(
            error="boom", best_config=None, best_metrics=None, objective=None
        )
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = invoke(runner, "compare", run_dir, run_dir / "oracle")
        assert result.exit_code == 1
        assert result.stderr == "error: benchmark 'synth-fluid' failed in the methodology run: boom\n"
        assert not (run_dir / COMPARE_JSON_FILE).exists()


    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["NaN", "Infinity"])
    def test_non_finite_oracle_objective_exits_1(self, runner, tmp_path, value):
        _, run_dir = do_run(runner, tmp_path)
        assert invoke(runner, "oracle", run_dir).exit_code == 0
        path = run_dir / "oracle" / ORACLE_FILE
        doc = json.loads(path.read_text(encoding="utf-8"))
        for entry in doc["benchmarks"].values():
            entry["objective"] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = invoke(runner, "compare", run_dir, run_dir / "oracle")
        assert result.exit_code == 1
        assert result.stderr == f"error: {path}: malformed: benchmark 't': 'objective' is {value!r}, not finite\n"
        assert not (run_dir / COMPARE_JSON_FILE).exists()


class TestSweep:
    def test_two_thresholds(self, runner, tmp_path, tiny_space_file, tiny_csv):
        out = tmp_path / "sweep"
        result = invoke(
            runner, "sweep", "--space", tiny_space_file, "--thresholds", "2,6",
            "--weights", "power=0.1,time=0.9", "--evaluator", f"table:{tiny_csv}",
            "--out", out, "--jobs", 1,
        )
        assert result.exit_code == 0
        assert (out / "run01-T2").is_dir()
        assert (out / "run02-T6").is_dir()
        with open(out / SWEEP_FILE, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["threshold"] for r in rows] == ["2", "6"]
        # a larger exhaustive budget never yields a worse objective
        assert float(rows[1]["objective"]) <= float(rows[0]["objective"])
        assert all(r["benchmark"] == "t" for r in rows)
        # T=6 covers the whole space exhaustively
        assert rows[1]["unique_evaluations"] == "6"
        assert float(rows[1]["explored_pct"]) == pytest.approx(100.0)

    def test_each_directory_is_written_before_the_next_threshold_is_searched(
        self, runner, tmp_path, tiny_space_file, tiny_csv, monkeypatch
    ):
        # so a sweep that is killed keeps every threshold it finished
        out = tmp_path / "sweep"
        written = []

        def search(*args):
            written.append(sorted(path.name for path in out.glob("run*")))
            return run_search(*args)

        monkeypatch.setattr(cli, "run_search", search)
        result = invoke(
            runner, "sweep", "--space", tiny_space_file, "--thresholds", "2,6,3",
            "--weights", "power=0.1,time=0.9", "--evaluator", f"table:{tiny_csv}",
            "--out", out, "--jobs", 1,
        )
        assert result.exit_code == 0
        assert written == [[], ["run01-T2"], ["run01-T2", "run02-T6"]]

    def test_shared_memo_attributes_unique_per_run(self, runner, tmp_path, tiny_space_file, tiny_csv):
        out = tmp_path / "sweep"
        result = invoke(
            runner, "sweep", "--space", tiny_space_file, "--thresholds", "3,3",
            "--weights", "power=0.1,time=0.9", "--evaluator", f"table:{tiny_csv}",
            "--out", out, "--jobs", 1,
        )
        assert result.exit_code == 0
        with open(out / SWEEP_FILE, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        # both runs report their own unique count even though the second
        # was served entirely from the shared memo
        assert rows[0]["unique_evaluations"] == rows[1]["unique_evaluations"] == "5"
        assert rows[0]["objective"] == rows[1]["objective"]

    def test_single_threshold_rejected(self, runner, tmp_path, tiny_space_file, tiny_csv):
        result = invoke(
            runner, "sweep", "--space", tiny_space_file, "--thresholds", "3",
            "--weights", "power=0.1,time=0.9", "--evaluator", f"table:{tiny_csv}",
            "--out", tmp_path / "s",
        )
        assert result.exit_code == 1
        assert "at least two thresholds" in result.stderr

    def test_threshold_below_one_exits_1_and_writes_nothing(
        self, runner, tmp_path, tiny_space_file, tiny_csv
    ):
        result = invoke(
            runner, "sweep", "--space", tiny_space_file, "--thresholds", "0,5",
            "--weights", "power=0.1,time=0.9", "--evaluator", f"table:{tiny_csv}",
            "--out", tmp_path / "s",
        )
        assert result.exit_code == 1
        assert "error: threshold must be >= 1" in result.stderr
        assert not (tmp_path / "s").exists()

    def test_malformed_threshold_list(self, runner, tmp_path, tiny_space_file, tiny_csv):
        result = invoke(
            runner, "sweep", "--space", tiny_space_file, "--thresholds", "3,x",
            "--weights", "power=0.1,time=0.9", "--evaluator", f"table:{tiny_csv}",
            "--out", tmp_path / "s",
        )
        assert result.exit_code == 1
        assert "bad threshold list" in result.stderr


class TestExecBackend:
    def test_run_through_worker_matches_table(self, runner, tmp_path):
        import sys

        _, table_dir = do_run(runner, tmp_path, out="table-run")
        worker = f"exec:{sys.executable} -m dsekit.mock_worker"
        result, exec_dir = do_run(
            runner, tmp_path, out="exec-run", **{"--evaluator": worker}
        )
        assert result.exit_code == 0
        assert (exec_dir / EVALS_FILE).read_bytes() == (table_dir / EVALS_FILE).read_bytes()
        assert (exec_dir / RESULT_FILE).read_bytes() == (table_dir / RESULT_FILE).read_bytes()

    def test_worker_error_exits_2(self, runner, tmp_path):
        import sys

        worker = f"exec:{sys.executable} -m dsekit.mock_worker --error-on t"
        result, out_dir = do_run(runner, tmp_path, out="bad", **{"--evaluator": worker})
        assert result.exit_code == 2
        payload = json.loads((out_dir / RESULT_FILE).read_text(encoding="utf-8"))
        assert "injected failure" in payload["benchmarks"]["t"]["error"]

    def test_unstartable_worker_fails_run_with_exit_2(self, runner, tmp_path):
        worker = f"exec:{tmp_path / 'absent-worker'}"
        result, out_dir = do_run(runner, tmp_path, out="bad", **{"--evaluator": worker})
        assert result.exit_code == 2
        assert "t: FAILED: evaluator terminated: cannot start worker" in result.stdout
        payload = json.loads((out_dir / RESULT_FILE).read_text(encoding="utf-8"))
        assert "cannot start worker" in payload["benchmarks"]["t"]["error"]

    def test_unstartable_worker_fails_oracle_with_exit_2(self, runner, tmp_path):
        _, run_dir = do_run(runner, tmp_path)
        manifest_file = run_dir / MANIFEST_FILE
        manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
        manifest["evaluator"] = f"exec:{tmp_path / 'absent-worker'}"
        manifest_file.write_text(json.dumps(manifest), encoding="utf-8")
        result = invoke(runner, "oracle", run_dir)
        assert result.exit_code == 2
        assert "error: evaluator terminated: cannot start worker" in result.stderr


    @pytest.mark.parametrize("flag", ["--error-on", "--nan-on", "--drop-metric-on"])
    def test_worker_fault_fails_only_its_benchmark(self, runner, tmp_path, flag):
        space_file = tmp_path / "two.json"
        space_file.write_text(
            json.dumps(
                {
                    "parameters": [
                        {"name": "A", "settings": [1, 2, 4]},
                        {"name": "B", "settings": [100, 200]},
                    ],
                    "benchmarks": ["t", "u"],
                }
            ),
            encoding="utf-8",
        )
        worker = f"exec:{sys.executable} -m dsekit.mock_worker {flag} u"
        outputs = []
        for jobs in (1, 3):
            result, out_dir = do_run(
                runner, tmp_path, out=f"jobs{jobs}",
                **{"--space": space_file, "--evaluator": worker, "--jobs": jobs},
            )
            assert result.exit_code == 2
            assert "u: FAILED: " in result.stdout
            payload = json.loads((out_dir / RESULT_FILE).read_text(encoding="utf-8"))
            assert payload["benchmarks"]["t"]["error"] is None
            assert payload["benchmarks"]["u"]["error"] is not None
            outputs.append([(out_dir / name).read_bytes() for name in (EVALS_FILE, RESULT_FILE)])
        assert outputs[0] == outputs[1]


    def test_dropped_metric_is_never_logged(self, runner, tmp_path):
        worker = f"exec:{sys.executable} -m dsekit.mock_worker --drop-metric-on u"
        result, out_dir = do_run(
            runner, tmp_path, **{"--space": two_benchmark_space(tmp_path), "--evaluator": worker}
        )
        assert result.exit_code == 2
        error = json.loads((out_dir / RESULT_FILE).read_text(encoding="utf-8"))["benchmarks"]["u"]["error"]
        assert "evaluator returned metrics ['power'], expected ['power', 'time']" in error
        with open(out_dir / EVALS_FILE, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.DictReader(fh) if row["benchmark"] == "u"]
        assert all(row["time"] for row in rows)


class TinyBackend:
    """The tiny model; records the thread of every call and may emit NaN."""

    def __init__(self, nan=False):
        self.nan = nan
        self.threads = set()

    def evaluate(self, config, benchmark):
        self.threads.add(threading.get_ident())
        metrics = tiny_metrics(config["A"], config["B"])
        return {**metrics, "time": math.nan} if self.nan else metrics


class TestSerialEvaluation:
    def use_backend(self, monkeypatch, backend):
        monkeypatch.setattr(cli, "make_evaluator", lambda spec, space, timeout, jobs: backend)

    def test_run_and_oracle_evaluate_on_the_main_thread(self, runner, tmp_path, monkeypatch):
        backend = TinyBackend()
        self.use_backend(monkeypatch, backend)
        result, out_dir = do_run(runner, tmp_path, **{"--jobs": 1})
        assert result.exit_code == 0
        assert invoke(runner, "oracle", out_dir, "--jobs", 1).exit_code == 0
        assert backend.threads == {threading.main_thread().ident}

    def test_non_finite_oracle_response_exits_2(self, runner, tmp_path, monkeypatch):
        result, out_dir = do_run(runner, tmp_path)
        assert result.exit_code == 0
        self.use_backend(monkeypatch, TinyBackend(nan=True))
        result = invoke(runner, "oracle", out_dir)
        assert result.exit_code == 2
        assert "not a finite number" in result.stderr

    def test_jobs_below_one_rejected(self, runner, tmp_path):
        result, _ = do_run(runner, tmp_path, **{"--jobs": 0})
        assert result.exit_code == 1
        assert "--jobs must be >= 1" in result.stderr

    @pytest.mark.parametrize("timeout", ["-5", "0", "nan", "inf"])
    def test_timeout_must_be_finite_and_positive_for_every_backend(self, runner, tmp_path, timeout):
        result, out_dir = do_run(
            runner, tmp_path, **{"--evaluator": "synthetic:synth-fluid", "--timeout": timeout}
        )
        assert result.exit_code == 1
        assert "error: --timeout must be a finite number > 0" in result.stderr
        assert not out_dir.exists()


class TestSigtermHandler:
    """A command makes SIGTERM raise while it runs, unless it runs off the
    main thread or the program that embeds it handles SIGTERM already."""

    @pytest.mark.parametrize("embedder", [False, True], ids=["default", "embedders-handler"])
    def test_the_handler_is_the_commands_only_while_it_runs(self, runner, tmp_path, monkeypatch, embedder):
        def handler(signum, frame):
            pass

        seen = []

        class Recording:
            def evaluate(self, config, benchmark):
                seen.append(signal.getsignal(signal.SIGTERM))
                return tiny_metrics(config["A"], config["B"])

        monkeypatch.setattr(cli, "make_evaluator", lambda spec, space, timeout, jobs: Recording())
        previous = signal.signal(signal.SIGTERM, handler if embedder else signal.SIG_DFL)
        try:
            result, _ = do_run(runner, tmp_path)
            after = signal.getsignal(signal.SIGTERM)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert result.exit_code == 0, result.output
        assert set(seen) == {handler if embedder else cli._terminate}
        assert after == (handler if embedder else signal.SIG_DFL)

    def test_a_command_off_the_main_thread_runs(self, runner, tmp_path):
        results = []
        thread = threading.Thread(target=lambda: results.append(do_run(runner, tmp_path, **{"--jobs": 1})))
        thread.start()
        thread.join()
        [(result, out_dir)] = results
        assert result.exit_code == 0, result.output
        assert "t: F=0.351399 [A=4 B=200] (5 unique evaluations)" in result.stdout
        assert (out_dir / RESULT_FILE).is_file()
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


class TestVersion:
    def test_version_flag(self, runner):
        result = invoke(runner, "--version")
        assert result.exit_code == 0
        assert __version__ in result.stdout


#: The exit code of every failure class in ``errors.py``, plus the OS and
#: value errors the commands let through.
EXPECTED_EXIT_CODES = {
    "DseError": 1,
    "UnknownParameterError": 1,
    "DegenerateMetricError": 1,
    "EvaluationError": 2,
    "UnknownBenchmarkError": 2,
    "MissingTableRowError": 2,
    "TableLoadError": 1,
    "ProtocolError": 2,
    "EvaluatorTerminatedError": 2,
    "EvaluationTimeoutError": 2,
    "GuardExceededError": 1,
    "FileNotFoundError": 3,
    "PermissionError": 3,
    "ValueError": 1,
}
FAILURE_CLASSES = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception)
] + [FileNotFoundError, PermissionError, ValueError]


def without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


#: The value ``with_entry`` deletes its key for.
DROP = object()


def with_entry(path, value):
    """Set one value of benchmark t's entry in result.json or oracle.json, or
    delete it for ``DROP``; ``path`` names nested keys with dots."""
    *parents, last = path.split(".")

    def corrupt(doc):
        entry = doc["benchmarks"]["t"]
        for key in parents:
            entry = entry[key]
        if value is DROP:
            del entry[last]
        else:
            entry[last] = value
        return doc

    return corrupt


def with_logged_best(config, a, b):
    """Set benchmark t's best point in result.json to ``config``, with the
    metrics and objective of the logged configuration A=a, B=b."""

    def corrupt(doc):
        entry = doc["benchmarks"]["t"]
        metrics = tiny_metrics(a, b)
        ctx = NormalizationContext(entry["normalization"]["maxima"])
        entry.update(best_config=config, best_metrics=metrics, objective=objective(metrics, ctx, doc["weights"]))
        return doc

    return corrupt


def case(command, document, corrupt, id, names=None):
    """A malformed-document case; the error line names ``names``, by default
    the document."""
    return pytest.param(command, document, corrupt, names or document, id=id)


class TestExitCodePolicy:
    @pytest.mark.parametrize("cls", FAILURE_CLASSES, ids=lambda cls: cls.__name__)
    def test_exit_code_of_each_failure_class(self, cls):
        assert cli.exit_code(cls("boom")) == EXPECTED_EXIT_CODES[cls.__name__]

    def test_other_exceptions_are_not_mapped(self):
        assert cli.exit_code(KeyError("x")) is None

    def test_internal_dse_error_exits_1(self, runner, tmp_path, monkeypatch):
        def worst_only(records):
            return [max(records, key=lambda r: r.objective)]

        monkeypatch.setattr(cli, "pareto_front", worst_only)
        result, _ = do_run(runner, tmp_path)
        assert result.exit_code == 1
        assert "error: pareto front for 't' misses the minimum-objective point" in result.stderr

    @pytest.mark.parametrize(
        "command, document, corrupt, names",
        [
            case("oracle", MANIFEST_FILE, without("evaluator"), "manifest-without-evaluator"),
            case("oracle", MANIFEST_FILE, without("replay_hash"), "manifest-without-replay-hash"),
            case("oracle", RESULT_FILE, without("threshold"), "result-without-threshold"),
            case("oracle", RESULT_FILE, lambda doc: {**doc, "benchmarks": ["t"]}, "result-benchmarks-list"),
            case("compare", RESULT_FILE, with_entry("best_config", [1, 2]), "result-best-config-list"),
            case("compare", RESULT_FILE, with_entry("objective", "x"), "result-objective-string"),
            # result.json must agree with the log it was written with.
            case(
                "oracle", RESULT_FILE, with_entry("unique_evaluations", 1), "result-count-not-the-logs",
                names=f"{RESULT_FILE}: malformed: benchmark 't': 'unique_evaluations' is 1, "
                f"but {EVALS_FILE} logs 5 evaluations",
            ),
            case(
                "compare", RESULT_FILE, with_entry("objective", 0.1), "result-objective-not-logged",
                names=f"{RESULT_FILE}: malformed: benchmark 't': the best point is not one {EVALS_FILE} logs",
            ),
            case(
                "compare", RESULT_FILE, with_entry("best_config", {"A": 2, "B": 100}), "result-config-not-logged",
                names=f"{RESULT_FILE}: malformed: benchmark 't': the best point is not one {EVALS_FILE} logs",
            ),
            case("compare", ORACLE_FILE, without("benchmarks"), "oracle-without-benchmarks"),
            case("compare", ORACLE_FILE, lambda doc: [doc], "oracle-is-a-list"),
            case("compare", ORACLE_FILE, with_entry("best_config", [1, 2]), "oracle-best-config-list"),
            case("compare", ORACLE_FILE, with_entry("objective", "0.5"), "oracle-objective-string"),
            case(
                "oracle", RESULT_FILE, lambda doc: {**doc, "weights": {"power": 0.5, "time": 0.5}},
                "result-weights-not-the-manifests",
            ),
            case(
                "oracle", RESULT_FILE, lambda doc: {**doc, "weights": {"power": 2.0, "time": -1.0}},
                "result-weights-out-of-range", names="weight 'power' = 2.0 outside [0, 1]",
            ),
            case("oracle", RESULT_FILE, with_entry("normalization.maxima.time", DROP), "result-maxima-without-time"),
            case("oracle", RESULT_FILE, with_entry("normalization.maxima.time", "x"), "result-maxima-time-string"),
            # The maxima alone decide degeneracy, whatever the stored list says.
            case(
                "oracle", RESULT_FILE, with_entry("normalization.maxima.time", 0.0), "result-maxima-time-zero",
                names="metric 'time' is 0 in every one-shot record",
            ),
            case("compare", ORACLE_FILE, with_entry("best_metrics.area", 1.0), "oracle-best-metrics-extra"),
            case("compare", ORACLE_FILE, with_entry("best_metrics.time", "x"), "oracle-best-metrics-string"),
            case("compare", ORACLE_FILE, with_entry("best_metrics.time", DROP), "oracle-best-metrics-without-time"),
            case("compare", ORACLE_FILE, with_entry("best_config.A", DROP), "oracle-best-config-without-parameter"),
            # A setting is a value of its type: the JSON boolean true equals 1, but is no setting.
            case("compare", ORACLE_FILE, with_entry("best_config.A", True), "oracle-best-config-boolean"),
            case(
                "compare", RESULT_FILE, with_logged_best({"A": True, "B": 100}, 1, 100),
                "result-best-config-boolean",
            ),
            case(
                "oracle", RESULT_FILE, with_entry("partition", []), "result-partition-list",
                names=f"{RESULT_FILE}: malformed: benchmark 't': 'partition' is not an object or null",
            ),
            # The partition and significance name the space's parameters.
            case(
                "oracle", RESULT_FILE, with_entry("partition.exhaustive", 5), "result-partition-exhaustive-number",
                names=f"{RESULT_FILE}: malformed: benchmark 't': 'partition': 'exhaustive' is 5",
            ),
            case(
                "oracle", RESULT_FILE, with_entry("partition.warnings", "abc"), "result-partition-warnings-string",
                names=f"{RESULT_FILE}: malformed: benchmark 't': 'partition': 'warnings' is 'abc'",
            ),
            case(
                "compare", RESULT_FILE, with_entry("significance.A", "x"), "result-significance-string",
                names=f"{RESULT_FILE}: malformed: benchmark 't': 'significance': 'A' is 'x'",
            ),
            case(
                "oracle", RESULT_FILE, with_entry("error", 5), "result-error-number",
                names=f"{RESULT_FILE}: malformed: benchmark 't': 'error' is not a string or null",
            ),
            *(
                case(
                    command, RESULT_FILE, lambda doc: {**doc, "weights": {"power": 10**400, "time": 0.9}},
                    f"{command}-result-weight-beyond-float-range",
                    names=f"{RESULT_FILE}: malformed: int too large to convert to float",
                )
                for command in ("oracle", "compare")
            ),
        ],
    )
    def test_malformed_document_exits_1(self, runner, tmp_path, monkeypatch, command, document, corrupt, names):
        _, run_dir = do_run(runner, tmp_path)
        oracle_dir = run_dir / "oracle"
        if command == "compare":
            assert invoke(runner, "oracle", run_dir).exit_code == 0
        path = (oracle_dir if document == ORACLE_FILE else run_dir) / document
        path.write_text(json.dumps(corrupt(json.loads(path.read_text(encoding="utf-8")))), encoding="utf-8")
        backend = TinyBackend()
        monkeypatch.setattr(cli, "make_evaluator", lambda spec, space, timeout, jobs: backend)
        result = invoke(runner, command, run_dir, *([oracle_dir] if command == "compare" else []))
        assert result.exit_code == 1
        assert "error:" in result.stderr and names in result.stderr
        if command == "oracle":
            assert backend.threads == set()
            assert not oracle_dir.exists()

    @pytest.mark.parametrize(
        "command, document", [("oracle", SPACE_FILE), ("oracle", MANIFEST_FILE), ("compare", ORACLE_FILE)]
    )
    def test_document_nested_too_deep_exits_1(self, runner, tmp_path, command, document):
        # written as it stands: json.dumps cannot build this text
        _, run_dir = do_run(runner, tmp_path)
        oracle_dir = run_dir / "oracle"
        if command == "compare":
            assert invoke(runner, "oracle", run_dir).exit_code == 0
        path = (oracle_dir if document == ORACLE_FILE else run_dir) / document
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        result = invoke(runner, command, run_dir, *([oracle_dir] if command == "compare" else []))
        assert result.exit_code == 1
        [line] = result.stderr.splitlines()
        assert line.startswith(f"error: {path}: ") and "maximum recursion depth exceeded" in line
        assert oracle_dir.exists() == (command == "compare")

    def test_metric_beyond_float_range_in_a_document_exits_1(self, runner, tmp_path):
        _, run_dir = do_run(runner, tmp_path)
        path = run_dir / RESULT_FILE
        document = with_entry("best_metrics.power", 10**400)(json.loads(path.read_text(encoding="utf-8")))
        path.write_text(json.dumps(document), encoding="utf-8")
        result = invoke(runner, "oracle", run_dir)
        assert result.exit_code == 1
        assert f"error: {path}: malformed: benchmark 't': 'best_metrics': 'power' is 1000" in result.stderr
        assert not (run_dir / "oracle").exists()

    def test_log_rows_of_a_benchmark_the_results_lack_exit_1(self, runner, tmp_path, monkeypatch):
        _, run_dir = do_run(runner, tmp_path)
        evals = run_dir / EVALS_FILE
        header, first, *rest = evals.read_text(encoding="utf-8").splitlines(keepends=True)
        evals.write_text(header + first.replace("t,", "nope,", 1) + "".join(rest), encoding="utf-8")
        backend = TinyBackend()
        monkeypatch.setattr(cli, "make_evaluator", lambda spec, space, timeout, jobs: backend)
        result = invoke(runner, "oracle", run_dir)
        assert result.exit_code == 1
        assert f"{EVALS_FILE}: rows of benchmark 'nope', which {RESULT_FILE} does not hold" in result.stderr
        assert backend.threads == set()
        assert not (run_dir / "oracle").exists()

    @pytest.mark.parametrize(
        "edit, names",
        [
            (lambda header, rows: (header + ["area"], [row + ["1.0"] for row in rows]), "header"),
            (
                lambda header, rows: (header, [[*rows[0][:5], "", *rows[0][6:]], *rows[1:]]),
                "could not convert string to float: ''",
            ),
            (lambda header, rows: (header, [rows[0] + ["1.0"], *rows[1:]]), "more cells than the header"),
            (lambda header, rows: (header, [rows[0][:-1], *rows[1:]]), "line 2 has fewer cells than the header"),
            (lambda header, rows: (header, [rows[0], *rows]), "line 3: duplicate row for benchmark 't'"),
            (
                lambda header, rows: (header, [[*rows[0][:-1], ""], *rows[1:]]),
                "line 2: a blank score, but benchmark 't' succeeded",
            ),
            # the first row, A=1 B=100, is not the best point
            (
                lambda header, rows: (header, [[*rows[0][:3], "x2", *rows[0][4:]], *rows[1:]]),
                "line 2: {'A': 'x2', 'B': 100} is not in the space",
            ),
        ],
        ids=[
            "extra-metric-column",
            "blank-metric-cell",
            "extra-cell-in-a-row",
            "missing-cell-in-a-row",
            "duplicate-row",
            "blank-objective-of-a-benchmark-that-succeeded",
            "cell-outside-the-space",
        ],
    )
    def test_evals_csv_other_than_written_exits_1(self, runner, tmp_path, monkeypatch, edit, names):
        _, run_dir = do_run(runner, tmp_path)
        evals = run_dir / EVALS_FILE
        with open(evals, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header[5] == "power"
        header, rows = edit(header, rows)
        with open(evals, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
        backend = TinyBackend()
        monkeypatch.setattr(cli, "make_evaluator", lambda spec, space, timeout, jobs: backend)
        result = invoke(runner, "oracle", run_dir)
        assert result.exit_code == 1
        assert f"{EVALS_FILE}: malformed: " in result.stderr and names in result.stderr
        assert backend.threads == set()
        assert not (run_dir / "oracle").exists()

    @pytest.mark.parametrize("timeout", ["inf", "-1", "0"])
    def test_exec_timeout_must_be_finite_and_positive(self, runner, tmp_path, timeout):
        marker = tmp_path / "spawned"
        worker = tmp_path / "worker.py"
        worker.write_text(f"open({str(marker)!r}, 'w').close()\n", encoding="utf-8")
        result, out_dir = do_run(
            runner, tmp_path, **{"--evaluator": f"exec:{sys.executable} {worker}", "--timeout": timeout}
        )
        assert result.exit_code == 1
        assert "error: --timeout must be a finite number > 0" in result.stderr
        assert not marker.exists()
        assert not out_dir.exists()


class TestJobs:
    """An exec: pool of any size writes the bytes one worker writes, and a
    search or oracle split over forked children writes the bytes of a
    serial one."""

    def test_outputs_do_not_depend_on_jobs(self, runner, tmp_path):
        space_file = synthetic_space(tmp_path)
        common = [
            "--space", space_file, "--weights", "power=0.3,time=0.7",
            "--evaluator", f"exec:{sys.executable} -m dsekit.mock_worker --model synthetic",
        ]
        run_files = (EVALS_FILE, RESULT_FILE, SIGNIFICANCE_FILE, PARETO_FILE)
        outputs = []
        for jobs in (1, 4):
            out = tmp_path / f"jobs{jobs}"
            stdouts = []
            for args in (
                ["run", *common, "-T", 8, "--out", out / "run", "--jobs", jobs],
                ["oracle", out / "run", "--out", out / "oracle", "--jobs", jobs],
                ["sweep", *common, "--thresholds", "1,8,32", "--out", out / "sweep",
                 "--jobs", jobs],
            ):
                result = invoke(runner, *args)
                assert result.exit_code == 0, result.output
                stdouts.append(result.stdout)
            manifest = json.loads((out / "run" / MANIFEST_FILE).read_text(encoding="utf-8"))
            assert manifest["jobs"] == jobs
            files = [out / "run" / name for name in run_files]
            files.append(out / "oracle" / ORACLE_FILE)
            files.append(out / "sweep" / SWEEP_FILE)
            for sub in sorted((out / "sweep").glob("run*")):
                files += [sub / name for name in run_files]
            outputs.append((stdouts, [(f.relative_to(out), f.read_bytes()) for f in files]))
        assert len(outputs[0][1]) == 3 * 4 + 4 + 2
        assert outputs[0] == outputs[1]

        synthetic = [*common[:4], "--evaluator", "synthetic"]
        searches = []
        for jobs in (1, 2, 3):
            out = tmp_path / f"synth{jobs}"
            stdouts = []
            for args in (
                ["run", *synthetic, "-T", 8, "--out", out / "run"],
                ["sweep", *synthetic, "--thresholds", "1,8,32", "--out", out / "sweep"],
            ):
                result = invoke(runner, *args, "--jobs", jobs)
                assert result.exit_code == 0, result.output
                stdouts.append(result.stdout)
            searches.append((stdouts, tree(out)))
        assert len(searches[0][1]) == 5 + 1 + 3 * 5
        assert searches[0] == searches[1] == searches[2]

        oracles = []
        for jobs in (1, 3):
            out = tmp_path / f"synth-oracle{jobs}"
            result = invoke(runner, "oracle", tmp_path / "synth1" / "run", "--out", out, "--jobs", jobs)
            assert result.exit_code == 0, result.output
            oracles.append((result.stdout, (out / ORACLE_FILE).read_bytes()))
        assert oracles[0] == oracles[1]

    def test_backend_metric_order_does_not_depend_on_jobs(self, runner, tmp_path, monkeypatch):
        class FlippedOcean(SyntheticEvaluator):
            """Answers time before power for synth-ocean, the second group of two."""

            def evaluate(self, config, benchmark):
                metrics = super().evaluate(config, benchmark)
                return dict(reversed(metrics.items())) if benchmark == "synth-ocean" else metrics

        monkeypatch.setattr(cli, "make_evaluator", lambda spec, space, timeout, jobs: FlippedOcean())
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            result = invoke(
                runner, "run", "--space", synthetic_space(tmp_path), "--weights", "power=0.3,time=0.7",
                "--evaluator", "synthetic", "-T", 8, "--out", out, "--jobs", jobs,
            )
            assert result.exit_code == 0, result.output
            outputs.append((result.stdout, tree(out)))
        assert outputs[0] == outputs[1]
        for name, header in ((EVALS_FILE, ",power,time,norm_power,norm_time,"), (PARETO_FILE, "benchmark,power,time,")):
            assert header in (tmp_path / "jobs2" / name).read_text(encoding="utf-8").splitlines()[0]

    def test_failure_of_the_last_benchmark_does_not_depend_on_jobs(self, runner, tmp_path, monkeypatch):
        class NoOcean(SyntheticEvaluator):
            def evaluate(self, config, benchmark):
                if benchmark == "synth-ocean":
                    raise errors.EvaluationError("no model of synth-ocean")
                return super().evaluate(config, benchmark)

        monkeypatch.setattr(cli, "make_evaluator", lambda spec, space, timeout, jobs: NoOcean())
        common = ["--space", synthetic_space(tmp_path), "--profile", "lowpower", "--evaluator", "synthetic"]
        outputs = []
        for jobs in (1, 3):
            out = tmp_path / f"jobs{jobs}"
            printed = []
            for args in (
                ["run", *common, "-T", 8, "--out", out / "run"],
                ["sweep", *common, "--thresholds", "1,8", "--out", out / "sweep"],
            ):
                result = invoke(runner, *args, "--jobs", jobs)
                assert result.exit_code == 2
                printed.append((result.stdout, result.stderr))
            outputs.append((printed, tree(out)))
        assert "synth-ocean: FAILED: no model of synth-ocean" in outputs[0][0][0][0]
        assert "error: evaluation failed for: synth-ocean (T=1), synth-ocean (T=8)" in outputs[0][0][1][1]
        assert outputs[0] == outputs[1]

    def test_internal_error_in_a_later_group_stops_where_a_serial_search_stops(
        self, runner, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cli, "run_search", failing_search({("synth-ocean", 8)}))
        outcomes = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            result = invoke(
                runner, "sweep", "--space", synthetic_space(tmp_path), "--profile", "lowpower",
                "--evaluator", "synthetic", "--thresholds", "1,8,32", "--out", out, "--jobs", jobs,
            )
            assert [path.name for path in out.iterdir()] == ["run01-T1"]
            outcomes.append((result.exit_code, result.stdout, result.stderr, tree(out)))
        assert outcomes[0][:3] == (1, "", "error: no search of synth-ocean at T=8\n")
        assert outcomes[0] == outcomes[1]

    def test_internal_errors_in_two_searches_raise_the_serial_first(self, runner, tmp_path, monkeypatch):
        # synth-blk at T=32 is searched first at --jobs 2, and fails first
        monkeypatch.setattr(cli, "run_search", failing_search({("synth-blk", 32), ("synth-ocean", 8)}))
        outcomes = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            result = invoke(
                runner, "sweep", "--space", synthetic_space(tmp_path), "--profile", "lowpower",
                "--evaluator", "synthetic", "--thresholds", "1,8,32", "--out", out, "--jobs", jobs,
            )
            assert [path.name for path in out.iterdir()] == ["run01-T1"]
            outcomes.append((result.exit_code, result.stdout, result.stderr, tree(out)))
        assert outcomes[0][:3] == (1, "", "error: no search of synth-ocean at T=8\n")
        assert outcomes[0] == outcomes[1]

    def test_sweep_split_over_two_children_writes_the_serial_bytes(self, runner, tmp_path, monkeypatch):
        dispatched = []
        forked = oracle_compare._forked

        def recorded(fn, items, jobs):
            dispatched.append(list(items))
            return forked(fn, items, jobs)

        monkeypatch.setattr(oracle_compare, "_forked", recorded)
        monkeypatch.setattr(oracle_compare, "cpus_available", lambda: 2)
        common = ["--space", synthetic_space(tmp_path), "--weights", "power=0.6,time=0.4", "--evaluator", "synthetic"]
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            result = invoke(runner, "sweep", *common, "--thresholds", "8,32,1", "--out", out, "--jobs", jobs)
            assert result.exit_code == 0, result.output
            outputs.append((result.stdout, result.stderr, tree(out)))
        assert len(outputs[0][2]) == 1 + 3 * 5
        assert outputs[0] == outputs[1]
        # one search per (threshold, benchmark), the largest threshold first
        assert dispatched == [[(k, name) for k in (1, 0, 2) for name in SYNTH_BENCHMARKS]]


    def test_sweep_with_a_submit_backend_is_never_forked(self, runner, tmp_path, monkeypatch):
        class Pooled(SyntheticEvaluator):
            """The synthetic model behind the ``submit`` hint of an exec: pool."""

            def submit(self, config, benchmark):
                return False

        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(cli, "make_evaluator", lambda spec, space, timeout, jobs: Pooled())
        common = ["--space", synthetic_space(tmp_path), "--weights", "power=0.6,time=0.4", "--evaluator", "synthetic"]
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            result = invoke(runner, "sweep", *common, "--thresholds", "8,32,1", "--out", out, "--jobs", jobs)
            assert result.exit_code == 0, result.output
            outputs.append((result.stdout, result.stderr, tree(out)))
        assert forks == []
        assert len(outputs[0][2]) == 1 + 3 * 5
        assert outputs[0] == outputs[1]

    def test_serial_sweep_writes_each_directory_and_stops_at_a_failed_search(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "out"
        searched = []
        failing = failing_search({("synth-fluid", 8)})

        def recorded(space, evaluator, weights, threshold, benchmarks=None):
            written = sorted(path.name for path in out.iterdir()) if out.exists() else []
            searched.append((threshold, *benchmarks, written))
            return failing(space, evaluator, weights, threshold, benchmarks)

        monkeypatch.setattr(cli, "run_search", recorded)
        result = invoke(
            runner, "sweep", "--space", synthetic_space(tmp_path), "--profile", "lowpower",
            "--evaluator", "synthetic", "--thresholds", "1,8,32", "--out", out, "--jobs", 1,
        )
        assert (result.exit_code, result.stderr) == (1, "error: no search of synth-fluid at T=8\n")
        assert searched == [
            (1, "synth-blk", []), (1, "synth-fluid", []), (1, "synth-ocean", []),
            (8, "synth-blk", ["run01-T1"]), (8, "synth-fluid", ["run01-T1"]),
        ]


def failing_search(failures):
    """``run_search``, raising an internal error for the first benchmark it
    searches whose (benchmark, threshold) pair is in ``failures``."""

    def search(space, evaluator, weights, threshold, benchmarks=None):
        for name in benchmarks or space.benchmarks:
            if (name, threshold) in failures:
                raise errors.DseError(f"no search of {name} at T={threshold}")
        return run_search(space, evaluator, weights, threshold, benchmarks)

    return search


def child_pids(pid):
    """The pids of the living or unreaped children of ``pid``, from /proc."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while it was listed
            continue
        if int(fields[1]) == pid:
            children.append(int(stat.parent.name))
    return children


def worker_pids(pid):
    """The pids of the children of ``pid`` that run the reference worker."""
    workers = []
    for child in child_pids(pid):
        try:
            if b"dsekit.mock_worker" in Path(f"/proc/{child}/cmdline").read_bytes():
                workers.append(child)
        except OSError:  # the process ended while it was read
            continue
    return workers


#: The CLI, with two CPUs to fork on whatever the host has.
FORKING_CLI = "from dsekit import cli, oracle_compare; oracle_compare.cpus_available = lambda: 2; cli.main()"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="lists processes through /proc")
class TestForkedChildren:
    """No child outlives the command that started it: neither a forked one
    nor an ``exec:`` worker. SIGTERM unwinds a command as SIGINT does, then
    ends it by SIGTERM."""

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
    @pytest.mark.parametrize("command", ["oracle", "sweep", "run-exec", "oracle-exec"])
    def test_signal_to_the_command_leaves_no_child(self, runner, tmp_path, tiny_space_file, command, signum):
        space = ["--space", "parsec-large", "--profile", "lowpower", "--evaluator", "synthetic:synth-fluid"]
        # two workers that never answer benchmark t, so the command waits on them
        worker = f"exec:{sys.executable} -m dsekit.mock_worker"
        hanging = [worker + " --hang-on t", "--jobs", 2, "--timeout", 600]
        tiny = ["--space", tiny_space_file, "-T", 3, "--weights", "power=0.1,time=0.9"]
        if command == "oracle":
            run_dir = tmp_path / "run"
            assert invoke(runner, "run", *space, "-T", 1, "--out", run_dir, "--jobs", 1).exit_code == 0
            args = ["oracle", run_dir, "--jobs", 3]
        elif command == "sweep":
            # every threshold covers the whole space, so each search is long
            args = ["sweep", *space, "--thresholds", "86400,86401", "--out", tmp_path / "sweep", "--jobs", 2]
        elif command == "run-exec":
            args = ["run", *tiny, "--out", tmp_path / "run", "--evaluator", *hanging]
        else:
            run_dir = tmp_path / "run"
            assert invoke(runner, "run", *tiny, "--out", run_dir, "--evaluator", worker, "--jobs", 1).exit_code == 0
            manifest = run_dir / MANIFEST_FILE
            document = json.loads(manifest.read_text(encoding="utf-8"))
            manifest.write_text(json.dumps({**document, "evaluator": hanging[0]}), encoding="utf-8")
            args = ["oracle", run_dir, *hanging[1:]]
        proc = subprocess.Popen(
            [sys.executable, "-c", FORKING_CLI, *map(str, args)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 30
            exec_backend = command.endswith("-exec")
            # for an exec: backend, both workers, so no spawn is under way when the signal lands
            while len(worker_pids(proc.pid)) < 2 if exec_backend else not child_pids(proc.pid):
                assert proc.poll() is None, "the command ended before it started a child"
                assert time.monotonic() < deadline, "no child was started"
                time.sleep(0.01)
            if exec_backend:
                time.sleep(0.2)  # the workers run the worker's code; let the command reach its wait
            os.kill(proc.pid, signum)
            code = proc.wait(timeout=10)
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
            assert code == (-signal.SIGTERM if signum == signal.SIGTERM else 1)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
