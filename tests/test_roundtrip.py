"""The CLI round trip on a shipped space: the bytes each command writes do
not depend on ``--jobs`` or on the backend that answers, and a malformed
input ends in one ``error:`` line before anything is written."""

import csv
import json
import shutil
import sys

import pytest
from click.testing import CliRunner

from dsekit import oracle_compare
from dsekit.artifacts import (
    COMPARE_JSON_FILE, COMPARE_TXT_FILE, EVALS_FILE, MANIFEST_FILE, ORACLE_FILE, PARETO_FILE, RESULT_FILE,
    SIGNIFICANCE_FILE, replay_hash,
)
from dsekit.cli import main
from dsekit.design_space import enumerate_configs, load_shipped_space, shipped_space_path
from dsekit.evaluators import SyntheticEvaluator

from .test_cli import tree

RUN_FILES = (EVALS_FILE, RESULT_FILE, SIGNIFICANCE_FILE, PARETO_FILE)
#: The demo search: every benchmark of parsec-small answered by the synth-fluid model.
DEMO = ["--space", "parsec-small", "-T", 150, "--profile", "lowpower"]
WORKER = f"exec:{sys.executable} -m dsekit.mock_worker --model synthetic"


def dsekit(*args, code=0):
    """Run one command in this process; a traceback fails the test."""
    result = CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == code, result.output
    return result


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo") / "demo"
    dsekit("run", *DEMO, "--evaluator", "synthetic:synth-fluid", "--out", out)
    return out


def test_oracle_bytes_and_stdout_do_not_depend_on_jobs(demo, tmp_path, monkeypatch):
    # 2, 3, 4 and 7 index ranges, equal or not, each in a forked child, on any host
    monkeypatch.setattr(oracle_compare, "cpus_available", lambda: 8)
    serial = dsekit("oracle", demo, "--jobs", 1, "--out", tmp_path / "jobs1")
    for jobs in (2, 3, 4, 7, 64):
        out = tmp_path / f"jobs{jobs}"
        assert dsekit("oracle", demo, "--jobs", jobs, "--out", out).stdout == serial.stdout
        assert (out / ORACLE_FILE).read_bytes() == (tmp_path / "jobs1" / ORACLE_FILE).read_bytes()
    dsekit("compare", demo, tmp_path / "jobs1", "--out", tmp_path / "compare")


def test_oracle_json_holds_the_run_identity_and_the_entries_only(demo, tmp_path):
    dsekit("oracle", demo, "--jobs", 1, "--out", tmp_path / "oracle")
    path = tmp_path / "oracle" / ORACLE_FILE
    document = json.loads(path.read_text(encoding="utf-8"))
    assert list(document) == ["space_sha256", "weights", "evaluator", "benchmarks"]
    new = dsekit("compare", demo, tmp_path / "oracle", "--out", tmp_path / "new")
    # an oracle.json that also holds the run's replay hash and the guard, as older ones do, gives the same bytes
    entries = document.pop("benchmarks")
    replay = json.loads((demo / MANIFEST_FILE).read_text(encoding="utf-8"))["replay_hash"]
    older = {**document, "run_replay_hash": replay, "guard": 1_000_000, "benchmarks": entries}
    path.write_text(json.dumps(older, indent=2) + "\n", encoding="utf-8")
    old = dsekit("compare", demo, tmp_path / "oracle", "--out", tmp_path / "old")
    assert old.stdout == new.stdout
    for name in (COMPARE_JSON_FILE, COMPARE_TXT_FILE):
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()


def test_one_oracle_serves_every_run_of_a_sweep(tmp_path):
    # the runs of one sweep share their space, weights and evaluator, and so their oracle
    sweep = tmp_path / "sweep"
    dsekit(
        "sweep", "--space", "parsec-small", "--thresholds", "1,60", "--profile", "lowpower",
        "--evaluator", "synthetic:synth-fluid", "--jobs", 1, "--out", sweep,
    )
    runs = [sweep / "run01-T1", sweep / "run02-T60"]
    for run in runs:
        dsekit("oracle", run, "--jobs", 1)
    assert (runs[0] / "oracle" / ORACLE_FILE).read_bytes() == (runs[1] / "oracle" / ORACLE_FILE).read_bytes()
    compared = [dsekit("compare", runs[1], run / "oracle", "--out", tmp_path / run.name) for run in runs]
    assert compared[0].stdout == compared[1].stdout
    for name in (COMPARE_JSON_FILE, COMPARE_TXT_FILE):
        assert (tmp_path / runs[0].name / name).read_bytes() == (tmp_path / runs[1].name / name).read_bytes()


def test_sweep_bytes_do_not_depend_on_jobs(tmp_path, monkeypatch):
    monkeypatch.setattr(oracle_compare, "cpus_available", lambda: 3)  # one forked child per search, three at once
    outputs = []
    for jobs in (1, 2, 3):
        out = tmp_path / f"jobs{jobs}"
        result = dsekit(
            "sweep", "--space", "parsec-small", "--thresholds", "1,150,400", "--profile", "lowpower",
            "--evaluator", "synthetic:synth-fluid", "--jobs", jobs, "--out", out,
        )
        outputs.append((result.stdout, tree(out)))
    assert len(outputs[0][1]) == 1 + 3 * 5  # sweep.csv, and each run's files but its manifest
    assert outputs[0] == outputs[1] == outputs[2]


def test_exec_pool_oracle_equals_the_in_process_one(tmp_path, capfd):
    # the mock worker picks its model from the benchmark name
    space = json.loads(shipped_space_path("parsec-small").read_text(encoding="utf-8"))
    space["benchmarks"] = ["synth-blk", "synth-fluid", "synth-ocean"]
    (tmp_path / "synth.json").write_text(json.dumps(space), encoding="utf-8")
    common = ["--space", tmp_path / "synth.json", "-T", 150, "--profile", "lowpower"]
    pooled, in_process = tmp_path / "exec", tmp_path / "synth"
    dsekit("run", *common, "--evaluator", WORKER, "--jobs", 2, "--out", pooled)
    dsekit("oracle", pooled, "--jobs", 2)
    dsekit("run", *common, "--evaluator", "synthetic", "--out", in_process)
    dsekit("oracle", in_process, "--jobs", 3)
    found = [json.loads((run / "oracle" / ORACLE_FILE).read_text(encoding="utf-8")) for run in (pooled, in_process)]
    assert found[0]["benchmarks"] == found[1]["benchmarks"]

    # a pool that fails a benchmark stops the oracle at that failure
    shutil.rmtree(pooled / "oracle")
    manifest = json.loads((pooled / MANIFEST_FILE).read_text(encoding="utf-8"))
    manifest["evaluator"] = WORKER + " --error-on synth-fluid"
    manifest["replay_hash"] = replay_hash(manifest)
    (pooled / MANIFEST_FILE).write_text(json.dumps(manifest), encoding="utf-8")
    result = dsekit("oracle", pooled, "--jobs", 2, code=2)
    assert result.stderr == "error: injected failure for synth-fluid\n"
    assert not (pooled / "oracle").exists()
    assert "Traceback" not in capfd.readouterr().err  # nor in a worker's


def test_table_replay_with_time_before_power_writes_the_demos_files(demo, tmp_path):
    # the weights, not the table's columns, order the metrics
    space, model = load_shipped_space("parsec-small"), SyntheticEvaluator("synth-fluid")
    table = tmp_path / "fluid.csv"
    with open(table, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["benchmark", *space.names, "time", "power"])
        for benchmark in space.benchmarks:
            for config in enumerate_configs(space):
                metrics = model.evaluate(config, benchmark)
                writer.writerow([benchmark, *config.values(), metrics["time"], metrics["power"]])
    for jobs in (1, 2):
        out = tmp_path / f"table{jobs}"
        dsekit("run", *DEMO, "--evaluator", f"table:{table}", "--jobs", jobs, "--out", out)
        for name in RUN_FILES:
            assert (out / name).read_bytes() == (demo / name).read_bytes(), (jobs, name)


def test_invalid_weights_exit_1_before_a_worker_starts(tmp_path):
    marker = tmp_path / "spawned"
    worker = tmp_path / "worker.py"
    worker.write_text(f"open({str(marker)!r}, 'w').close()\n", encoding="utf-8")
    result = dsekit(
        "run", "--space", "parsec-small", "-T", 150, "--weights", "power=0.5,time=0.6",
        "--evaluator", f"exec:{sys.executable} {worker}", "--out", tmp_path / "out", code=1,
    )
    assert result.stderr.startswith("error: invalid weights")
    assert not marker.exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "text, error",
    [
        (
            '{"parameters": [{"name": "cores", "settings": "abc"}], "benchmarks": ["b"]}',
            "malformed: parameter 'cores': settings",
        ),
        (
            '{"parameters": [{"name": "cores", "settings": [null, 2]}], "benchmarks": ["b"]}',
            "malformed: parameter 'cores': settings",
        ),
        (
            '{"parameters": [{"name": null, "settings": [1, 2]}], "benchmarks": ["b"]}',
            "malformed: parameter name None",
        ),
        (
            '{"parameters": [{"name": "cores", "settings": [1, 2]}], "benchmarks": "abc"}',
            "malformed: benchmarks must be",
        ),
        ("[" * 100000 + "]" * 100000, "malformed: maximum recursion depth exceeded"),
        ("[1, 2]", "not a JSON object"),
        ('{"parameters": [], "benchmarks": ["\udcff"]}', "malformed: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=[
        "string-settings", "null-setting", "null-name", "string-benchmarks", "nested-too-deep", "top-level-array",
        "non-utf-8",
    ],
)
def test_malformed_space_exits_1(tmp_path, command, text, error):
    path = tmp_path / "space.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))  # a lone surrogate escape is a non-UTF-8 byte
    search = ["--space", path, "-T", 1, "--profile", "lowpower", "--evaluator", "synthetic:synth-fluid"]
    args = [path] if command == "validate" else [*search, "--out", tmp_path / "out"]
    [line] = dsekit(command, *args, code=1).stderr.splitlines()
    assert line.startswith(f"error: {path}: {error}")
    assert not (tmp_path / "out").exists()
