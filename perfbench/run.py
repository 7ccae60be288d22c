#!/usr/bin/env python3
"""The dsekit benchmark: three workloads through the ``dsekit`` CLI.

    python3 perfbench/run.py --workload sweep-inproc --seed 1 --seconds 30 --trace 0

Run from anywhere; it works on the checkout that holds this file, importing
dsekit from its ``src/`` and writing only under ``.perfbench-work/``.

With ``--trace 0`` every timed command is a fresh ``dsekit`` process (the
console-script entry point, default ``--jobs``), repeated in passes until
``--seconds`` have gone by; the end-to-end metrics are medians over passes.
With ``--trace 1`` the same commands call the same entry point in-process,
alternately untraced and traced, and the per-layer metrics come from the
traced passes. Every pass checks the program's outputs. The human-readable
report goes to stdout; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every check passed. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from inputs import BENCHMARKS, DEFAULT_SEEDS, Input, make_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BRUTEFORCE = ROOT / "tests" / "bruteforce.py"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("sweep-inproc", "oracle-compare", "run-exec")
#: Inputs per run; oracle work does not depend on the input, so one will do.
INPUTS = {"sweep-inproc": 3, "oracle-compare": 1, "run-exec": 6}
SWEEP_THRESHOLDS = "1,150,1000,5000,20000"
RUN_THRESHOLD = "1000"
SETUP_REPEATS = 5
MIN_PASSES = 2
#: No new pass starts once this much of the 180 s allowed for a run is gone.
PASS_DEADLINE_S = 120.0
#: A command still running this long after the start is killed.
KILL_AFTER_S = 170.0
LAUNCH = "import sys; from dsekit.cli import main; sys.argv[0] = 'dsekit'; main()"

_T0 = time.perf_counter()


class Checks:
    """Benchmark searches and output checks, each attempted once."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


@dataclass
class Outcome:
    """One CLI command: exit code, wall time, peak RSS (0 in-process), stdout."""

    code: int
    wall_s: float
    rss_kb: int
    stdout: str


def run_subprocess(args: list[str], log: Path) -> Outcome:
    """Run one ``dsekit`` command in a fresh process; time it and its RSS."""
    with open(log, "w+", encoding="utf-8") as out, open(log.with_suffix(".err"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCH, *args],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            cwd=ROOT,
            start_new_session=True,
        )
        timeout = max(1.0, KILL_AFTER_S - (time.perf_counter() - _T0))
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # an exec worker the command left behind
        out.seek(0)
        return Outcome(proc.returncode, wall, usage.ru_maxrss, out.read())


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_inprocess(args: list[str], log: Path) -> Outcome:
    """Call the CLI entry point in this process, as the traced run does."""
    from dsekit import cli

    out = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="dsekit", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - t0
    log.write_text(out.getvalue(), encoding="utf-8")
    return Outcome(code, wall, 0, out.getvalue())


# ---------------------------------------------------------------------------
# Reading and checking run artifacts


def file_hash(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass
class RunStats:
    """What the artifacts of one run directory say."""

    unique: int = 0
    phases: dict[str, int] = field(default_factory=dict)
    worse_than_logged: int = 0


def check_run_dir(run_dir: Path, reported: dict[str, int], checks: Checks) -> RunStats:
    """Check one run directory against what its command printed.

    ``reported`` maps each benchmark to the unique evaluations the CLI
    printed for it.
    """
    stats = RunStats()
    result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    with open(run_dir / "evals.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    params = json.loads((run_dir / "space.json").read_text(encoding="utf-8"))["parameters"]
    names = [p["name"] for p in params]
    for row in rows:
        stats.phases[row["phase"]] = stats.phases.get(row["phase"], 0) + 1
    for bench, entry in result["benchmarks"].items():
        where = f"{run_dir.relative_to(WORK)} {bench}"
        if not checks.expect(entry["error"] is None, f"{where}: search failed: {entry['error']}"):
            continue
        logged = [r for r in rows if r["benchmark"] == bench]
        stats.unique += entry["unique_evaluations"]
        checks.expect(
            reported.get(bench) == entry["unique_evaluations"] == len(logged),
            f"{where}: unique evaluations printed {reported.get(bench)}, "
            f"result.json {entry['unique_evaluations']}, evals.csv rows {len(logged)}",
        )
        best = [str(entry["best_config"][n]) for n in names]
        best_rows = [r for r in logged if [r[n] for n in names] == best]
        checks.expect(
            len(best_rows) == 1 and float(best_rows[0]["objective"]) == entry["objective"],
            f"{where}: returned F {entry['objective']} is not the logged F of its best config",
        )
        if entry["objective"] > min(float(r["objective"]) for r in logged):
            stats.worse_than_logged += 1
    return stats


RUN_LINE = re.compile(r"^(\S+): F=\S+ \[.*\] \((\d+) unique evaluations\)$", re.M)
SWEEP_LINE = re.compile(r"^T=(\d+) (\S+): F=\S* \((\d+) unique,", re.M)


@dataclass
class PassResult:
    """One pass: its timing, what its outputs hash to and what they say."""

    out_dir: Path
    wall_s: float = 0.0
    rss_kb: int = 0
    unique_evals: int = 0
    hashes: dict[str, str] = field(default_factory=dict)
    run_stats: list[RunStats] = field(default_factory=list)
    gaps_pct: list[float] = field(default_factory=list)


@dataclass
class Context:
    workload: str
    seed: int
    inputs: list[Input]
    checks: Checks
    #: oracle-compare: the set-up run of each input, and what it says.
    input_runs: list[Path] = field(default_factory=list)
    input_stats: list[RunStats] = field(default_factory=list)


def commands(ctx: Context, k: int, out: Path) -> list[list[str]]:
    inp = ctx.inputs[k]
    space = str(inp.space_path)
    if ctx.workload == "sweep-inproc":
        return [
            ["sweep", "--space", space, "--thresholds", SWEEP_THRESHOLDS,
             "--weights", inp.weights, "--evaluator", "synthetic", "--out", str(out)]
        ]
    if ctx.workload == "oracle-compare":
        run_dir = str(ctx.input_runs[k])
        return [
            ["oracle", run_dir, "--out", str(out / "oracle")],
            ["compare", run_dir, str(out / "oracle"), "--out", str(out / "compare")],
        ]
    worker = shlex.join(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--pid-dir", str(out / "pids")]
    )
    return [
        ["run", "--space", space, "-T", RUN_THRESHOLD, "--weights", inp.weights,
         "--evaluator", f"exec:{worker}", "--out", str(out)]
    ]


def verify(ctx: Context, k: int, out: Path, stdouts: list[str], result: PassResult) -> None:
    """Check the outputs of input ``k`` in one pass and collect its numbers."""
    checks = ctx.checks
    if ctx.workload == "sweep-inproc":
        reported: dict[str, dict[str, int]] = {}
        for t, bench, n in SWEEP_LINE.findall(stdouts[0]):
            reported.setdefault(t, {})[bench] = int(n)
        for index, t in enumerate(SWEEP_THRESHOLDS.split(","), start=1):
            run_dir = out / f"run{index:02d}-T{t}"
            stats = check_run_dir(run_dir, reported.get(t, {}), checks)
            result.run_stats.append(stats)
            result.unique_evals += stats.unique
            result.hashes[f"{k}/{run_dir.name}"] = file_hash(
                run_dir / "evals.csv", run_dir / "result.json"
            )
    elif ctx.workload == "run-exec":
        reported = {bench: int(n) for bench, n in RUN_LINE.findall(stdouts[0])}
        stats = check_run_dir(out, reported, checks)
        result.run_stats.append(stats)
        result.unique_evals += stats.unique
        result.hashes[str(k)] = file_hash(out / "evals.csv", out / "result.json")
    else:
        oracle = json.loads((out / "oracle" / "oracle.json").read_text(encoding="utf-8"))
        report = json.loads((out / "compare" / "compare.json").read_text(encoding="utf-8"))
        run_dir = ctx.input_runs[k]
        with open(run_dir / "evals.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for bench in BENCHMARKS:
            entry = oracle["benchmarks"].get(bench)
            if not checks.expect(entry is not None, f"oracle {k}: no result for {bench}"):
                continue
            result.unique_evals += entry["evaluations"]
            checks.expect(
                entry["evaluations"] == 86_400,
                f"oracle {k} {bench}: enumerated {entry['evaluations']} of 86400",
            )
            logged = min(float(r["objective"]) for r in rows if r["benchmark"] == bench)
            checks.expect(
                entry["objective"] <= logged,
                f"oracle {k} {bench}: oracle F {entry['objective']} > logged F {logged}",
            )
            result.gaps_pct.append(report["benchmarks"][bench]["objective_gap_pct"])
        result.run_stats.append(ctx.input_stats[k])
        result.hashes[str(k)] = file_hash(
            out / "oracle" / "oracle.json", out / "compare" / "compare.json"
        )


def run_pass(ctx: Context, out_root: Path, runner) -> PassResult | None:
    """The workload's timed commands over every input; None if one failed."""
    shutil.rmtree(out_root, ignore_errors=True)
    result = PassResult(out_root)
    for k in range(len(ctx.inputs)):
        out = out_root / f"in{k}"
        (out / "pids").mkdir(parents=True)
        stdouts = []
        for i, args in enumerate(commands(ctx, k, out)):
            outcome = runner(args, out / f"cmd{i}.log")
            result.wall_s += outcome.wall_s
            result.rss_kb = max(result.rss_kb, outcome.rss_kb)
            stdouts.append(outcome.stdout)
            if not ctx.checks.expect(
                outcome.code == 0, f"dsekit {args[0]} (input {k}) exited {outcome.code}"
            ):
                return None
        verify(ctx, k, out, stdouts, result)
    return result


# ---------------------------------------------------------------------------
# Set-up


def setup(ctx_workload: str, seed: int, checks: Checks) -> tuple[float, Context]:
    """Cold ``dsekit --version``, the input files and, for oracle-compare,
    the input runs. Returns the set-up wall time and the run context."""
    base = WORK / ctx_workload / "inputs"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    t0 = time.perf_counter()
    outcome = run_subprocess(["--version"], base / "version.log")
    checks.expect(
        outcome.code == 0 and outcome.stdout.startswith("dsekit"),
        f"dsekit --version exited {outcome.code}",
    )
    inputs = make_inputs(seed, INPUTS[ctx_workload], base)
    ctx = Context(ctx_workload, seed, inputs, checks)
    printed = []
    if ctx_workload == "oracle-compare":
        for k, inp in enumerate(inputs):
            run_dir = base / f"run{k}"
            args = ["run", "--space", str(inp.space_path), "-T", RUN_THRESHOLD,
                    "--weights", inp.weights, "--evaluator", "synthetic", "--out", str(run_dir)]
            outcome = run_subprocess(args, base / f"run{k}.log")
            checks.expect(outcome.code == 0, f"set-up run {k} exited {outcome.code}")
            ctx.input_runs.append(run_dir)
            printed.append({b: int(n) for b, n in RUN_LINE.findall(outcome.stdout)})
    elapsed = time.perf_counter() - t0
    for run_dir, reported in zip(ctx.input_runs, printed):
        ctx.input_stats.append(check_run_dir(run_dir, reported, checks))
    return elapsed, ctx


def bruteforce_check(ctx: Context, oracle_dir: Path) -> None:
    """Once per seed, outside the timed region: the oracle optimum of one
    benchmark against the package-free reference in ``tests/bruteforce.py``."""
    spec = importlib.util.spec_from_file_location("bruteforce", BRUTEFORCE)
    bruteforce = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bruteforce)

    inp = ctx.inputs[0]
    bench = BENCHMARKS[ctx.seed % len(BENCHMARKS)]
    doc = json.loads(inp.space_path.read_text(encoding="utf-8"))
    names = [p["name"] for p in doc["parameters"]]
    settings = [p["settings"] for p in doc["parameters"]]
    weights = {k: float(v) for k, v in (kv.split("=") for kv in inp.weights.split(","))}

    def evaluate(config: tuple) -> dict[str, float]:
        return bruteforce.synthetic_metrics(dict(zip(names, config)), bench)

    maxima = bruteforce.oneshot_maxima(settings, evaluate)
    config, value = bruteforce.argmin_config(settings, evaluate, weights, maxima)
    oracle = json.loads((oracle_dir / "oracle.json").read_text(encoding="utf-8"))
    found = oracle["benchmarks"][bench]
    # The synthetic model has exact ties (width 4 with rob 32 and BPredX has
    # the ILP of width 2 with rob 64 and BPredX2), which the two
    # implementations may round apart, so the oracle's configuration must
    # reach the reference minimum, not be the reference's own choice.
    found_value = bruteforce.weighted_objective(
        evaluate(tuple(found["best_config"][n] for n in names)), weights, maxima
    )
    ctx.checks.expect(
        math.isclose(value, found["objective"], rel_tol=1e-9)
        and math.isclose(value, found_value, rel_tol=1e-9),
        f"oracle optimum for {bench} {found['best_config']} F={found['objective']} "
        f"(reference F {found_value}) differs from brute force "
        f"{dict(zip(names, config))} F={value}",
    )


# ---------------------------------------------------------------------------
# Measuring


def measure(
    workload: str, seed: int, seconds: float, trace: bool
) -> tuple[dict[str, float], Checks, list[str]]:
    """Set up, then run passes for ``seconds``; the metrics, checks and report."""
    checks = Checks()
    shutil.rmtree(WORK / workload, ignore_errors=True)
    setups = []
    setup_hashes = None
    for _ in range(1 if trace else SETUP_REPEATS):
        elapsed, ctx = setup(workload, seed, checks)
        setups.append(elapsed)
        hashes = [file_hash(d / "evals.csv", d / "result.json") for d in ctx.input_runs]
        if setup_hashes is None:
            setup_hashes = hashes
        elif hashes:
            checks.expect(hashes == setup_hashes, f"set-up runs of seed {seed} differ")
    report = [
        f"inputs: {len(ctx.inputs)}: "
        + "; ".join(f"{inp.weights} order={','.join(inp.order)}" for inp in ctx.inputs)
    ]
    if trace:
        from tracing import CLI_SPAN, Tracer, layer_metrics, patched

    passes: list[PassResult] = []
    untraced: list[float] = []
    layers: list[dict[str, float]] = []
    reference: PassResult | None = None

    def accept(result: PassResult) -> None:
        """Compare a pass's outputs with the first pass of this seed."""
        nonlocal reference
        if reference is None:
            reference = result
            if workload == "oracle-compare":
                bruteforce_check(ctx, result.out_dir / "in0" / "oracle")
            return
        for key, digest in reference.hashes.items():
            checks.expect(
                result.hashes.get(key) == digest,
                f"outputs of {key} differ between passes of seed {seed}",
            )
        checks.expect(
            result.unique_evals == reference.unique_evals,
            f"unique evaluations {result.unique_evals} != {reference.unique_evals}",
        )

    loop_start = time.perf_counter()
    iteration_s = 0.0
    # A traced iteration already compares a traced pass with an untraced one.
    min_passes = 1 if trace else MIN_PASSES
    while len(passes) < min_passes or time.perf_counter() - loop_start < seconds:
        if passes and time.perf_counter() - _T0 + iteration_s > PASS_DEADLINE_S:
            break
        started = time.perf_counter()
        out_root = WORK / workload / f"pass{len(passes)}"
        if trace:
            plain = run_pass(ctx, WORK / workload / "untraced", run_inprocess)
            if plain is None:
                break
            accept(plain)
            untraced.append(plain.wall_s)
            tracer = Tracer()
            with patched(tracer):
                result = run_pass(ctx, out_root, tracer.wrap(run_inprocess, CLI_SPAN))
            if result is None:
                break
            spans = tracer.spans()
            served = _artifact_metrics(result)
            layers.append(layer_metrics(spans, served["mock_worker.service_us"]) | served)
            spans.write(WORK / workload / "spans.bin")
        else:
            result = run_pass(ctx, out_root, run_subprocess)
            if result is None:
                break
        accept(result)
        passes.append(result)
        shutil.rmtree(WORK / workload / f"pass{len(passes) - 2}", ignore_errors=True)
        iteration_s = time.perf_counter() - started

    if not passes:
        return {}, checks, report
    report.append(f"passes: {len(passes)} in {time.perf_counter() - loop_start:.1f} s")
    first = passes[0]
    report.append(
        "gap_pct_max: "
        + (f"{max(first.gaps_pct):.6g} %" if first.gaps_pct else "n/a, no oracle on this workload")
    )
    report.append(
        f"answer_worse_than_logged: {sum(s.worse_than_logged for s in first.run_stats)}"
        " benchmark searches"
    )
    walls = [p.wall_s for p in passes]
    if trace:
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(walls) / statistics.median(untraced) - 1.0
        )
        return metrics, checks, report

    samples = {
        "wall_s": walls,
        "evals_per_s": [first.unique_evals / w for w in walls],
        "setup_s": setups,
        "peak_rss_mb": [p.rss_kb / 1024 for p in passes],
    }
    for name, values in samples.items():
        report.append(
            f"{name}: median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"
        )
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["unique_evals"] = first.unique_evals
    return metrics, checks, report


def _artifact_metrics(result: PassResult) -> dict[str, float]:
    """Per-layer numbers read from what a traced pass wrote and read."""
    import worker

    phases: dict[str, int] = {}
    for stats in result.run_stats:
        for phase, n in stats.phases.items():
            phases[phase] = phases.get(phase, 0) + n
    files = [p for p in result.out_dir.rglob("*") if p.is_file()]
    records = [
        worker.RECORD.unpack(p.read_bytes()) if p.stat().st_size else (0, 0.0)
        for p in files
        if p.parent.name == "pids"
    ]
    served = sum(n for n, _ in records)
    artifacts = [p for p in files if p.suffix in (".json", ".csv", ".txt")]
    return {
        "explorer.evals.oneshot": phases.get("oneshot", 0),
        "explorer.evals.exhaustive": phases.get("exhaustive", 0),
        "explorer.evals.greedy": phases.get("greedy", 0),
        "explorer.answer_worse_than_logged": sum(s.worse_than_logged for s in result.run_stats),
        "artifacts.bytes_written": sum(p.stat().st_size for p in artifacts),
        "evaluators.exec.spawns": len(records),
        "mock_worker.service_us": 1e6 * sum(t for _, t in records) / served if served else 0.0,
        "oracle_compare.gap_pct_max": max(result.gaps_pct, default=0.0),
    }


# ---------------------------------------------------------------------------


def machine() -> str:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "dsekit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return (
        f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
        f"dsekit commit={commit} src sha256={digest.hexdigest()[:16]}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (SRC / "dsekit" / "cli.py", BRUTEFORCE) if not p.is_file()]
    if missing:
        print(f"error: not a dsekit checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    print(machine())
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    metrics, checks, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    checks.expect(
        set(metrics) == set(units), f"metrics {sorted(set(metrics) ^ set(units))} not declared"
    )
    for line in report:
        print(line)
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units.get(name, '')}")
    print(
        f"fail_rate: {checks.failed / checks.attempted:.6g} "
        f"({checks.failed} of {checks.attempted} searches and checks)"
    )
    for message in checks.messages:
        print(f"FAILED: {message}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
