"""Command-line harness: validate, run, oracle, compare, sweep.

Exit codes: 0 success, 1 validation problem, 2 evaluator failure, 3 I/O
problem. Commands raise and ``exit_code`` alone maps the failure to its
code: ``OSError`` → 3, ``EvaluationError`` → 2, any other ``DseError`` or
``ValueError`` → 1. Runs are addressed by their output directory —
``oracle`` and ``compare`` read the manifest and artifacts a previous
``run`` wrote.

``run`` is a ``sweep`` of one threshold: both declare their inputs with
``_search_options`` and hand them to ``_search_command``, which checks
every input before it builds the backend, searches each (threshold,
benchmark) pair in a forked child for an in-process backend, at most
``--jobs`` at once, and writes every run directory in this process from
the parts the searches rendered.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
from contextlib import contextmanager
from itertools import product
from pathlib import Path
from typing import Iterator

import click

from . import __version__, artifacts
from .design_space import (
    DesignSpace,
    cardinality,
    load_space,
    shipped_space_path,
    validate,
    validation_warnings,
)
from .errors import DseError, EvaluationError
from .evaluators import CachedEvaluator, Evaluator, ExternalEvaluator, make_evaluator
from .explorer import RunResult, check_inputs, run as run_search
from .objective import WEIGHT_PROFILES, parse_weights
from .oracle_compare import compare as compare_runs
from .oracle_compare import _forked, enumeration_guard, oracle_search
from .pareto import pareto_front, select_tradeoff

EXIT_VALIDATION = 1
EXIT_EVALUATOR = 2
EXIT_IO = 3


def exit_code(exc: BaseException) -> int | None:
    """The exit code of a failure, or None for one that is a bug."""
    if isinstance(exc, OSError):
        return EXIT_IO
    if isinstance(exc, EvaluationError):
        return EXIT_EVALUATOR
    if isinstance(exc, (DseError, ValueError)):
        return EXIT_VALIDATION
    return None


class _Terminated(BaseException):
    """SIGTERM, raised so a command unwinds as it does on SIGINT."""


def _terminate(signum, frame) -> None:
    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # a second one cannot cut the cleanup short
    raise _Terminated


class _Main(click.Group):
    """The command group; a mapped failure prints ``error: ...`` and exits. A
    SIGTERM, unless handled already or off the main thread, unwinds the
    command as SIGINT does, then ends the process by SIGTERM."""

    def invoke(self, ctx: click.Context):
        owned = threading.current_thread() is threading.main_thread()
        owned = owned and signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
        try:
            if owned:
                signal.signal(signal.SIGTERM, _terminate)
            return super().invoke(ctx)
        except _Terminated:  # unwound; now end as the default action would
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
            signal.raise_signal(signal.SIGTERM)
        except Exception as exc:
            code = exit_code(exc)
            if code is None:
                raise
            click.echo(f"error: {exc}", err=True)
            sys.exit(code)
        finally:
            if owned:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _load_space(spec: str) -> DesignSpace:
    """A space file path or shipped space name, loaded but not validated."""
    path = Path(spec)
    if not path.exists():
        try:
            path = shipped_space_path(spec)
        except FileNotFoundError:
            raise FileNotFoundError(f"space file not found: {spec}") from None
    return load_space(path)


def _resolve_weights(weights_text: str | None, profile: str | None) -> dict[str, float]:
    if (weights_text is None) == (profile is None):
        raise ValueError("give exactly one of --weights or --profile")
    if profile is not None:
        return dict(WEIGHT_PROFILES[profile])
    return parse_weights(weights_text)  # type: ignore[arg-type]


def _resolve_jobs(ctx: click.Context, param: click.Parameter, jobs: int | None) -> int:
    """``--jobs`` as given, else the CPUs this process may use."""
    if jobs is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError("--jobs must be >= 1")
    return jobs


_JOBS_OPTION = click.option(
    "--jobs",
    type=int,
    default=None,
    callback=_resolve_jobs,
    help="Worker processes of an exec: evaluator, or, for an in-process one, the "
    "forked children alive at once, each searching one benchmark at one threshold "
    "(run, sweep) or scoring one slice of the enumeration for all benchmarks "
    "(oracle) [default: the CPUs available]. Results do not depend on it.",
)


def _check_timeout(ctx: click.Context, param: click.Parameter, timeout: float) -> float:
    """``--timeout``, refused unless finite and positive, whatever the backend."""
    if not (math.isfinite(timeout) and timeout > 0):
        raise ValueError("--timeout must be a finite number > 0")
    return timeout


_TIMEOUT_OPTION = click.option(
    "--timeout",
    type=float,
    default=300.0,
    show_default=True,
    callback=_check_timeout,
    help="Per-evaluation timeout for exec evaluators (seconds).",
)


def _search_options(threshold_option, out_help: str):
    """The options of a search command, ``threshold_option`` among them in
    its ``--help`` place; ``out_help`` describes its ``--out``."""
    options = [
        click.option("--space", "space_spec", required=True, help="Space file path or shipped space name."),
        threshold_option,
        click.option("--weights", "weights_text", default=None, help='Metric weights, e.g. "power=0.9,time=0.1".'),
        click.option("--profile", type=click.Choice(sorted(WEIGHT_PROFILES)), default=None, help="Named weight profile."),
        click.option("--evaluator", "evaluator_spec", required=True, help="synthetic[:profile] | sepmono | table:<csv> | exec:<command>."),
        click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path), help=out_help),
        _JOBS_OPTION,
        _TIMEOUT_OPTION,
    ]

    def decorate(command):
        for option in reversed(options):
            command = option(command)
        return command

    return decorate


@contextmanager
def _evaluator(spec: str, space: DesignSpace, timeout: float, jobs: int) -> Iterator[Evaluator]:
    """The command's backend; ``exec:`` workers are closed when the command
    ends, however it ends, SIGINT and SIGTERM included (see ``_Main``)."""
    evaluator = make_evaluator(spec, space, timeout=timeout, jobs=jobs)
    try:
        yield evaluator
    finally:
        if isinstance(evaluator, ExternalEvaluator):
            evaluator.close()


def _rendered(result: RunResult) -> artifacts.RunPart:
    """A search's part of its run directory, with the Pareto front and
    trade-off point of each completed benchmark.

    Also cross-checks that the minimum logged objective, which is the
    answer's, is attained on the front — a weighted sum can never prefer a
    dominated point.
    """
    fronts = {}
    chosen = {}
    for name, bench in result.benchmarks.items():
        if bench.error is not None:
            continue
        front = pareto_front(bench.records)
        fronts[name] = front
        chosen[name] = select_tradeoff(front, bench.normalization, result.weights)
        if min(r.objective for r in front) != bench.objective:
            raise DseError(
                f"pareto front for {name!r} misses the minimum-objective point"
            )
    return artifacts.render_part(result, fronts, chosen)


def _search_command(
    space_spec: str,
    weights_text: str | None,
    profile: str | None,
    evaluator_spec: str,
    jobs: int,
    timeout: float,
    thresholds: list[int],
    outs: list[Path],
) -> tuple[DesignSpace, list[dict[str, dict]]]:
    """Search at each threshold and write its run directory to the matching
    ``outs`` entry; returns the space and each threshold's ``result.json``
    entries.

    Every input is checked, and the space's warnings printed, before the
    backend is built, so a refused command starts no worker, reads no
    table and writes nothing. With a backend without ``submit`` (an
    in-process one), `jobs` > 1 and more than one (threshold, benchmark)
    pair, each pair is searched through its own cache in a forked child, at
    most `jobs` at once, the largest threshold first; each child returns
    its part, or the exception it raised. Otherwise the thresholds are
    searched in turn in this process through one cache, so an ``exec:``
    backend is never asked twice for a configuration, and each directory
    is written as soon as its threshold is searched. Either way the
    directories are written in threshold order, up to the first threshold
    with a failed search, where the exception of its first failed
    benchmark is raised. So the files written and the error raised are
    those of one serial loop over the thresholds.
    """
    space = _load_space(space_spec)
    weights = _resolve_weights(weights_text, profile)
    for threshold in thresholds:
        check_inputs(space, weights, threshold)
    artifacts.check_columns(space, weights)
    for warning in validation_warnings(space):
        click.echo(f"warning: {warning}", err=True)
    with _evaluator(evaluator_spec, space, timeout, jobs) as evaluator:
        pairs = list(product(range(len(thresholds)), space.benchmarks))
        if hasattr(evaluator, "submit") or jobs == 1 or len(pairs) == 1:
            cache = CachedEvaluator(evaluator)
            rows = ([(_rendered(run_search(space, cache, weights, t)), None)] for t in thresholds)
        else:

            def search(pair: tuple[int, str]) -> tuple:
                index, benchmark = pair
                try:
                    result = run_search(space, evaluator, weights, thresholds[index], [benchmark])
                    return _rendered(result), None
                except BaseException as exc:  # an interrupt too: the parent raises it in order
                    return None, exc

            # the largest threshold first, since the work of a search grows with it
            order = sorted(pairs, key=lambda pair: -thresholds[pair[0]])
            outcomes = dict(zip(order, _forked(search, order, jobs)))
            rows = ([outcomes[k, name] for name in space.benchmarks] for k in range(len(thresholds)))
        entries = []
        for threshold, out, row in zip(thresholds, outs, rows):
            for _, error in row:
                if error is not None:
                    raise error
            parts = [part for part, _ in row]
            manifest = artifacts.build_manifest(
                space,
                space_file=space_spec,
                threshold=threshold,
                weights=weights,
                evaluator_spec=evaluator_spec,
                jobs=jobs,
                out_dir=str(out),
            )
            entries.append(artifacts.write_run_dir(out, manifest, space, parts))
    return space, entries


def _failed(entries: dict[str, dict]) -> list[str]:
    return [name for name, entry in entries.items() if entry["error"] is not None]


def _echo_run_summary(entries: dict[str, dict]) -> None:
    for name, entry in entries.items():
        if entry["error"] is not None:
            click.echo(f"{name}: FAILED: {entry['error']}")
            continue
        if entry["partition"] is not None:
            for warning in entry["partition"]["warnings"]:
                click.echo(f"warning: {name}: {warning}", err=True)
        config = " ".join(f"{k}={v}" for k, v in (entry["best_config"] or {}).items())
        click.echo(
            f"{name}: F={entry['objective']:.6g} [{config}] "
            f"({entry['unique_evaluations']} unique evaluations)"
        )


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="dsekit")
def main() -> None:
    """Design-space exploration for discrete black-box parameter tuning."""


@main.command(name="validate")
@click.argument("space_file")
def validate_cmd(space_file: str) -> None:
    """Check a space definition file; exit 0 only if it is valid."""
    space = _load_space(space_file)
    violations = validate(space)
    if not violations:  # then the fixed columns of a run directory, weights aside
        try:
            artifacts.check_columns(space, {})
        except ValueError as exc:
            violations = [str(exc)]
    for violation in violations:
        click.echo(f"violation: {violation}")
    for warning in validation_warnings(space):
        click.echo(f"warning: {warning}", err=True)
    if violations:
        sys.exit(EXIT_VALIDATION)
    click.echo(
        f"ok: {len(space.parameters)} parameters, {len(space.benchmarks)} benchmarks, "
        f"{cardinality(space)} configurations"
    )


@main.command(name="run")
@_search_options(
    click.option("--threshold", "-T", type=int, required=True, help="Exhaustive search threshold."),
    "Output directory for run artifacts.",
)
def run_cmd(threshold: int, out_dir: Path, **options) -> None:
    """Run the four-phase search and write run artifacts."""
    _, [entries] = _search_command(thresholds=[threshold], outs=[out_dir], **options)
    _echo_run_summary(entries)
    failed = _failed(entries)
    if failed:
        raise EvaluationError(f"evaluation failed for: {', '.join(failed)}")


@main.command(name="oracle")
@click.argument("run_dir", type=click.Path(path_type=Path))
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=None, help="Output directory (default: RUN_DIR/oracle).")
@_JOBS_OPTION
@_TIMEOUT_OPTION
def oracle_cmd(run_dir: Path, out_dir: Path | None, jobs: int, timeout: float) -> None:
    """Exhaustively search the space a run used, in one pass for all its benchmarks."""
    manifest, run_result = artifacts.load_run(run_dir)
    guard = enumeration_guard()
    space = run_result.space
    contexts = {}
    for benchmark, bench in run_result.benchmarks.items():
        if bench.normalization is None:
            click.echo(f"warning: skipping {benchmark}: run has no normalization data", err=True)
        else:
            contexts[benchmark] = bench.normalization
    with _evaluator(manifest["evaluator"], space, timeout, jobs) as evaluator:
        results = oracle_search(space, contexts, evaluator, run_result.weights, jobs)
    for benchmark, best in results.items():
        config = " ".join(f"{k}={v}" for k, v in best.best_config.items())
        click.echo(f"{benchmark}: F={best.objective:.6g} [{config}]")
    out = out_dir if out_dir is not None else run_dir / "oracle"
    artifacts.write_oracle(out, artifacts.oracle_payload(manifest, guard, results))


@main.command(name="compare")
@click.argument("run_dir", type=click.Path(path_type=Path))
@click.argument("oracle_dir", type=click.Path(path_type=Path))
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=None, help="Output directory (default: RUN_DIR).")
def compare_cmd(run_dir: Path, oracle_dir: Path, out_dir: Path | None) -> None:
    """Report gaps, coverage, and speedup of a run against its oracle."""
    manifest, run_result = artifacts.load_run(run_dir)
    oracle_results = artifacts.load_oracle(oracle_dir, manifest, run_result)
    report = compare_runs(run_result, oracle_results)
    out = out_dir if out_dir is not None else run_dir
    click.echo(artifacts.write_compare(out, report, run_result.space), nl=False)


@main.command(name="sweep")
@_search_options(
    click.option("--thresholds", "thresholds_text", required=True, help="Comma-separated list, e.g. 400,1200."),
    "Output directory.",
)
def sweep_cmd(thresholds_text: str, out_dir: Path, **options) -> None:
    """Run once per threshold and summarize."""
    try:
        thresholds = [int(t) for t in thresholds_text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"bad threshold list: {thresholds_text!r}") from None
    if len(thresholds) < 2:
        raise ValueError("sweep needs at least two thresholds (use run for one)")
    outs = [out_dir / f"run{index:02d}-T{t}" for index, t in enumerate(thresholds, start=1)]
    space, runs = _search_command(thresholds=thresholds, outs=outs, **options)
    size = cardinality(space)
    rows = []
    failed: list[str] = []
    for threshold, entries in zip(thresholds, runs):
        for name, entry in entries.items():
            rows.append(
                {
                    "benchmark": name,
                    "threshold": threshold,
                    "objective": "" if entry["objective"] is None else entry["objective"],
                    "unique_evaluations": entry["unique_evaluations"],
                    "explored_pct": 100.0 * entry["unique_evaluations"] / size,
                }
            )
        failed += [f"{name} (T={threshold})" for name in _failed(entries)]

    artifacts.write_sweep_csv(out_dir / artifacts.SWEEP_FILE, rows)
    for row in rows:
        click.echo(
            f"T={row['threshold']} {row['benchmark']}: F={row['objective']} "
            f"({row['unique_evaluations']} unique, {row['explored_pct']:.4f}% explored)"
        )
    if failed:
        raise EvaluationError(f"evaluation failed for: {', '.join(failed)}")


if __name__ == "__main__":
    main()
