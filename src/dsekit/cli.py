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
benchmark) pair through ``oracle_compare._fanned`` (in a forked child for
an in-process backend, at most ``--jobs`` and the CPUs available at once,
else in turn), and writes every run directory in this process from the
parts the searches rendered.

Only click, the standard library, ``errors`` and ``objective`` (its
``WEIGHT_PROFILES`` are the ``--profile`` choices) load with this module.
Every other name the commands use stays a module attribute (``_NAMES``),
bound on first access; a command binds those not bound yet just before its
callback runs, keeping a patched one, as ``perfbench/tracing.py`` needs.
"""

from __future__ import annotations

import math
import signal
import sys
import threading
from contextlib import contextmanager
from itertools import product
from pathlib import Path
from typing import Iterator

import click

from . import __version__, _bind_on_first_use
from .errors import DseError, EvaluationError
from .objective import WEIGHT_PROFILES, parse_weights

#: The names the commands use from the other modules: (home module, its name
#: there, None for the module itself).
_NAMES = {
    "artifacts": ("artifacts", None),
    "DesignSpace": ("design_space", "DesignSpace"),
    "cardinality": ("design_space", "cardinality"),
    "load_space": ("design_space", "load_space"),
    "shipped_space_path": ("design_space", "shipped_space_path"),
    "validate": ("design_space", "validate"),
    "validation_warnings": ("design_space", "validation_warnings"),
    "CachedEvaluator": ("evaluators", "CachedEvaluator"),
    "Evaluator": ("evaluators", "Evaluator"),
    "ExternalEvaluator": ("evaluators", "ExternalEvaluator"),
    "make_evaluator": ("evaluators", "make_evaluator"),
    "RunResult": ("explorer", "RunResult"),
    "check_inputs": ("explorer", "check_inputs"),
    "run_search": ("explorer", "run"),
    "check_oracle_inputs": ("oracle_compare", "check_oracle_inputs"),
    "compare_runs": ("oracle_compare", "compare"),
    "_fanned": ("oracle_compare", "_fanned"),
    "oracle_search": ("oracle_compare", "oracle_search"),
    "pareto_front": ("pareto", "pareto_front"),
    "select_tradeoff": ("pareto", "select_tradeoff"),
}
__getattr__ = _bind_on_first_use(globals(), _NAMES)

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


class _Command(click.Command):
    """A command that binds every name of ``_NAMES`` not bound yet, then runs."""

    def invoke(self, ctx: click.Context):
        for name in _NAMES.keys() - globals().keys():
            __getattr__(name)
        return super().invoke(ctx)


class _Main(click.Group):
    """The command group; a mapped failure prints ``error: ...`` and exits. A
    SIGTERM, unless handled already or off the main thread, unwinds the
    command as SIGINT does, then ends the process by SIGTERM."""

    command_class = _Command

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
        from .oracle_compare import cpus_available  # the module every --jobs command runs

        return cpus_available()
    if jobs < 1:
        raise ValueError("--jobs must be >= 1")
    return jobs


_JOBS_OPTION = click.option(
    "--jobs",
    type=int,
    default=None,
    callback=_resolve_jobs,
    help="Worker processes of an exec: evaluator, or, for an in-process one, the "
    "forked children alive at once, at most the CPUs available, each searching one "
    "benchmark at one threshold (run, sweep) or scoring one index range of the "
    "enumeration for all benchmarks (oracle) [default: the CPUs available]. "
    "Results do not depend on it.",
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
    table and writes nothing. Each (threshold, benchmark) pair is searched
    through one cache, which returns its part or the exception it raised,
    by ``_fanned``: in forked children, at most `jobs` and the CPUs
    available at once, the largest threshold first, each with an empty copy
    of the cache; or in turn in this process, sharing the cache, so an
    ``exec:`` backend is never asked twice for a configuration, and only as
    the directories are written.
    The directories are written in threshold order, each from its
    benchmarks' outcomes in order, up to the first failed search, whose
    exception is raised. So the files written and the error raised are
    those of one serial loop over the thresholds, which makes no search
    after a failed one.
    """
    space = _load_space(space_spec)
    weights = _resolve_weights(weights_text, profile)
    for threshold in thresholds:
        check_inputs(space, weights, threshold)
    artifacts.check_columns(space, weights)
    for warning in validation_warnings(space):
        click.echo(f"warning: {warning}", err=True)
    with _evaluator(evaluator_spec, space, timeout, jobs) as evaluator:
        cache = CachedEvaluator(evaluator)

        def search(pair: tuple[int, str]) -> tuple:
            index, benchmark = pair
            try:
                return _rendered(run_search(space, cache, weights, thresholds[index], [benchmark])), None
            except Exception as exc:
                return None, exc

        pairs = list(product(range(len(thresholds)), space.benchmarks))
        # the largest threshold first, since the work of a search grows with it
        outcomes = iter(_fanned(search, pairs, jobs, evaluator, first=lambda pair: -thresholds[pair[0]]))
        entries = []
        for threshold, out in zip(thresholds, outs):
            parts = []
            for _ in space.benchmarks:
                part, error = next(outcomes)
                if error is not None:
                    raise error
                parts.append(part)
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
    """Exhaustively search the space a run used, in one pass for all the benchmarks that succeeded in it."""
    manifest, run_result = artifacts.load_run(run_dir)
    space = run_result.space
    contexts = {}
    for benchmark, bench in run_result.benchmarks.items():
        if bench.error is None:
            contexts[benchmark] = bench.normalization
        else:
            click.echo(f"warning: skipping {benchmark}: it failed in the run", err=True)
    check_oracle_inputs(space, contexts, run_result.weights)  # before the backend is built
    with _evaluator(manifest["evaluator"], space, timeout, jobs) as evaluator:
        results = oracle_search(space, contexts, evaluator, run_result.weights, jobs)
    for benchmark, best in results.items():
        config = " ".join(f"{k}={v}" for k, v in best.best_config.items())
        click.echo(f"{benchmark}: F={best.objective:.6g} [{config}]")
    out = out_dir if out_dir is not None else run_dir / "oracle"
    artifacts.write_oracle(out, manifest, results)


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
