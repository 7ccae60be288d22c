"""Command-line harness: validate, run, oracle, compare, sweep.

Exit codes: 0 success, 1 validation problem, 2 evaluator failure, 3 I/O
problem. Runs are addressed by their output directory — ``oracle`` and
``compare`` read the manifest and artifacts a previous ``run`` wrote.
"""

from __future__ import annotations

import sys
from pathlib import Path

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
from .errors import (
    DegenerateMetricError,
    DseError,
    EvaluationError,
    GuardExceededError,
    TableLoadError,
)
from .evaluators import CachedEvaluator, Evaluator, ExternalEvaluator, make_evaluator
from .explorer import RunResult, run as run_search
from .objective import WEIGHT_PROFILES, parse_weights
from .oracle_compare import compare as compare_runs
from .oracle_compare import enumeration_guard, oracle_search
from .pareto import pareto_front, select_tradeoff

EXIT_VALIDATION = 1
EXIT_EVALUATOR = 2
EXIT_IO = 3


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _resolve_space(spec: str) -> Path:
    """A path to a space file, or the name of a shipped space."""
    path = Path(spec)
    if path.exists():
        return path
    try:
        return shipped_space_path(spec)
    except FileNotFoundError:
        _fail(EXIT_IO, f"space file not found: {spec}")
        raise AssertionError  # unreachable


def _load_valid_space(spec: str) -> DesignSpace:
    path = _resolve_space(spec)
    try:
        space = load_space(path)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read space file: {exc}")
        raise
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
        raise
    violations = validate(space)
    if violations:
        _fail(EXIT_VALIDATION, "invalid space: " + "; ".join(violations))
    for warning in validation_warnings(space):
        click.echo(f"warning: {warning}", err=True)
    return space


def _resolve_weights(weights_text: str | None, profile: str | None) -> dict[str, float]:
    if (weights_text is None) == (profile is None):
        _fail(EXIT_VALIDATION, "give exactly one of --weights or --profile")
    if profile is not None:
        return dict(WEIGHT_PROFILES[profile])
    try:
        return parse_weights(weights_text)  # type: ignore[arg-type]
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
        raise AssertionError


def _build_evaluator(spec: str, space: DesignSpace, timeout: float) -> Evaluator:
    try:
        return make_evaluator(spec, space, timeout=timeout)
    except FileNotFoundError as exc:
        _fail(EXIT_IO, str(exc))
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    except TableLoadError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    raise AssertionError


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        _fail(EXIT_VALIDATION, "--jobs must be >= 1")


def _close_evaluator(evaluator: Evaluator) -> None:
    if isinstance(evaluator, ExternalEvaluator):
        evaluator.close()


def _fronts_and_choices(result: RunResult):
    """Pareto front and trade-off point per completed benchmark.

    Also cross-checks that the minimum logged objective is attained on the
    front — a weighted sum can never prefer a dominated point.
    """
    fronts = {}
    chosen = {}
    for name, bench in result.benchmarks.items():
        if bench.error is not None or not bench.records:
            continue
        front = pareto_front(bench.records)
        fronts[name] = front
        chosen[name] = select_tradeoff(front, bench.normalization, result.weights)
        min_all = min(r.objective for r in bench.records if r.objective is not None)
        min_front = min(r.objective for r in front if r.objective is not None)
        if min_front != min_all:
            raise DseError(
                f"pareto front for {name!r} misses the minimum-objective point"
            )
    return fronts, chosen


def _echo_run_summary(result: RunResult) -> None:
    for name, bench in result.benchmarks.items():
        if bench.error is not None:
            click.echo(f"{name}: FAILED: {bench.error}")
            continue
        if bench.partition is not None:
            for warning in bench.partition.warnings:
                click.echo(f"warning: {name}: {warning}", err=True)
        config = " ".join(f"{k}={v}" for k, v in (bench.best_config or {}).items())
        click.echo(
            f"{name}: F={bench.objective:.6g} [{config}] "
            f"({bench.unique_evaluations} unique evaluations)"
        )


def _write_run_artifacts(out: Path, result: RunResult, manifest: dict) -> None:
    try:
        fronts, chosen = _fronts_and_choices(result)
        artifacts.write_run_dir(out, result, manifest, fronts, chosen)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write run artifacts: {exc}")


@click.group()
@click.version_option(__version__, prog_name="dsekit")
def main() -> None:
    """Design-space exploration for discrete black-box parameter tuning."""


@main.command(name="validate")
@click.argument("space_file")
def validate_cmd(space_file: str) -> None:
    """Check a space definition file; exit 0 only if it is valid."""
    path = _resolve_space(space_file)
    try:
        space = load_space(path)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read space file: {exc}")
        raise
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
        raise
    violations = validate(space)
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
@click.option("--space", "space_spec", required=True, help="Space file path or shipped space name.")
@click.option("--threshold", "-T", type=int, required=True, help="Exhaustive search threshold.")
@click.option("--weights", "weights_text", default=None, help='Metric weights, e.g. "power=0.9,time=0.1".')
@click.option("--profile", type=click.Choice(sorted(WEIGHT_PROFILES)), default=None, help="Named weight profile.")
@click.option("--evaluator", "evaluator_spec", required=True, help="synthetic[:profile] | sepmono | table:<csv> | exec:<command>.")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path), help="Output directory for run artifacts.")
@click.option("--jobs", type=int, default=1, show_default=True, help="Accepted and recorded in the manifest; evaluation is serial.")
@click.option("--timeout", type=float, default=300.0, show_default=True, help="Per-evaluation timeout for exec evaluators (seconds).")
def run_cmd(
    space_spec: str,
    threshold: int,
    weights_text: str | None,
    profile: str | None,
    evaluator_spec: str,
    out_dir: Path,
    jobs: int,
    timeout: float,
) -> None:
    """Run the four-phase search and write run artifacts."""
    space = _load_valid_space(space_spec)
    if threshold < 1:
        _fail(EXIT_VALIDATION, "threshold must be >= 1")
    weights = _resolve_weights(weights_text, profile)
    evaluator = _build_evaluator(evaluator_spec, space, timeout)
    _check_jobs(jobs)

    try:
        result = run_search(space, evaluator, weights, threshold)
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
        raise
    finally:
        _close_evaluator(evaluator)

    manifest = artifacts.build_manifest(
        space,
        space_file=space_spec,
        threshold=threshold,
        weights=weights,
        evaluator_spec=evaluator_spec,
        jobs=jobs,
        out_dir=str(out_dir),
    )
    _write_run_artifacts(out_dir, result, manifest)
    _echo_run_summary(result)
    if result.failed:
        _fail(EXIT_EVALUATOR, f"evaluation failed for: {', '.join(result.failed)}")


@main.command(name="oracle")
@click.argument("run_dir", type=click.Path(path_type=Path))
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=None, help="Output directory (default: RUN_DIR/oracle).")
@click.option("--jobs", type=int, default=1, show_default=True, help="Accepted for compatibility; evaluation is serial.")
@click.option("--timeout", type=float, default=300.0, show_default=True, help="Per-evaluation timeout for exec evaluators (seconds).")
def oracle_cmd(run_dir: Path, out_dir: Path | None, jobs: int, timeout: float) -> None:
    """Exhaustively search the space a run used, with the run's context."""
    try:
        manifest, run_result = artifacts.load_run(run_dir)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot load run directory: {exc}")
        raise
    except (KeyError, ValueError) as exc:
        _fail(EXIT_VALIDATION, f"malformed run directory: {exc}")
        raise
    try:
        guard = enumeration_guard()
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
        raise
    space = run_result.space
    evaluator = _build_evaluator(manifest["evaluator"], space, timeout)
    _check_jobs(jobs)
    out = out_dir if out_dir is not None else run_dir / "oracle"

    results = {}
    try:
        for benchmark, bench in run_result.benchmarks.items():
            if bench.normalization is None:
                click.echo(
                    f"warning: skipping {benchmark}: run has no normalization data",
                    err=True,
                )
                continue
            results[benchmark] = oracle_search(
                space, benchmark, evaluator, run_result.weights, bench.normalization
            )
            best = results[benchmark]
            config = " ".join(f"{k}={v}" for k, v in best.best_config.items())
            click.echo(f"{benchmark}: F={best.objective:.6g} [{config}]")
    except (GuardExceededError, DegenerateMetricError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except EvaluationError as exc:
        _fail(EXIT_EVALUATOR, str(exc))
    finally:
        _close_evaluator(evaluator)

    payload = artifacts.oracle_payload(manifest, guard, results)
    try:
        artifacts.write_oracle(out, payload)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write oracle artifacts: {exc}")


@main.command(name="compare")
@click.argument("run_dir", type=click.Path(path_type=Path))
@click.argument("oracle_dir", type=click.Path(path_type=Path))
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=None, help="Output directory (default: RUN_DIR).")
def compare_cmd(run_dir: Path, oracle_dir: Path, out_dir: Path | None) -> None:
    """Report gaps, coverage, and speedup of a run against its oracle."""
    try:
        manifest, run_result = artifacts.load_run(run_dir)
        oracle_doc = artifacts.load_oracle(oracle_dir)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot load inputs: {exc}")
        raise
    except (KeyError, ValueError) as exc:
        _fail(EXIT_VALIDATION, f"malformed inputs: {exc}")
        raise

    for field in ("space_sha256", "weights", "evaluator"):
        if oracle_doc.get(field) != manifest.get(field):
            _fail(
                EXIT_VALIDATION,
                f"oracle and run manifests disagree on {field}: "
                f"{oracle_doc.get(field)!r} vs {manifest.get(field)!r}",
            )

    oracle_results = artifacts.oracle_results_from_payload(oracle_doc)
    try:
        report = compare_runs(run_result, oracle_results)
    except (ValueError, DseError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
        raise

    out = out_dir if out_dir is not None else run_dir
    try:
        artifacts.write_compare(out, report, run_result.space)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write comparison: {exc}")
    click.echo(artifacts.render_compare_text(report, run_result.space), nl=False)


@main.command(name="sweep")
@click.option("--space", "space_spec", required=True, help="Space file path or shipped space name.")
@click.option("--thresholds", "thresholds_text", required=True, help="Comma-separated list, e.g. 400,1200.")
@click.option("--weights", "weights_text", default=None, help='Metric weights, e.g. "power=0.9,time=0.1".')
@click.option("--profile", type=click.Choice(sorted(WEIGHT_PROFILES)), default=None, help="Named weight profile.")
@click.option("--evaluator", "evaluator_spec", required=True, help="synthetic[:profile] | sepmono | table:<csv> | exec:<command>.")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path), help="Output directory.")
@click.option("--jobs", type=int, default=1, show_default=True, help="Accepted and recorded in the manifest; evaluation is serial.")
@click.option("--timeout", type=float, default=300.0, show_default=True, help="Per-evaluation timeout for exec evaluators (seconds).")
def sweep_cmd(
    space_spec: str,
    thresholds_text: str,
    weights_text: str | None,
    profile: str | None,
    evaluator_spec: str,
    out_dir: Path,
    jobs: int,
    timeout: float,
) -> None:
    """Run once per threshold, sharing evaluations, and summarize."""
    try:
        thresholds = [int(t) for t in thresholds_text.split(",") if t.strip()]
    except ValueError:
        _fail(EXIT_VALIDATION, f"bad threshold list: {thresholds_text!r}")
        raise
    if len(thresholds) < 2:
        _fail(EXIT_VALIDATION, "sweep needs at least two thresholds (use run for one)")
    if any(t < 1 for t in thresholds):
        _fail(EXIT_VALIDATION, "thresholds must be >= 1")

    space = _load_valid_space(space_spec)
    weights = _resolve_weights(weights_text, profile)
    evaluator = _build_evaluator(evaluator_spec, space, timeout)
    _check_jobs(jobs)

    size = cardinality(space)
    shared_memo: dict = {}
    rows = []
    failed: list[str] = []
    try:
        for index, threshold in enumerate(thresholds, start=1):
            cache = CachedEvaluator(evaluator, memo=shared_memo)
            try:
                result = run_search(space, cache, weights, threshold)
            except ValueError as exc:
                _fail(EXIT_VALIDATION, str(exc))
                raise
            subdir = out_dir / f"run{index:02d}-T{threshold}"
            manifest = artifacts.build_manifest(
                space,
                space_file=space_spec,
                threshold=threshold,
                weights=weights,
                evaluator_spec=evaluator_spec,
                jobs=jobs,
                out_dir=str(subdir),
            )
            _write_run_artifacts(subdir, result, manifest)
            for name, bench in result.benchmarks.items():
                rows.append(
                    {
                        "benchmark": name,
                        "threshold": threshold,
                        "objective": "" if bench.objective is None else bench.objective,
                        "unique_evaluations": bench.unique_evaluations,
                        "explored_pct": 100.0 * bench.unique_evaluations / size,
                    }
                )
                if bench.error is not None:
                    failed.append(f"{name} (T={threshold})")
    finally:
        _close_evaluator(evaluator)

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        artifacts.write_sweep_csv(out_dir / artifacts.SWEEP_FILE, rows)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write sweep summary: {exc}")
    for row in rows:
        click.echo(
            f"T={row['threshold']} {row['benchmark']}: F={row['objective']} "
            f"({row['unique_evaluations']} unique, {row['explored_pct']:.4f}% explored)"
        )
    if failed:
        _fail(EXIT_EVALUATOR, f"evaluation failed for: {', '.join(failed)}")


if __name__ == "__main__":
    main()
