"""Run-directory artifacts: manifest, results, logs, fronts, reports.

Every run writes a self-contained directory with fixed file names, so the
oracle and compare commands can address runs by path:

    manifest.json       inputs, tool version, timestamp, replay hash
    space.json          copy of the space definition used
    result.json         per-benchmark best configuration, counts, context
    evals.csv           the full evaluation log
    significance.csv    one-shot significance table
    pareto.csv          per-benchmark fronts with the trade-off point marked

The replay hash covers everything that determines results (space content,
threshold, weights, evaluator, tool version) and deliberately excludes the
timestamp and output path, so two runs of the same experiment hash alike.
"""

from __future__ import annotations

import csv
import hashlib
import json
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .design_space import DesignSpace, load_space, save_space, space_to_dict
from .evaluators import parse_cell
from .explorer import BenchmarkResult, EvalRecord, Partition, RunResult
from .objective import NormalizationContext
from .oracle_compare import ComparisonReport, OracleResult

MANIFEST_FILE = "manifest.json"
SPACE_FILE = "space.json"
RESULT_FILE = "result.json"
EVALS_FILE = "evals.csv"
SIGNIFICANCE_FILE = "significance.csv"
PARETO_FILE = "pareto.csv"
ORACLE_FILE = "oracle.json"
COMPARE_JSON_FILE = "compare.json"
COMPARE_TXT_FILE = "compare.txt"
SWEEP_FILE = "sweep.csv"

#: Manifest keys, with their JSON types, that ``oracle`` and ``compare`` read.
_MANIFEST_KEYS = {"space_sha256": str, "weights": dict, "evaluator": str, "replay_hash": str}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


@contextmanager
def _reading(path: Path | str):
    """Report a missing key or a wrong shape in the document at ``path`` as
    a ValueError that names the file."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, AttributeError, ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: malformed: {exc}") from None


def _load_json(path: Path) -> dict:
    with _reading(path):
        payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    return payload


def space_hash(space: DesignSpace) -> str:
    canonical = json.dumps(space_to_dict(space), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def replay_hash(manifest: Mapping) -> str:
    relevant = {
        "space_sha256": manifest["space_sha256"],
        "threshold": manifest["threshold"],
        "weights": dict(sorted(manifest["weights"].items())),
        "evaluator": manifest["evaluator"],
        "version": manifest["version"],
    }
    canonical = json.dumps(relevant, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_manifest(
    space: DesignSpace,
    space_file: str,
    threshold: int,
    weights: Mapping[str, float],
    evaluator_spec: str,
    jobs: int,
    out_dir: str,
) -> dict:
    manifest = {
        "tool": "dsekit",
        "version": __version__,
        "space_file": space_file,
        "space_sha256": space_hash(space),
        "threshold": threshold,
        "weights": dict(weights),
        "evaluator": evaluator_spec,
        "jobs": jobs,
        "out_dir": out_dir,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    manifest["replay_hash"] = replay_hash(manifest)
    return manifest


def metric_order(run: RunResult) -> list[str]:
    for result in run.benchmarks.values():
        if result.records:
            return list(result.records[0].metrics)
    return []


def write_run_dir(
    out: Path,
    run: RunResult,
    manifest: dict,
    fronts: Mapping[str, Sequence[EvalRecord]],
    chosen: Mapping[str, EvalRecord],
) -> None:
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / MANIFEST_FILE, manifest)
    save_space(run.space, out / SPACE_FILE)
    _write_json(out / RESULT_FILE, result_payload(run))
    write_evals_csv(out / EVALS_FILE, run)
    write_significance_csv(out / SIGNIFICANCE_FILE, run)
    write_pareto_csv(out / PARETO_FILE, run, fronts, chosen)


def result_payload(run: RunResult) -> dict:
    benchmarks = {}
    for name, result in run.benchmarks.items():
        benchmarks[name] = {
            "best_config": result.best_config,
            "best_metrics": result.best_metrics,
            "objective": result.objective,
            "significance": result.significance,
            "partition": _partition_payload(result.partition),
            "normalization": _normalization_payload(result.normalization),
            "unique_evaluations": result.unique_evaluations,
            "total_requests": result.total_requests,
            "error": result.error,
        }
    return {
        "threshold": run.threshold,
        "weights": run.weights,
        "benchmarks": benchmarks,
    }


def _normalization_payload(ctx: NormalizationContext | None) -> dict:
    if ctx is None:
        return {"maxima": {}, "degenerate": []}
    return {"maxima": ctx.maxima, "degenerate": sorted(ctx.degenerate)}


def _partition_payload(part: Partition | None) -> dict | None:
    if part is None:
        return None
    return {
        "exhaustive": list(part.exhaustive),
        "greedy": list(part.greedy),
        "oneshot": list(part.oneshot),
        "num_exhaustive": part.num_exhaustive,
        "warnings": list(part.warnings),
    }


def write_evals_csv(path: Path, run: RunResult) -> None:
    params = list(run.space.names)
    metrics = metric_order(run)
    header = (
        ["benchmark", "phase", "seq"]
        + params
        + metrics
        + [f"norm_{m}" for m in metrics]
        + ["objective"]
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for record in run.records():
            normalized = record.normalized or {}
            writer.writerow(
                [record.benchmark, record.phase, record.seq]
                + [record.config[p] for p in params]
                + [record.metrics[m] for m in metrics]
                + [normalized.get(m, "") for m in metrics]
                + [record.objective if record.objective is not None else ""]
            )


def write_significance_csv(path: Path, run: RunResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["benchmark", "parameter", "significance"])
        for name, result in run.benchmarks.items():
            for parameter, value in result.significance.items():
                writer.writerow([name, parameter, value])


def write_pareto_csv(
    path: Path,
    run: RunResult,
    fronts: Mapping[str, Sequence[EvalRecord]],
    chosen: Mapping[str, EvalRecord],
) -> None:
    """Front members per benchmark; chosen = 1 marks the trade-off point.

    Columns: benchmark, raw metrics, objective, parameters, chosen. The
    benchmark column is first so multi-benchmark runs stay one flat,
    plot-ready file.
    """
    params = list(run.space.names)
    metrics = metric_order(run)
    header = ["benchmark"] + metrics + ["objective"] + params + ["chosen"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for benchmark, front in fronts.items():
            pick = chosen.get(benchmark)
            for record in front:
                writer.writerow(
                    [benchmark]
                    + [record.metrics[m] for m in metrics]
                    + [record.objective if record.objective is not None else ""]
                    + [record.config[p] for p in params]
                    + [1 if record is pick else 0]
                )


def load_run(run_dir: Path) -> tuple[dict, RunResult]:
    """Rebuild a RunResult (manifest, results, full log) from a run directory.

    A missing key or a wrong shape in one of its files is a ValueError that
    names the file.
    """
    manifest_path = run_dir / MANIFEST_FILE
    manifest = _load_json(manifest_path)
    for key, kind in _MANIFEST_KEYS.items():
        if not isinstance(manifest.get(key), kind):
            raise ValueError(f"{manifest_path}: {key!r} is missing or not a {kind.__name__}")
    space = load_space(run_dir / SPACE_FILE)
    result_path = run_dir / RESULT_FILE
    payload = _load_json(result_path)
    evals_path = run_dir / EVALS_FILE

    records: dict[str, list[EvalRecord]] = {}
    with open(evals_path, newline="", encoding="utf-8") as fh, _reading(evals_path):
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        params = [n for n in fields if n in set(space.names)]
        metrics = [
            n
            for n in fields
            if n not in {"benchmark", "phase", "seq", "objective"}
            and n not in set(params)
            and not n.startswith("norm_")
        ]
        for row in reader:
            normalized = {m: float(row[f"norm_{m}"]) for m in metrics if row.get(f"norm_{m}")}
            record = EvalRecord(
                benchmark=row["benchmark"],
                phase=row["phase"],
                seq=int(row["seq"]),
                config={p: parse_cell(row[p]) for p in params},
                metrics={m: float(row[m]) for m in metrics},
                normalized=normalized or None,
                objective=float(row["objective"]) if row["objective"] else None,
            )
            records.setdefault(record.benchmark, []).append(record)

    benchmarks: dict[str, BenchmarkResult] = {}
    with _reading(result_path):
        for name, entry in payload["benchmarks"].items():
            part = entry.get("partition")
            norm = entry["normalization"]
            benchmarks[name] = BenchmarkResult(
                benchmark=name,
                best_config=entry["best_config"],
                best_metrics=entry["best_metrics"],
                objective=entry["objective"],
                significance=entry["significance"],
                partition=Partition(
                    exhaustive=tuple(part["exhaustive"]),
                    greedy=tuple(part["greedy"]),
                    oneshot=tuple(part["oneshot"]),
                    num_exhaustive=part["num_exhaustive"],
                    warnings=tuple(part["warnings"]),
                )
                if part
                else None,
                normalization=NormalizationContext(norm["maxima"], set(norm["degenerate"]))
                if norm["maxima"]
                else None,
                unique_evaluations=entry["unique_evaluations"],
                total_requests=entry["total_requests"],
                records=records.get(name, []),
                error=entry.get("error"),
            )
        run = RunResult(
            space=space,
            weights={name: float(w) for name, w in payload["weights"].items()},
            threshold=payload["threshold"],
            benchmarks=benchmarks,
        )
    return manifest, run


def oracle_payload(
    run_manifest: Mapping,
    guard: int,
    results: Mapping[str, OracleResult],
) -> dict:
    return {
        "space_sha256": run_manifest["space_sha256"],
        "weights": run_manifest["weights"],
        "evaluator": run_manifest["evaluator"],
        "run_replay_hash": run_manifest["replay_hash"],
        "guard": guard,
        "benchmarks": {
            name: {
                "best_config": r.best_config,
                "best_metrics": r.best_metrics,
                "objective": r.objective,
                "evaluations": r.evaluations,
            }
            for name, r in results.items()
        },
    }


def write_oracle(out: Path, payload: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / ORACLE_FILE, payload)


def load_oracle(oracle_dir: Path) -> dict:
    return _load_json(oracle_dir / ORACLE_FILE)


def oracle_results_from_payload(payload: Mapping) -> dict[str, OracleResult]:
    with _reading(ORACLE_FILE):
        return {
            name: OracleResult(
                benchmark=name,
                best_config=entry["best_config"],
                best_metrics=entry["best_metrics"],
                objective=entry["objective"],
                evaluations=entry["evaluations"],
            )
            for name, entry in payload["benchmarks"].items()
        }


def compare_payload(report: ComparisonReport) -> dict:
    return {
        "benchmarks": {
            name: {
                "oracle": {
                    "config": c.oracle_config,
                    "metrics": c.oracle_metrics,
                    "objective": c.oracle_objective,
                },
                "methodology": {
                    "config": c.dse_config,
                    "metrics": c.dse_metrics,
                    "objective": c.dse_objective,
                },
                "metric_gaps_pct": c.metric_gaps_pct,
                "objective_gap_pct": c.objective_gap_pct,
                "unique_evaluations": c.unique_evaluations,
                "cardinality": c.cardinality,
                "explored_pct": c.explored_pct,
                "speedup": c.speedup,
            }
            for name, c in report.benchmarks.items()
        }
    }


def render_compare_text(report: ComparisonReport, space: DesignSpace) -> str:
    """Aligned per-benchmark tables: parameter and metric rows, oracle and
    methodology columns, signed gap percentages."""
    lines: list[str] = []
    for name, c in report.benchmarks.items():
        lines.append(f"benchmark: {name}")
        lines.append(f"  cardinality        {c.cardinality}")
        lines.append(f"  unique evaluations {c.unique_evaluations}")
        lines.append(f"  explored           {c.explored_pct:.4f} %")
        lines.append(f"  speedup            {c.speedup:.2f}x")
        lines.append("")
        rows = [("", "oracle", "methodology", "gap %")]
        for p in space.names:
            rows.append((p, str(c.oracle_config[p]), str(c.dse_config[p]), ""))
        for m in c.oracle_metrics:
            gap = c.metric_gaps_pct[m]
            rows.append(
                (
                    m,
                    f"{c.oracle_metrics[m]:.6g}",
                    f"{c.dse_metrics[m]:.6g}",
                    "n/a" if gap is None else f"{gap:+.4f}",
                )
            )
        gap = c.objective_gap_pct
        rows.append(
            (
                "objective",
                f"{c.oracle_objective:.6g}",
                f"{c.dse_objective:.6g}",
                "n/a" if gap is None else f"{gap:+.4f}",
            )
        )
        widths = [max(len(row[i]) for row in rows) for i in range(4)]
        for row in rows:
            lines.append(
                "  "
                + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            )
        lines.append("")
    return "\n".join(lines)


def write_compare(out: Path, report: ComparisonReport, space: DesignSpace) -> None:
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / COMPARE_JSON_FILE, compare_payload(report))
    (out / COMPARE_TXT_FILE).write_text(
        render_compare_text(report, space), encoding="utf-8"
    )


def write_sweep_csv(path: Path, rows: Sequence[Mapping]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["benchmark", "threshold", "objective", "unique_evaluations", "explored_pct"]
        )
        for row in rows:
            writer.writerow(
                [
                    row["benchmark"],
                    row["threshold"],
                    row["objective"],
                    row["unique_evaluations"],
                    row["explored_pct"],
                ]
            )
