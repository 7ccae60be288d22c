"""Run-directory artifacts: manifest, results, logs, fronts, reports.

Every run writes a self-contained directory with fixed file names, so the
oracle and compare commands can address runs by path:

    manifest.json       inputs, tool version, timestamp, replay hash
    space.json          copy of the space definition used
    result.json         per-benchmark best configuration, counts, context
    evals.csv           the full evaluation log
    significance.csv    one-shot significance table
    pareto.csv          per-benchmark fronts with the trade-off point marked

The CSV files give the parameters in the space's declaration order and the
metrics in the weights' order, which is also the order every logged
response has.

The replay hash covers everything that determines results (space content,
threshold, weights, evaluator, tool version) and deliberately excludes the
timestamp and output path, so two runs of the same experiment hash alike.

A run directory is written from parts: ``render_part`` renders the entries
and CSV rows of some benchmarks (a group that may have been searched in
another process), and ``write_run_dir`` writes the headers and the parts
in benchmark order. An ``evals.csv`` line, one per logged evaluation, is
joined here as ``csv.writer`` would write it: a string cell is rendered by
``csv.writer`` once per distinct value, a number by ``str``, never quoted.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import __version__
from .design_space import DesignSpace, load_space, save_space, space_to_dict, validate, values_getter
from .evaluators import csv_rows
from .explorer import BenchmarkResult, EvalRecord, Partition, RunResult
from .objective import NormalizationContext, is_metric_value, validate_weights
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

#: A run's identity: the manifest keys, with their JSON types, that an
#: ``oracle.json`` copies from its run's manifest, in this order. ``load_run``
#: type-checks them and ``load_oracle`` requires each to match.
_RUN_IDENTITY = {"space_sha256": str, "weights": dict, "evaluator": str}
#: The manifest keys that ``replay_hash`` covers: all that determines results.
_REPLAYED = ("space_sha256", "threshold", "weights", "evaluator", "version")
#: Per-benchmark ``result.json`` values, in the order written, with their JSON
#: types: the ``BenchmarkResult`` fields other than ``benchmark`` and
#: ``records``, in field order.
_RESULT_ENTRY_TYPES = {
    "best_config": ((dict, type(None)), "an object or null"),
    "best_metrics": ((dict, type(None)), "an object or null"),
    "objective": ((int, float, type(None)), "a number or null"),
    "significance": (dict, "an object"),
    "partition": ((dict, type(None)), "an object or null"),
    "normalization": (dict, "an object"),
    "unique_evaluations": (int, "an integer"),
    "total_requests": (int, "an integer"),
    "error": ((str, type(None)), "a string or null"),
}
#: Per-benchmark ``oracle.json`` values, in the order written, with their JSON
#: types: the ``OracleResult`` fields that ``compare`` reads.
_ORACLE_ENTRY_TYPES = {
    "best_config": (dict, "an object"),
    "best_metrics": (dict, "an object"),
    "objective": ((int, float), "a number"),
    "evaluations": (int, "an integer"),
}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


@contextmanager
def _reading(path: Path | str):
    """Report a missing key, a wrong shape, a number beyond the range of a
    float or nesting too deep to decode in the document at ``path`` as a
    ValueError that names the file."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, AttributeError, ValueError, OverflowError, RecursionError, csv.Error) as exc:
        raise ValueError(f"{path}: malformed: {exc}") from None


def _load_json(path: Path) -> dict:
    with _reading(path):
        payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    return payload


def _check_entries(
    path: Path, payload: Mapping, types: Mapping, space: DesignSpace, weights: Mapping
) -> None:
    """Each benchmark entry of the document at ``path`` holds ``types``' keys
    with their JSON types (never a boolean), a finite objective, a best
    configuration of ``space`` and best metrics of ``weights``, unless null;
    else a ValueError naming it."""
    in_space = _space_test(space)
    with _reading(path):
        for name, entry in payload["benchmarks"].items():
            for key, (kind, spelled) in types.items():
                if not isinstance(entry[key], kind) or isinstance(entry[key], bool):
                    raise TypeError(f"benchmark {name!r}: {key!r} is not {spelled}")
            if entry["objective"] is not None and not is_metric_value(entry["objective"]):
                raise ValueError(f"benchmark {name!r}: 'objective' is {entry['objective']!r}, not finite")
            config = entry["best_config"]
            if config is not None and not in_space(config):
                raise ValueError(f"benchmark {name!r}: 'best_config' {config} is not in the space")
            if entry["best_metrics"] is not None:
                _check_metrics(f"benchmark {name!r}: 'best_metrics'", entry["best_metrics"], weights)


def _space_test(space: DesignSpace) -> Callable[[Mapping], bool]:
    """Whether a configuration sets exactly ``space``'s parameters, each to
    one of its settings by type and value (``True`` is not ``1``), as a
    function built once per space: one set lookup per value."""
    settings = {p.name: {(type(s), s) for s in p.settings} for p in space.parameters}

    def in_space(config: Mapping) -> bool:
        if config.keys() != settings.keys():
            return False
        for name, value in config.items():
            if (type(value), value) not in settings[name]:
                return False
        return True

    return in_space


def _check_metrics(what: str, values: Mapping, weights: Mapping) -> None:
    """``values`` holds a finite number for exactly the metrics the weights
    name; else a ValueError that starts with ``what``."""
    if values.keys() != weights.keys():
        raise ValueError(f"{what} names {sorted(values)}, not the weights' {sorted(weights)}")
    for metric, value in values.items():
        if not is_metric_value(value):
            raise ValueError(f"{what}: {metric!r} is {value!r}, not a finite number")


def _digest(document: Mapping) -> str:
    """The sha256 of ``document``'s canonical JSON: sorted keys, no spaces."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def space_hash(space: DesignSpace) -> str:
    return _digest(space_to_dict(space))


def replay_hash(manifest: Mapping) -> str:
    return _digest({key: manifest[key] for key in _REPLAYED})


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


@dataclass
class RunPart:
    """Some benchmarks' share of one run directory, rendered: their
    ``result.json`` entries, and their rows of ``evals.csv``,
    ``significance.csv`` and ``pareto.csv`` as CSV text, in benchmark order,
    with the metrics in the weights' order."""

    entries: dict[str, dict]
    evals: str
    significance: str
    pareto: str


def render_part(
    run: RunResult,
    fronts: Mapping[str, Sequence[EvalRecord]],
    chosen: Mapping[str, EvalRecord],
) -> RunPart:
    """The run's benchmarks, rendered as their part of a run directory; each
    ``evals.csv`` line in one pass over its record, read by name."""
    metrics = list(run.weights)
    return RunPart(
        entries={name: _result_entry(result) for name, result in run.benchmarks.items()},
        evals=_evals_text(run, metrics),
        significance=_csv_text(_significance_rows(run)),
        pareto=_csv_text(_pareto_rows(run, metrics, fronts, chosen)),
    )


def write_run_dir(
    out: Path, manifest: dict, space: DesignSpace, parts: Sequence[RunPart]
) -> dict[str, dict]:
    """Write the run directory of ``manifest``'s threshold and weights from
    its parts, in benchmark order, and return the ``result.json`` entries of
    its benchmarks. The headers name the metrics in the weights' order, as
    the parts' rows give them."""
    metrics = list(manifest["weights"])
    entries = {name: entry for part in parts for name, entry in part.entries.items()}
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / MANIFEST_FILE, manifest)
    save_space(space, out / SPACE_FILE)
    _write_json(
        out / RESULT_FILE,
        {"threshold": manifest["threshold"], "weights": manifest["weights"], "benchmarks": entries},
    )
    _write_csv(out / EVALS_FILE, _evals_header(space, metrics), [part.evals for part in parts])
    _write_csv(
        out / SIGNIFICANCE_FILE,
        ["benchmark", "parameter", "significance"],
        [part.significance for part in parts],
    )
    _write_csv(out / PARETO_FILE, _pareto_header(space, metrics), [part.pareto for part in parts])
    return entries


def check_columns(space: DesignSpace, weights: Mapping[str, float]) -> None:
    """Refuse, with a ValueError naming it, a column that a CSV header of a
    run directory of `space` and `weights` would hold twice, as a parameter
    named ``seq``, ``phase`` or after a metric does: ``load_run`` could not
    tell the two apart."""
    metrics = list(weights)
    for file, header in (
        (EVALS_FILE, _evals_header(space, metrics)),
        (PARETO_FILE, _pareto_header(space, metrics)),
    ):
        seen = set()
        for name in header:
            if name in seen:
                raise ValueError(f"{file} would hold two columns named {name!r}")
            seen.add(name)


def _evals_header(space: DesignSpace, metrics: Sequence[str]) -> list[str]:
    """The header of ``evals.csv``: the parameters in the space's order, then
    the metrics and their normalized values in the weights' order."""
    norm_names = [f"norm_{m}" for m in metrics]
    return ["benchmark", "phase", "seq", *space.names, *metrics, *norm_names, "objective"]


def _pareto_header(space: DesignSpace, metrics: Sequence[str]) -> list[str]:
    return ["benchmark", *metrics, "objective", *space.names, "chosen"]


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[str]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(rows)


def _csv_text(rows: Iterable[Sequence]) -> str:
    """``rows`` as the text a ``csv.writer`` writes for them."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def _result_entry(result: BenchmarkResult) -> dict:
    """``result``'s ``result.json`` entry: its value of each key of
    ``_RESULT_ENTRY_TYPES``, the partition and normalization as objects."""
    entry = {key: getattr(result, key) for key in _RESULT_ENTRY_TYPES}
    if result.partition is not None:
        entry["partition"] = asdict(result.partition)
    ctx = result.normalization or NormalizationContext({})  # None if the search failed before calibration
    entry["normalization"] = {"maxima": ctx.maxima, "degenerate": sorted(ctx.degenerate)}
    return entry


class _StringCells(dict):
    """The CSV text of each string cell, rendered by ``csv.writer`` on first
    use, in a row of two cells: a row of one empty cell is written ``""``."""

    def __missing__(self, value: str) -> str:
        text = self[value] = _csv_text([(value, "")])[: -len(",\r\n")]
        return text


def _evals_text(run: RunResult, metrics: Sequence[str]) -> str:
    param_values, metric_values = values_getter(run.space.names), values_getter(metrics)
    blank = ("",) * len(metrics)
    strings = _StringCells()
    line = ",".join(["%s"] * (4 + len(run.space.names) + 2 * len(metrics))) + "\r\n"
    lines = []
    for result in run.benchmarks.values():
        for record in result.records:
            lines.append(line % (
                strings[record.benchmark], strings[record.phase], record.seq,
                *[strings[v] if type(v) is str else v for v in param_values(record.config)],
                *metric_values(record.metrics),
                *(metric_values(record.normalized) if record.normalized else blank),
                "" if record.objective is None else record.objective,
            ))
    return "".join(lines)


def _significance_rows(run: RunResult) -> Iterator[list]:
    for name, result in run.benchmarks.items():
        for parameter, value in result.significance.items():
            yield [name, parameter, value]


def _pareto_rows(
    run: RunResult,
    metrics: Sequence[str],
    fronts: Mapping[str, Sequence[EvalRecord]],
    chosen: Mapping[str, EvalRecord],
) -> Iterator[list]:
    """Front members per benchmark; chosen = 1 marks the trade-off point.

    Columns: benchmark, raw metrics, objective, parameters, chosen. The
    benchmark column is first so multi-benchmark runs stay one flat,
    plot-ready file.
    """
    params = run.space.names
    for benchmark, front in fronts.items():
        pick = chosen.get(benchmark)
        for record in front:
            yield (
                [benchmark]
                + [record.metrics[m] for m in metrics]
                + [record.objective]
                + [record.config[p] for p in params]
                + [1 if record is pick else 0]
            )


def load_run(run_dir: Path) -> tuple[dict, RunResult]:
    """Rebuild a RunResult (manifest, results, full log) from a run directory.

    A missing key, a wrong shape or a wrong value type in one of its files is
    a ValueError that names the file. So are a space that ``validate``
    refuses or that the manifest does not hash, weights that are invalid or
    not the manifest's, maxima or best points that are not of those weights
    and the space, a partition that ``_partition`` refuses, a significance
    that is not a finite number of a parameter, an ``evals.csv`` header
    other than the one ``write_run_dir`` writes, a row ``csv_rows`` refuses,
    a row whose configuration is not in the space, a blank metric cell, a
    blank score of a benchmark whose ``error`` is null and log rows of a
    benchmark that ``result.json`` does not hold. So is a ``result.json``
    entry that ``evals.csv`` contradicts: a unique evaluation count other
    than its row count, or a best point (configuration, metrics and
    objective) that is not one of its rows; the floats round-trip exactly.
    """
    manifest_path = run_dir / MANIFEST_FILE
    manifest = _load_json(manifest_path)
    for key, kind in {**_RUN_IDENTITY, "replay_hash": str}.items():
        if not isinstance(manifest.get(key), kind):
            raise ValueError(f"{manifest_path}: {key!r} is missing or not a {kind.__name__}")
    space_path = run_dir / SPACE_FILE
    space = load_space(space_path)
    violations = validate(space)
    if not violations and space_hash(space) != manifest["space_sha256"]:
        violations = [f"not the space whose hash {MANIFEST_FILE} records"]
    if violations:
        raise ValueError(f"{space_path}: " + "; ".join(violations))
    result_path = run_dir / RESULT_FILE
    payload = _load_json(result_path)
    evals_path = run_dir / EVALS_FILE

    with _reading(result_path):
        payload["threshold"]  # required, though the manifest's threshold is the one in force
        weights = {name: float(w) for name, w in payload["weights"].items()}
        violations = validate_weights(weights)
        if weights != manifest["weights"]:
            violations.append(f"{MANIFEST_FILE} has {manifest['weights']}")
        if violations:
            raise ValueError(f"weights {weights}: " + "; ".join(violations))
        succeeded = {name for name, entry in payload["benchmarks"].items() if entry["error"] is None}

    records: dict[str, list[EvalRecord]] = {}
    in_space = _space_test(space)
    score_texts = values_getter([f"norm_{m}" for m in weights] + ["objective"])
    with open(evals_path, newline="", encoding="utf-8") as fh, _reading(evals_path):
        reader = csv.DictReader(fh)
        header = _evals_header(space, list(weights))
        if reader.fieldnames != header:
            raise ValueError(f"header {reader.fieldnames} is not {header}")
        for line, _, config, row in csv_rows(reader, space):
            if not in_space(config):
                raise ValueError(f"line {line}: {config} is not in the space")
            if "" in score_texts(row) and row["benchmark"] in succeeded:
                raise ValueError(f"line {line}: a blank score, but benchmark {row['benchmark']!r} succeeded")
            normalized = {m: float(row[f"norm_{m}"]) for m in weights if row[f"norm_{m}"]}
            record = EvalRecord(
                benchmark=row["benchmark"],
                phase=row["phase"],
                seq=int(row["seq"]),
                config=config,
                metrics={m: float(row[m]) for m in weights},
                normalized=normalized or None,
                objective=float(row["objective"]) if row["objective"] else None,
            )
            records.setdefault(record.benchmark, []).append(record)

    _check_entries(result_path, payload, _RESULT_ENTRY_TYPES, space, weights)
    stray = [name for name in records if name not in payload["benchmarks"]]
    if stray:
        raise ValueError(
            f"{evals_path}: rows of benchmark {stray[0]!r}, which {RESULT_FILE} does not hold"
        )
    benchmarks: dict[str, BenchmarkResult] = {}
    parameters = set(space.names)
    with _reading(result_path):
        for name, entry in payload["benchmarks"].items():
            logged = records.get(name, [])
            if entry["unique_evaluations"] != len(logged):
                raise ValueError(
                    f"benchmark {name!r}: 'unique_evaluations' is {entry['unique_evaluations']}, "
                    f"but {EVALS_FILE} logs {len(logged)} evaluations"
                )
            best = entry["best_config"], entry["best_metrics"], entry["objective"]
            if best[0] is not None and best not in [(r.config, r.metrics, r.objective) for r in logged]:
                raise ValueError(f"benchmark {name!r}: the best point is not one {EVALS_FILE} logs")
            for parameter, value in entry["significance"].items():
                if parameter not in parameters or not is_metric_value(value):
                    raise ValueError(
                        f"benchmark {name!r}: 'significance': {parameter!r} is {value!r}, "
                        "not a finite number of a parameter of the space"
                    )
            if entry["partition"] is not None:
                entry["partition"] = _partition(f"benchmark {name!r}: 'partition'", entry["partition"], parameters)
            maxima = entry["normalization"]["maxima"]
            if maxima:  # empty when the benchmark failed before calibration
                _check_metrics(f"benchmark {name!r}: normalization maxima", maxima, weights)
            entry["normalization"] = NormalizationContext(maxima) if maxima else None
            benchmarks[name] = BenchmarkResult(
                benchmark=name, records=logged, **{key: entry[key] for key in _RESULT_ENTRY_TYPES}
            )
    return manifest, RunResult(space=space, weights=weights, benchmarks=benchmarks)


def _partition(what: str, part: Mapping, parameters: set[str]) -> Partition:
    """The Partition a ``result.json`` entry's ``partition`` object was written
    from; a ValueError that starts with ``what`` unless its three sets are
    arrays of ``parameters``, no name in two places, ``num_exhaustive`` is a
    positive integer and ``warnings`` an array of strings."""
    placed: list = []
    for key in ("exhaustive", "greedy", "oneshot"):
        names = part[key]
        if not isinstance(names, list) or not all(isinstance(n, str) and n in parameters for n in names):
            raise ValueError(f"{what}: {key!r} is {names!r}, not an array of the space's parameters")
        placed += names
    if len(set(placed)) != len(placed):
        raise ValueError(f"{what} places a parameter twice: {placed}")
    count = part["num_exhaustive"]
    if type(count) is not int or count < 1:
        raise ValueError(f"{what}: 'num_exhaustive' is {count!r}, not a positive integer")
    warnings = part["warnings"]
    if not isinstance(warnings, list) or not all(isinstance(w, str) for w in warnings):
        raise ValueError(f"{what}: 'warnings' is {warnings!r}, not an array of strings")
    return Partition(**{key: tuple(value) if isinstance(value, list) else value for key, value in part.items()})


def write_oracle(out: Path, run_manifest: Mapping, guard: int, results: Mapping[str, OracleResult]) -> None:
    """Write the oracle document of the run ``run_manifest`` describes: its
    identity and replay hash, the guard, and each benchmark's values of
    ``_ORACLE_ENTRY_TYPES``."""
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / ORACLE_FILE, {
        **{key: run_manifest[key] for key in _RUN_IDENTITY},
        "run_replay_hash": run_manifest["replay_hash"],
        "guard": guard,
        "benchmarks": {name: {key: getattr(r, key) for key in _ORACLE_ENTRY_TYPES} for name, r in results.items()},
    })


def load_oracle(oracle_dir: Path, manifest: Mapping, run: RunResult) -> dict[str, OracleResult]:
    """The per-benchmark results of the oracle document of the run
    ``load_run`` returned as ``manifest`` and ``run``. A space, weights or
    evaluator other than the manifest's is a ValueError, and so is an entry
    ``_check_entries`` refuses."""
    path = oracle_dir / ORACLE_FILE
    payload = _load_json(path)
    for field in _RUN_IDENTITY:
        if payload.get(field) != manifest[field]:
            raise ValueError(
                f"oracle and run manifests disagree on {field}: "
                f"{payload.get(field)!r} vs {manifest[field]!r}"
            )
    _check_entries(path, payload, _ORACLE_ENTRY_TYPES, run.space, run.weights)
    return {
        name: OracleResult(benchmark=name, **{key: entry[key] for key in _ORACLE_ENTRY_TYPES})
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


def write_compare(out: Path, report: ComparisonReport, space: DesignSpace) -> str:
    """Write the report's JSON and text files to ``out``; return the text."""
    text = render_compare_text(report, space)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / COMPARE_JSON_FILE, compare_payload(report))
    (out / COMPARE_TXT_FILE).write_text(text, encoding="utf-8")
    return text


def write_sweep_csv(path: Path, rows: Sequence[Mapping]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh, ["benchmark", "threshold", "objective", "unique_evaluations", "explored_pct"]
        )
        writer.writeheader()
        writer.writerows(rows)
