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
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import __version__
from .design_space import (
    DesignSpace, cardinality, load_json, load_space, reading, save_space, space_to_dict, typed, validate, values_getter,
)
from .evaluators import TableEvaluator, csv_rows
from .explorer import BenchmarkResult, EvalRecord, RunResult
from .explorer import run as run_search
from .objective import NormalizationContext, is_metric_value, scorer, validate_weights
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
#: Per-benchmark ``result.json`` keys, in the order written: the
#: ``BenchmarkResult`` fields other than ``benchmark`` and ``records``.
_RESULT_KEYS = tuple(f.name for f in fields(BenchmarkResult) if f.name not in ("benchmark", "records"))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _space_test(space: DesignSpace) -> Callable[[Mapping], bool]:
    """Whether a configuration sets exactly ``space``'s parameters, each to
    one of its settings (``typed``), as a function built once per space:
    one set lookup per value."""
    settings = {p.name: set(map(typed, p.settings)) for p in space.parameters}

    def in_space(config: Mapping) -> bool:
        if config.keys() != settings.keys():
            return False
        for name, value in config.items():
            if typed(value) not in settings[name]:
                return False
        return True

    return in_space


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
    """``result``'s ``result.json`` entry, as written and as ``load_run``
    checks it: its value of each key of ``_RESULT_KEYS``, the
    partition and normalization as objects."""
    entry = {key: getattr(result, key) for key in _RESULT_KEYS}
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
    """Rebuild a RunResult (manifest, results, full log) from a run directory
    by replaying the search over its own log.

    A missing key, a wrong shape or a wrong value type in one of its files is
    a ValueError that names the file. So are a manifest threshold that is no
    positive integer; a space that ``validate`` refuses or the manifest does
    not hash; a ``result.json`` threshold or weights other than the
    manifest's, invalid weights, and benchmarks other than the space's, in
    order; an ``evals.csv`` header other than ``write_run_dir`` writes, and a
    row that ``csv_rows`` refuses, that is not in the space or with a metric
    cell that is no finite number. The search is then replayed on the logged
    metrics: ``explorer.run`` at the manifest's threshold, answered by a
    ``TableEvaluator`` of the rows. ``evals.csv`` must be the text ``run``
    writes for the replay, line for line (the first difference is named by
    its line and column), and each ``result.json`` entry the replayed
    benchmark's ``_result_entry`` (named by benchmark and key), but for
    ``error``: a string exactly when the replay fails, the one value the log
    cannot give. Last, the manifest's ``replay_hash`` must be the
    ``replay_hash`` of its keys. The results are the replay's, with the
    stored errors.
    """
    manifest_path = run_dir / MANIFEST_FILE
    manifest = load_json(manifest_path)
    for key, kind in {**_RUN_IDENTITY, "replay_hash": str}.items():
        if not isinstance(manifest.get(key), kind):
            raise ValueError(f"{manifest_path}: {key!r} is missing or not a {kind.__name__}")
    threshold = manifest.get("threshold")
    if type(threshold) is not int or threshold < 1:
        raise ValueError(f"{manifest_path}: 'threshold' is missing or not a positive integer")
    space_path = run_dir / SPACE_FILE
    space = load_space(space_path)
    violations = validate(space)
    if not violations and space_hash(space) != manifest["space_sha256"]:
        violations = [f"not the space whose hash {MANIFEST_FILE} records"]
    if violations:
        raise ValueError(f"{space_path}: " + "; ".join(violations))
    result_path = run_dir / RESULT_FILE
    payload = load_json(result_path)
    evals_path = run_dir / EVALS_FILE

    with reading(result_path):
        if type(payload["threshold"]) is not int or payload["threshold"] != threshold:
            raise ValueError(f"'threshold' is {payload['threshold']!r}, but {MANIFEST_FILE} has {threshold}")
        weights = {name: float(w) for name, w in payload["weights"].items()}
        violations = validate_weights(weights)
        if weights != manifest["weights"]:
            violations.append(f"{MANIFEST_FILE} has {manifest['weights']}")
        if violations:
            raise ValueError(f"weights {weights}: " + "; ".join(violations))
        if list(payload["benchmarks"]) != list(space.benchmarks):
            raise ValueError(f"benchmarks {list(payload['benchmarks'])} are not {SPACE_FILE}'s {list(space.benchmarks)}")

    in_space = _space_test(space)

    def number(text: str) -> float:
        if is_metric_value(value := float(text)):
            return value
        raise ValueError(f"{text!r} is not a finite number")

    def response(key: tuple, config: dict, row: dict[str, str]) -> tuple:
        if not in_space(config):
            raise ValueError(f"{config} is not in the space")
        return key, {metric: number(row[metric]) for metric in weights}

    header = _evals_header(space, list(weights))
    with open(evals_path, newline="", encoding="utf-8") as fh, reading(evals_path):
        reader = csv.DictReader(fh)
        if reader.fieldnames != header:
            raise ValueError(f"header {reader.fieldnames} is not {header}")
        log = dict(csv_rows(reader, space, response))
        fh.seek(0)
        text = fh.read()
    replay = run_search(space, TableEvaluator(space, log), weights, threshold)
    if text != (rewritten := _csv_text([header]) + _evals_text(replay, list(weights))):
        with reading(result_path):  # a failure that result.json does not record is why the lines differ
            why = [f"; the replay of {name!r} fails: {result.error}" for name, result in replay.benchmarks.items()
                   if result.error is not None and payload["benchmarks"][name].get("error") is None]
        with reading(evals_path):
            raise ValueError(_line_difference(text, rewritten, header) + "".join(why))
    with reading(result_path):
        for name, result in replay.benchmarks.items():
            entry = payload["benchmarks"][name]
            if result.error is not None and isinstance(entry.get("error"), str):
                result.error = entry["error"]
            written = _result_entry(result)
            written = {"error": written.pop("error"), **written}  # a failure explains the rest
            if (difference := _difference(entry, written, "")) is not None:
                raise ValueError(f"benchmark {name!r}: {difference}, as the search replays it from {EVALS_FILE}")
    with reading(manifest_path):  # last, so that a rule above names what is wrong with a hashed key
        if manifest["replay_hash"] != replay_hash(manifest):
            raise ValueError(f"'replay_hash' is not the hash of its {', '.join(_REPLAYED)}")
    return manifest, replay


def _line_difference(stored: str, written: str, header: Sequence[str]) -> str:
    """Where the text `stored` first differs from `written`, the text the
    search writes: its line, as the row reader counts them, and the first
    column whose cells differ, else the line's ending or quoting."""
    lines = [io.StringIO(text, newline="").readlines() for text in (stored, written)]
    index = next(i for i, pair in enumerate(zip_longest(*lines)) if pair[0] != pair[1])
    if index >= min(map(len, lines)):
        state = "missing" if index >= len(lines[0]) else "extra"
        return f"line {index + 1} is {state}: the search writes {len(lines[1]) - 1} data lines, not {len(lines[0]) - 1}"
    pair = [texts[index] for texts in lines]
    for column, a, b in zip_longest(header, *(next(csv.reader([text]), []) for text in pair)):
        if a != b:
            return f"line {index + 1}: {column!r} is {a!r}, not {b!r}"
    ends = [text[len(text.rstrip("\r\n")):] for text in pair]
    if ends[0] != ends[1]:
        return f"line {index + 1} ends in {ends[0]!r}, not {ends[1]!r}"
    return f"line {index + 1} quotes its cells otherwise than the search writes them"


def _difference(stored: object, written: object, path: str) -> str | None:
    """Where `stored`, read from JSON at `path`, first differs from `written`,
    the value written for it; None if nowhere. A key one holds and the other
    lacks is named alone. A number equals one of another type (a JSON ``5``
    is ``5.0``), but a boolean is no number."""
    if isinstance(stored, dict) and isinstance(written, dict):
        for key in [*written, *(key for key in stored if key not in written)]:
            inner = f"{path}.{key}".lstrip(".")
            if key not in stored or key not in written:
                return f"{inner!r} is {'missing' if key not in stored else 'not a key the search writes'}"
            if (found := _difference(stored[key], written[key], inner)) is not None:
                return found
        return None
    written = list(written) if isinstance(written, tuple) else written
    if stored == written and isinstance(stored, bool) == isinstance(written, bool):
        return None
    return f"{path!r} is {stored!r}, not {written!r}"


def _oracle_entry(result: OracleResult) -> dict:
    """``result``'s ``oracle.json`` entry, as written and as ``load_oracle``
    checks it: its fields other than ``benchmark``, in order."""
    return {f.name: getattr(result, f.name) for f in fields(result) if f.name != "benchmark"}


def write_oracle(out: Path, run_manifest: Mapping, results: Mapping[str, OracleResult]) -> None:
    """Write the oracle document of the run ``run_manifest`` describes: its
    identity, then each benchmark's ``_oracle_entry``. Every run of that
    identity shares it, whatever its threshold."""
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / ORACLE_FILE, {
        **{key: run_manifest[key] for key in _RUN_IDENTITY},
        "benchmarks": {name: _oracle_entry(result) for name, result in results.items()},
    })


def load_oracle(oracle_dir: Path, manifest: Mapping, run: RunResult) -> dict[str, OracleResult]:
    """The per-benchmark results of the oracle document of the run
    ``load_run`` returned as ``manifest`` and ``run``, built from the run.

    A space, weights or evaluator other than the manifest's is a ValueError;
    so are entries other than one per benchmark that succeeded in the run,
    in its order, a ``best_config`` that is not in the space, and
    ``best_metrics`` other than finite numbers of exactly the weights'
    metrics, in their order. Each result takes those two values and, as
    ``oracle_search`` computes them, the F of the metrics under the
    benchmark's context as ``objective`` and the space's cardinality as
    ``evaluations``; the stored entry must be its ``_oracle_entry``, else a
    ValueError names the benchmark and the first key that differs. Other
    top-level keys are ignored."""
    path = oracle_dir / ORACLE_FILE
    payload = load_json(path)
    for field in _RUN_IDENTITY:
        if payload.get(field) != manifest[field]:
            raise ValueError(
                f"oracle and run manifests disagree on {field}: "
                f"{payload.get(field)!r} vs {manifest[field]!r}"
            )
    succeeded = [name for name, result in run.benchmarks.items() if result.error is None]
    in_space, size = _space_test(run.space), cardinality(run.space)
    results = {}
    with reading(path):
        if list(payload["benchmarks"]) != succeeded:
            raise ValueError(f"benchmarks {list(payload['benchmarks'])} are not those that succeeded in the run, {succeeded}")
        for name, entry in payload["benchmarks"].items():
            config, metrics = entry["best_config"], entry["best_metrics"]
            if not isinstance(config, dict) or not in_space(config):
                raise ValueError(f"benchmark {name!r}: 'best_config' {config} is not in the space")
            if not isinstance(metrics, dict) or list(metrics) != list(run.weights) or not all(map(is_metric_value, metrics.values())):
                raise ValueError(f"benchmark {name!r}: 'best_metrics' {metrics} are not finite numbers of exactly the weights' metrics, in their order")
            results[name] = OracleResult(name, config, metrics, scorer(run.benchmarks[name].normalization, run.weights)(metrics), size)
            if (difference := _difference(entry, _oracle_entry(results[name]), "")) is not None:
                raise ValueError(f"benchmark {name!r}: {difference}, as the run gives it")
    return results


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
