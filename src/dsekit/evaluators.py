"""Black-box evaluation backends and the memoizing evaluation cache.

Every backend implements ``evaluate(config, benchmark) -> dict of metrics``
and is deterministic: identical inputs produce bit-identical outputs. The
built-in backends are:

* ``SyntheticEvaluator`` — a closed-form analytic multicore model (Amdahl
  speedup, cache miss chain, dynamic power) with fixed constants, used for
  reproducible experiments without a simulator.
* ``SepMonoEvaluator`` — metrics separable and strictly monotone per
  parameter, so the true optimum is known; used for optimality proofs.
* ``TableEvaluator`` — replays metric values from a CSV file.
* ``ExternalEvaluator`` — drives a persistent worker subprocess over a
  line-delimited JSON protocol (one request and one response per line).

``CachedEvaluator`` wraps any backend with memoization, so a configuration
requested again (by a later phase, or by another run sharing the memo) never
reaches the backend twice. The search itself counts unique evaluations.
"""

from __future__ import annotations

import json
import math
import queue
import shlex
import subprocess
import threading
from concurrent.futures import Future
from csv import DictReader
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from .design_space import Config, DesignSpace, Setting
from .errors import (
    EvaluationError,
    EvaluationTimeoutError,
    EvaluatorTerminatedError,
    MissingTableRowError,
    ProtocolError,
    TableLoadError,
    UnknownBenchmarkError,
)


class Evaluator(Protocol):
    def evaluate(self, config: Config, benchmark: str) -> dict[str, float]: ...


# ---------------------------------------------------------------------------
# Synthetic multicore model


@dataclass(frozen=True)
class SyntheticProfile:
    """Workload description for the analytic model.

    parallel_fraction: fraction of work that scales with cores (Amdahl's p).
    working_set_kb: data footprint driving cache miss rates.
    instructions: dynamic instruction count.
    base_cpi: cycles per instruction with a perfect memory hierarchy.
    """

    name: str
    parallel_fraction: float
    working_set_kb: float
    instructions: float
    base_cpi: float


SYNTHETIC_PROFILES: dict[str, SyntheticProfile] = {
    p.name: p
    for p in (
        SyntheticProfile("synth-blk", 0.95, 64, 5e9, 1.2),
        SyntheticProfile("synth-fluid", 0.90, 512, 2e9, 1.4),
        SyntheticProfile("synth-ocean", 0.80, 4096, 4e9, 1.6),
    )
}


def _require(config: Config, name: str) -> float:
    try:
        return float(config[name])  # type: ignore[arg-type]
    except KeyError:
        raise EvaluationError(
            f"synthetic model requires parameter {name!r} in the configuration"
        ) from None


def synthetic_evaluate(config: Config, profile: SyntheticProfile) -> dict[str, float]:
    """Closed-form power/time model of a multicore under one workload.

    Required parameters: cores, freq (MHz), l1i, l1d, l2, l3 (kB). Optional:
    width, rob, bpred — when present they raise instruction-level parallelism,
    which lowers time and raises power. All model constants are fixed; they
    reproduce qualitative architecture trends (bigger caches help until the
    working set fits; more cores trade power for time), not any particular
    machine.
    """
    cores = _require(config, "cores")
    freq = _require(config, "freq")
    l1i = _require(config, "l1i")
    l1d = _require(config, "l1d")
    l2 = _require(config, "l2")
    l3 = _require(config, "l3")
    w = profile.working_set_kb

    m_l1i = min(1.0, w / (8 * l1i))
    m_l1d = min(1.0, w / (4 * l1d))
    m_l2 = min(1.0, w / (2 * l2))
    m_l3 = min(1.0, w / (8 * l3))

    ilp = 1.0
    if "width" in config:
        ilp += 0.15 * math.log2(float(config["width"]) / 2)  # type: ignore[arg-type]
    if "rob" in config:
        ilp += 0.10 * math.log2(float(config["rob"]) / 32)  # type: ignore[arg-type]
    if "bpred" in config and str(config["bpred"]).lower().endswith("x2"):
        ilp += 0.05

    cpi = profile.base_cpi / ilp + 0.2 * (
        4 * (m_l1d + 0.5 * m_l1i) + 12 * m_l1d * m_l2 + 80 * m_l1d * m_l2 * m_l3
    )
    speedup = 1.0 / ((1.0 - profile.parallel_fraction) + profile.parallel_fraction / cores)
    time_ms = profile.instructions * cpi / (freq * 1000.0 * speedup)
    power_w = (
        cores * (0.3 + 1.2 * (freq / 3200.0) ** 3 * ilp)
        + 1e-4 * cores * (l1i + l1d + l2)
        + 2e-5 * l3
    )
    return {"power": power_w, "time": time_ms}


class SyntheticEvaluator:
    """Analytic-model backend.

    With an explicit profile, every benchmark is evaluated under it. Without
    one, the benchmark name must itself be a built-in profile name
    (synth-blk, synth-fluid, synth-ocean).
    """

    def __init__(self, profile: str | None = None):
        if profile is not None and profile not in SYNTHETIC_PROFILES:
            raise ValueError(
                f"unknown synthetic profile {profile!r}; "
                f"available: {', '.join(SYNTHETIC_PROFILES)}"
            )
        self._profile = profile

    def evaluate(self, config: Config, benchmark: str) -> dict[str, float]:
        name = self._profile if self._profile is not None else benchmark
        profile = SYNTHETIC_PROFILES.get(name)
        if profile is None:
            raise UnknownBenchmarkError(
                f"unknown benchmark {benchmark!r}: no synthetic profile of that "
                f"name; pass an explicit profile to map all benchmarks onto one"
            )
        return synthetic_evaluate(config, profile)


# ---------------------------------------------------------------------------
# Separable strictly monotone backend


class SepMonoEvaluator:
    """Backend whose optimum is provable by inspection.

    With idx_j the zero-based index of the chosen setting within parameter j
    (1-based position in declaration order):

        power = sum of idx_j / (j + 1)
        time  = sum of (L_j - 1 - idx_j) / (j + 1)

    Both metrics are separable across parameters and strictly monotone in
    every setting index, so a correct search must land exactly on the
    brute-force optimum. The benchmark name is ignored.
    """

    def __init__(self, space: DesignSpace):
        self._space = space

    def evaluate(self, config: Config, benchmark: str) -> dict[str, float]:
        power = 0.0
        time = 0.0
        for j, p in enumerate(self._space.parameters, start=1):
            idx = p.settings.index(config[p.name])
            power += idx / (j + 1)
            time += (len(p) - 1 - idx) / (j + 1)
        return {"power": power, "time": time}


# ---------------------------------------------------------------------------
# CSV table replay backend


def parse_cell(text: str) -> Setting:
    """A CSV cell as the int, float or string setting it spells."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


class TableEvaluator:
    """Replays metric values recorded in a CSV table.

    Header layout: ``benchmark,<parameter names...>,<metric names...>`` —
    every column that matches a space parameter is part of the lookup key,
    every other column (besides ``benchmark``) is a metric. The table must
    cover every configuration the search requests; a miss aborts the run
    rather than silently inventing data.
    """

    def __init__(
        self,
        space: DesignSpace,
        rows: Mapping[tuple, dict[str, float]],
        metric_names: Sequence[str],
        benchmarks: frozenset[str],
    ):
        self._space = space
        self._rows = dict(rows)
        self._metric_names = tuple(metric_names)
        self._benchmarks = benchmarks

    @classmethod
    def load(cls, path: str | Path, space: DesignSpace) -> "TableEvaluator":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = DictReader(fh)
            header = reader.fieldnames
            if header is None:
                raise TableLoadError(f"{path}: empty table")
            if header[0] != "benchmark":
                raise TableLoadError(f"{path}: first column must be 'benchmark'")
            param_names = [n for n in header[1:] if n in set(space.names)]
            missing = set(space.names) - set(param_names)
            if missing:
                raise TableLoadError(f"{path}: missing parameter columns {sorted(missing)}")
            metric_names = [n for n in header[1:] if n not in set(space.names)]
            if not metric_names:
                raise TableLoadError(f"{path}: no metric columns")

            rows: dict[tuple, dict[str, float]] = {}
            benchmarks = set()
            for lineno, row in enumerate(reader, start=2):
                config = {n: parse_cell(row[n]) for n in param_names}
                key = (row["benchmark"], space.config_key(config))
                if key in rows:
                    raise TableLoadError(
                        f"{path}: line {lineno}: duplicate row for benchmark "
                        f"{row['benchmark']!r}, config {config}"
                    )
                try:
                    rows[key] = {n: float(row[n]) for n in metric_names}
                except ValueError as exc:
                    raise TableLoadError(f"{path}: line {lineno}: {exc}") from None
                benchmarks.add(row["benchmark"])
        return cls(space, rows, metric_names, frozenset(benchmarks))

    def evaluate(self, config: Config, benchmark: str) -> dict[str, float]:
        if benchmark not in self._benchmarks:
            raise UnknownBenchmarkError(f"unknown benchmark {benchmark!r}: not in table")
        key = (benchmark, self._space.config_key(config))
        try:
            return dict(self._rows[key])
        except KeyError:
            raise MissingTableRowError(
                f"configuration not in table for benchmark {benchmark!r}: {dict(config)}"
            ) from None


# ---------------------------------------------------------------------------
# External worker subprocess backend


class _Worker:
    """One spawned worker process plus a thread pumping its stdout lines."""

    def __init__(self, argv: Sequence[str]):
        try:
            self.proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                encoding="utf-8",
                bufsize=1,
            )
        except OSError as exc:
            raise EvaluatorTerminatedError(
                f"evaluator terminated: cannot start worker: {exc}"
            ) from None
        self.lines: queue.SimpleQueue[str | None] = queue.SimpleQueue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdin:
            self.proc.stdin.close()
        if self.proc.stdout:
            self.proc.stdout.close()


class ExternalEvaluator:
    """Evaluates by messaging a persistent worker subprocess.

    Protocol (UTF-8, one JSON object per line, LF-terminated):

        request:  {"id": <int>, "benchmark": <str>, "config": {...}}
        response: {"id": <int>, "metrics": {...}}  or  {"id": <int>, "error": <str>}

    One worker is spawned lazily and reused across evaluations; requests are
    serialized over its single pipe. A command that cannot be started raises
    EvaluatorTerminatedError on each call. Worker exit, malformed responses,
    id mismatches, and timeouts each raise a distinct error; after any of
    those the worker is discarded and a fresh one is spawned on the next
    call. An ``error`` response is an ordinary evaluation failure and leaves
    the worker running. ``timeout`` bounds the wait for each response in
    seconds; it must be finite and > 0.
    """

    def __init__(self, command: str | Sequence[str], timeout: float = 300.0):
        self._argv = shlex.split(command) if isinstance(command, str) else list(command)
        if not self._argv:
            raise ValueError("empty worker command")
        if not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(f"timeout must be a finite number > 0, got {timeout}")
        self.timeout = timeout
        self._worker: _Worker | None = None
        self._next_id = 1
        self._lock = threading.Lock()

    def evaluate(self, config: Config, benchmark: str) -> dict[str, float]:
        with self._lock:
            return self._evaluate_locked(config, benchmark)

    def _evaluate_locked(self, config: Config, benchmark: str) -> dict[str, float]:
        if self._worker is None:
            self._worker = _Worker(self._argv)
        worker = self._worker
        request_id = self._next_id
        self._next_id += 1
        request = {"id": request_id, "benchmark": benchmark, "config": dict(config)}
        try:
            assert worker.proc.stdin is not None
            worker.proc.stdin.write(json.dumps(request) + "\n")
            worker.proc.stdin.flush()
        except (OSError, ValueError):
            self._discard()
            raise EvaluatorTerminatedError(
                f"evaluator terminated: worker pipe closed (exit {worker.proc.poll()})"
            ) from None

        try:
            line = worker.lines.get(timeout=self.timeout)
        except queue.Empty:
            self._discard()
            raise EvaluationTimeoutError(
                f"no response from worker within {self.timeout} s"
            ) from None
        if line is None:
            self._discard()
            raise EvaluatorTerminatedError(
                f"evaluator terminated: worker closed stdout (exit {worker.proc.wait()})"
            )

        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            self._discard()
            raise ProtocolError(f"malformed response line: {exc}") from None
        if not isinstance(response, dict):
            self._discard()
            raise ProtocolError(f"response is not a JSON object: {line.strip()}")
        if response.get("id") != request_id:
            self._discard()
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match request id {request_id}"
            )
        if "error" in response:
            raise EvaluationError(str(response["error"]))
        metrics = response.get("metrics")
        if not isinstance(metrics, dict):
            self._discard()
            raise ProtocolError(f"response carries no metrics object: {line.strip()}")
        try:
            return {str(k): float(v) for k, v in metrics.items()}
        except (TypeError, ValueError):
            self._discard()
            raise ProtocolError(f"non-numeric metric value in response: {line.strip()}") from None

    def _discard(self) -> None:
        if self._worker is not None:
            self._worker.kill()
            self._worker = None

    def close(self) -> None:
        with self._lock:
            self._discard()

    def __enter__(self) -> "ExternalEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Memoizing cache


class CachedEvaluator:
    """Memoizes an inner backend, keyed by (benchmark, configuration).

    Passing a shared ``memo`` lets several runs reuse results (e.g. a
    threshold sweep); each run still counts every configuration it asked
    for as one of its own unique evaluations.

    Safe under concurrent calls; concurrent requests for the same key reach
    the inner backend at most once. The first caller of a key marks it in
    flight; a ``Future`` is made only when a second caller arrives to wait
    on it, so serial misses allocate none. Waiters re-raise the owner's
    exception. Errors are never cached: a failed key is re-evaluated on the
    next request.
    """

    def __init__(self, inner: Evaluator, memo: dict | None = None):
        self.inner = inner
        self._memo: dict[tuple, dict[str, float]] = memo if memo is not None else {}
        # None while only the owner is in flight; a Future once a caller waits.
        self._inflight: dict[tuple, Future | None] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _key(config: Config, benchmark: str) -> tuple:
        return (benchmark, tuple(sorted(config.items())))

    def evaluate(self, config: Config, benchmark: str) -> dict[str, float]:
        key = self._key(config, benchmark)
        with self._lock:
            cached = self._memo.get(key)
            if cached is not None:
                return dict(cached)
            waiting = key in self._inflight
            if waiting:
                future = self._inflight[key]
                if future is None:
                    future = self._inflight[key] = Future()
            else:
                self._inflight[key] = None

        if waiting:
            return dict(future.result())

        try:
            result = self.inner.evaluate(config, benchmark)
        except BaseException as exc:
            with self._lock:
                future = self._inflight.pop(key)
            if future is not None:
                future.set_exception(exc)
            raise
        with self._lock:
            self._memo[key] = dict(result)
            future = self._inflight.pop(key)
        if future is not None:
            future.set_result(result)
        return dict(result)


def make_evaluator(
    spec: str,
    space: DesignSpace,
    timeout: float = 300.0,
) -> Evaluator:
    """Build a backend from its command-line specification.

    Grammar: ``synthetic`` | ``synthetic:<profile>`` | ``sepmono`` |
    ``table:<csv path>`` | ``exec:<command line>``.
    """
    kind, _, arg = spec.partition(":")
    if kind == "synthetic":
        return SyntheticEvaluator(arg or None)
    if kind == "sepmono":
        if arg:
            raise ValueError(f"sepmono takes no argument, got {arg!r}")
        return SepMonoEvaluator(space)
    if kind == "table":
        if not arg:
            raise ValueError("table evaluator needs a CSV path: table:<path>")
        return TableEvaluator.load(arg, space)
    if kind == "exec":
        if not arg:
            raise ValueError("exec evaluator needs a command line: exec:<command>")
        return ExternalEvaluator(arg, timeout=timeout)
    raise ValueError(f"unknown evaluator spec {spec!r}")
