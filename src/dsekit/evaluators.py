"""Black-box evaluation backends and the memoizing evaluation cache.

Every backend implements ``evaluate(config, benchmark) -> dict of metrics``,
returns a new dict on each call and is deterministic: identical inputs
produce bit-identical outputs. The built-in backends are:

* ``SyntheticEvaluator`` — a closed-form analytic multicore model (Amdahl
  speedup, cache miss chain, dynamic power), built once per profile with its
  fixed constants bound; for reproducible experiments without a simulator.
* ``SepMonoEvaluator`` — metrics separable and strictly monotone per
  parameter, so the true optimum is known; used for optimality proofs.
* ``TableEvaluator`` — replays metric values from a CSV file.
* ``ExternalEvaluator`` — drives a pool of persistent worker subprocesses
  over a line-delimited JSON protocol (one request and one response per
  line).

``CachedEvaluator`` wraps any backend with memoization, so a configuration
requested again (by a later phase, or by another run given the same cache)
never reaches the backend twice. The search itself counts unique evaluations.

Backends evaluate one request at a time, in the caller's order. A backend
that can work ahead also has ``submit(config, benchmark) -> bool``, a hint
that the caller will ask for that configuration later; ``look_ahead`` feeds
it a stream of independent requests. Only ``ExternalEvaluator`` (and a cache
around it) has one, so a search evaluates the in-process backends one
request at a time. The CLI spreads them over forked processes instead
(``oracle_compare._fanned``): ``run`` and ``sweep`` by (threshold,
benchmark) pairs, the oracle by index ranges of the enumeration.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import shlex
import subprocess
import time
from collections import deque
from csv import DictReader
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Protocol, Sequence

from .design_space import Config, DesignSpace, Setting, reading, values_getter
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


def _model(profile: SyntheticProfile) -> Callable[[Config], dict[str, float]]:
    """Closed-form power/time model of a multicore under one workload, built
    once per profile with its constants bound.

    Required parameters: cores, freq (MHz), l1i, l1d, l2, l3 (kB). Optional:
    width, rob, bpred — when present they raise instruction-level parallelism,
    which lowers time and raises power. All model constants are fixed; they
    reproduce qualitative architecture trends (bigger caches help until the
    working set fits; more cores trade power for time), not any particular
    machine.
    """
    w, p, serial = profile.working_set_kb, profile.parallel_fraction, 1.0 - profile.parallel_fraction
    base_cpi, instructions = profile.base_cpi, profile.instructions

    def evaluate(config: Config) -> dict[str, float]:
        try:  # names the first missing parameter, in this order
            cores, freq = float(config["cores"]), float(config["freq"])
            l1i, l1d = float(config["l1i"]), float(config["l1d"])
            l2, l3 = float(config["l2"]), float(config["l3"])
        except KeyError as exc:
            name = exc.args[0]
            raise EvaluationError(f"synthetic model requires parameter {name!r} in the configuration") from None

        m_l1i = m if (m := w / (8 * l1i)) < 1.0 else 1.0  # min(1.0, m), NaN included
        m_l1d = m if (m := w / (4 * l1d)) < 1.0 else 1.0
        m_l2 = m if (m := w / (2 * l2)) < 1.0 else 1.0
        m_l3 = m if (m := w / (8 * l3)) < 1.0 else 1.0

        ilp = 1.0
        if "width" in config:
            ilp += 0.15 * math.log2(float(config["width"]) / 2)  # type: ignore[arg-type]
        if "rob" in config:
            ilp += 0.10 * math.log2(float(config["rob"]) / 32)  # type: ignore[arg-type]
        if "bpred" in config and str(config["bpred"]).lower().endswith("x2"):
            ilp += 0.05

        cpi = base_cpi / ilp + 0.2 * (
            4 * (m_l1d + 0.5 * m_l1i) + 12 * m_l1d * m_l2 + 80 * m_l1d * m_l2 * m_l3
        )
        speedup = 1.0 / (serial + p / cores)
        time_ms = instructions * cpi / (freq * 1000.0 * speedup)
        power_w = (
            cores * (0.3 + 1.2 * (freq / 3200.0) ** 3 * ilp)
            + 1e-4 * cores * (l1i + l1d + l2)
            + 2e-5 * l3
        )
        return {"power": power_w, "time": time_ms}

    return evaluate


_MODELS = {name: _model(profile) for name, profile in SYNTHETIC_PROFILES.items()}


class SyntheticEvaluator:
    """Analytic-model backend: one profile's model per evaluation.

    With an explicit profile, every benchmark is evaluated under it. Without
    one, the benchmark name must itself be a built-in profile name
    (synth-blk, synth-fluid, synth-ocean). A setting the model cannot take,
    such as 0 cores or a string where it needs a number, is an
    EvaluationError that names the configuration.
    """

    def __init__(self, profile: str | None = None):
        if profile is not None and profile not in SYNTHETIC_PROFILES:
            raise ValueError(
                f"unknown synthetic profile {profile!r}; "
                f"available: {', '.join(SYNTHETIC_PROFILES)}"
            )
        self._model = None if profile is None else _MODELS[profile]

    def evaluate(self, config: Config, benchmark: str) -> dict[str, float]:
        model = self._model or _MODELS.get(benchmark)
        if model is None:
            raise UnknownBenchmarkError(
                f"unknown benchmark {benchmark!r}: no synthetic profile of that "
                f"name; pass an explicit profile to map all benchmarks onto one"
            )
        try:
            return model(config)
        except (ArithmeticError, TypeError, ValueError) as exc:  # a setting outside the model
            raise EvaluationError(
                f"synthetic model cannot evaluate configuration {dict(config)}: {exc}"
            ) from exc


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


def csv_rows(reader: DictReader, space: DesignSpace, parse: Callable[[tuple, Config, dict], Any]) -> Iterator[Any]:
    """``parse(key, config, cells)`` of each row of a CSV file of ``space``'s
    configurations, its key being ``(benchmark, config_key)``. A parameter
    cell is the setting whose ``str`` is its text (the setting "0" stays a
    string), else the int, float or string it spells (2800.0 may spell 2800).
    A row with more or fewer cells than the header, a second row of one key
    or a ValueError of ``parse`` is a ValueError that names its line."""
    texts = {p.name: {str(s): s for s in p.settings} for p in space.parameters}
    key_of = space.config_key
    keys: set[tuple] = set()
    for row in reader:
        line = reader.line_num
        if None in row:  # DictReader's key for the cells beyond the header
            raise ValueError(f"line {line} has more cells than the header")
        if None in row.values():  # and its value for the cells a row lacks
            raise ValueError(f"line {line} has fewer cells than the header")
        config = {name: _setting(settings, row[name]) for name, settings in texts.items()}
        key = (row["benchmark"], key_of(config))
        try:
            if key in keys:
                raise ValueError(f"duplicate row for benchmark {row['benchmark']!r}, config {config}")
            keys.add(key)
            parsed = parse(key, config, row)
        except ValueError as exc:
            raise ValueError(f"line {line}: {exc}") from None
        yield parsed


def _setting(texts: Mapping[str, Setting], text: str) -> Setting:
    if text in texts:
        return texts[text]
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

    def __init__(self, space: DesignSpace, rows: Mapping[tuple, dict[str, float]]):
        self._space = space
        self._rows = dict(rows)
        self._benchmarks = frozenset(benchmark for benchmark, _ in self._rows)

    @classmethod
    def load(cls, path: str | Path, space: DesignSpace) -> "TableEvaluator":
        """The table at ``path``; one that is not a table of ``space``'s
        configurations is a TableLoadError that names the file."""
        try:
            with open(path, newline="", encoding="utf-8") as fh, reading(path):
                reader = DictReader(fh)
                header = reader.fieldnames
                if header is None:
                    raise ValueError("empty table")
                if header[0] != "benchmark":
                    raise ValueError("first column must be 'benchmark'")
                missing = set(space.names).difference(header[1:])
                if missing:
                    raise ValueError(f"missing parameter columns {sorted(missing)}")
                metric_names = [n for n in header[1:] if n not in set(space.names)]
                if not metric_names:
                    raise ValueError("no metric columns")
                rows = dict(
                    csv_rows(reader, space, lambda key, _, cells: (key, {n: float(cells[n]) for n in metric_names}))
                )
        except ValueError as exc:
            raise TableLoadError(str(exc)) from None
        return cls(space, rows)

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

#: Requests queued on one worker: the one it serves and the next one, which
#: already waits in its pipe when it answers.
IN_FLIGHT = 2


class _Request:
    """One request: its line on the wire, the worker holding it, its outcome.

    ``outcome`` stays None until the response is in; it is then the metrics
    or the EvaluationError to raise. ``worker`` is None while the request is
    not queued on any worker.
    """

    __slots__ = ("benchmark", "config", "id", "line", "outcome", "worker")

    def __init__(self, request_id: int, config: Config, benchmark: str):
        self.id = request_id
        self.benchmark = benchmark
        self.config = config
        request = {"id": request_id, "benchmark": benchmark, "config": dict(config)}
        self.line = json.dumps(request).encode() + b"\n"
        self.outcome: dict[str, float] | EvaluationError | None = None
        self.worker: _Worker | None = None


class _Worker:
    """One spawned worker process, the requests queued on it (oldest first,
    the one it serves at the head) and the bytes of its stdout not yet split
    into lines."""

    def __init__(self, argv: Sequence[str]):
        try:
            self.proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        except OSError as exc:
            raise EvaluatorTerminatedError(
                f"evaluator terminated: cannot start worker: {exc}"
            ) from None
        self.queued: deque[_Request] = deque()
        self.since = 0.0  # when the head could start: its send or the previous response
        self.unread = bytearray()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()  # type: ignore[union-attr]
            except BrokenPipeError:
                pass  # stdin still held a line the dead worker never read


def _parse_response(line: bytes, request_id: int) -> dict[str, float]:
    """The metrics of one response line; an ``error`` response raises
    EvaluationError and anything malformed, such as a metric value that is
    not a JSON number, raises ProtocolError."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"response line is not UTF-8: {exc}") from None
    try:
        response = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep to decode
        raise ProtocolError(f"malformed response line: {exc}") from None
    if not isinstance(response, dict):
        raise ProtocolError(f"response is not a JSON object: {text.strip()}")
    if response.get("id") != request_id:
        raise ProtocolError(
            f"response id {response.get('id')!r} does not match request id {request_id}"
        )
    if "error" in response:
        raise EvaluationError(str(response["error"]))
    metrics = response.get("metrics")
    if not isinstance(metrics, dict):
        raise ProtocolError(f"response carries no metrics object: {text.strip()}")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in metrics.values()):
        raise ProtocolError(f"non-numeric metric value in response: {text.strip()}")
    try:
        return {k: float(v) for k, v in metrics.items()}
    except OverflowError:  # an integer beyond the range of a float
        raise ProtocolError(f"metric value out of range in response: {text.strip()}") from None


class ExternalEvaluator:
    """Evaluates by messaging a pool of persistent worker subprocesses.

    Protocol (UTF-8, one JSON object per line, LF-terminated; a response line
    that is not valid UTF-8 is a malformed response):

        request:  {"id": <int>, "benchmark": <str>, "config": {...}}
        response: {"id": <int>, "metrics": {...}}  or  {"id": <int>, "error": <str>}

    Up to ``jobs`` workers are spawned lazily and reused; each holds at most
    ``IN_FLIGHT`` requests and answers them in the order it got them. One
    thread multiplexes their pipes with ``selectors``. ``submit`` sends a
    request ahead of its turn while a worker has a free slot; ``evaluate``
    claims the oldest submitted request if it is the one asked for, and sends
    the request itself otherwise. A submitted request that a later
    ``evaluate`` passes over is abandoned: its response is dropped.

    A command that cannot be started raises EvaluatorTerminatedError from
    ``evaluate``. Worker exit, malformed responses, id mismatches and
    timeouts each raise a distinct error for the request the worker was
    serving; the worker is discarded, a fresh one is spawned when needed,
    and the requests queued behind the failed one are sent again when
    claimed. An ``error`` response is an ordinary evaluation failure and
    leaves the worker running. ``timeout`` bounds each request in seconds,
    counted from when its worker can start it: the later of its send and
    the worker's previous response. It must be finite and > 0. Calls must
    come from one thread. ``close`` (or the end of a ``with`` block) kills
    the workers; to close on SIGTERM, make its handler raise (the CLI does).
    """

    def __init__(
        self, command: str | Sequence[str], timeout: float = 300.0, jobs: int = 1
    ):
        self._argv = shlex.split(command) if isinstance(command, str) else list(command)
        if not self._argv:
            raise ValueError("empty worker command")
        if not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(f"timeout must be a finite number > 0, got {timeout}")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.timeout = timeout
        self.jobs = jobs
        self._workers: list[_Worker] = []
        self._selector: selectors.BaseSelector | None = None
        self._submitted: deque[_Request] = deque()  # not yet claimed, oldest first
        self._next_id = 1

    def submit(self, config: Config, benchmark: str) -> bool:
        """Send a request that ``evaluate`` will ask for later, in submission
        order. False when no worker slot is free (nothing is sent)."""
        try:
            worker = self._free_worker()
        except EvaluatorTerminatedError:
            return False  # evaluate reports it, at the request's turn
        if worker is None:
            return False
        request = self._request(config, benchmark)
        self._send(request, worker)
        self._submitted.append(request)
        return True

    def evaluate(self, config: Config, benchmark: str) -> dict[str, float]:
        request = self._claim(config, benchmark)
        while request.outcome is None:
            if request.worker is None:
                worker = self._free_worker()
                if worker is not None:
                    self._send(request, worker)
                    continue
            self._pump()
        if isinstance(request.outcome, EvaluationError):
            raise request.outcome
        return request.outcome

    def _claim(self, config: Config, benchmark: str) -> _Request:
        submitted = self._submitted
        while submitted:
            request = submitted.popleft()
            if request.benchmark == benchmark and request.config == config:
                return request
        return self._request(config, benchmark)

    def _request(self, config: Config, benchmark: str) -> _Request:
        request = _Request(self._next_id, config, benchmark)
        self._next_id += 1
        return request

    def _free_worker(self) -> _Worker | None:
        """An idle worker, else a new one while the pool is below ``jobs``,
        else one with a free slot; None when every slot is taken."""
        partial = None
        for worker in self._workers:
            if not worker.queued:
                return worker
            if partial is None and len(worker.queued) < IN_FLIGHT:
                partial = worker
        if len(self._workers) < self.jobs:
            worker = _Worker(self._argv)
            if self._selector is None:
                self._selector = selectors.DefaultSelector()
            self._selector.register(worker.proc.stdout, selectors.EVENT_READ, worker)
            self._workers.append(worker)
            return worker
        return partial

    def _send(self, request: _Request, worker: _Worker) -> None:
        request.worker = worker
        if not worker.queued:
            worker.since = time.monotonic()
        worker.queued.append(request)
        try:
            assert worker.proc.stdin is not None
            worker.proc.stdin.write(request.line)
            worker.proc.stdin.flush()
        except OSError:
            pass  # the worker is gone; its closed stdout fails the request it took down

    def _pump(self) -> None:
        """Wait for responses until one arrives or the oldest head times out."""
        assert self._selector is not None
        busy = [worker for worker in self._workers if worker.queued]
        deadline = min(worker.since for worker in busy) + self.timeout
        for key, _ in self._selector.select(max(0.0, deadline - time.monotonic())):
            self._read(key.data)
        now = time.monotonic()
        for worker in busy:
            if worker.queued and now - worker.since >= self.timeout:
                self._discard(
                    worker,
                    EvaluationTimeoutError(f"no response from worker within {self.timeout} s"),
                )

    def _read(self, worker: _Worker) -> None:
        assert worker.proc.stdout is not None
        data = os.read(worker.proc.stdout.fileno(), 1 << 16)
        if not data:
            try:
                code = worker.proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                code = None
            self._discard(
                worker,
                EvaluatorTerminatedError(
                    f"evaluator terminated: worker closed stdout (exit {code})"
                ),
            )
            return
        unread = worker.unread
        unread += data
        start = 0
        while (end := unread.find(b"\n", start)) >= 0:
            line = bytes(unread[start : end + 1])
            start = end + 1
            if not worker.queued:
                self._discard(worker, ProtocolError("response line with no request pending"))
                return
            request = worker.queued[0]
            try:
                request.outcome = _parse_response(line, request.id)
            except ProtocolError as exc:
                self._discard(worker, exc)
                return
            except EvaluationError as exc:
                request.outcome = exc
            worker.queued.popleft()
            worker.since = time.monotonic()
        del unread[:start]

    def _discard(self, worker: _Worker, exc: EvaluationError) -> None:
        """Kill a worker: the request it was serving fails with ``exc``, the
        ones queued behind it wait for another worker."""
        assert self._selector is not None and worker.proc.stdout is not None
        self._selector.unregister(worker.proc.stdout)
        self._workers.remove(worker)
        worker.kill()
        if worker.queued:
            worker.queued.popleft().outcome = exc
        for request in worker.queued:
            request.worker = None
        worker.queued.clear()

    def close(self) -> None:
        """Kill every worker and drop every request not yet claimed."""
        while self._workers:
            self._discard(self._workers[-1], EvaluatorTerminatedError("evaluator closed"))
        self._submitted.clear()
        if self._selector is not None:
            self._selector.close()
            self._selector = None

    def __enter__(self) -> "ExternalEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def look_ahead(evaluator: Evaluator, configs: Iterable[Config], benchmarks: Sequence[str]) -> Iterable[Config]:
    """``configs`` in order, for the caller to evaluate one by one for each of
    `benchmarks` in turn; each such request is first handed to
    ``evaluator.submit`` ahead of its turn while the backend takes it. A
    caller that stops pulling makes no further submissions.

    Backends without ``submit`` (the in-process ones) get ``configs`` back
    untouched. A memo hit takes no slot and does not stop the hand-off. A
    refused request waits for the next turn, so beyond the requests the
    backend holds and the memo hits, at most one configuration is pulled
    ahead of its turn.
    """
    submit = getattr(evaluator, "submit", None)
    if submit is None:
        return configs
    return _submitted_ahead(submit, configs, benchmarks)


def _submitted_ahead(
    submit: Callable[[Config, str], bool], configs: Iterable[Config], benchmarks: Sequence[str]
) -> Iterator[Config]:
    ahead: deque[Config] = deque()
    for config in configs:
        for benchmark in benchmarks:
            while not submit(config, benchmark) and ahead:
                yield ahead.popleft()
        ahead.append(config)
    yield from ahead


# ---------------------------------------------------------------------------
# Memoizing cache


class CachedEvaluator:
    """Memoizes an inner backend, keyed by ``(benchmark, names, values)``: the
    sorted parameter names, one tuple learned once per key set, and the
    configuration's values in that order.

    The cache holds results only, no per-run state: to share results across
    runs, pass them one cache instance, as ``sweep`` does for an ``exec:``
    backend or at ``--jobs 1``; its forked children each search through a
    cache of their own. Each run still counts every configuration it asked
    for as one of its own unique evaluations.

    The memo keeps one copy per miss; every returned dict is the caller's.
    Errors are never cached: a failed key is re-evaluated on the next
    request. It has ``submit`` exactly when the inner backend has: the hint
    is forwarded for memo misses only, and a hit is accepted at once, since
    nothing needs sending. Calls must come from one thread.
    """

    def __init__(self, inner: Evaluator):
        self.inner = inner
        self._memo: dict[tuple, dict[str, float]] = {}
        self._names: tuple[str, ...] = ()
        self._getter = values_getter(())
        if hasattr(inner, "submit"):
            self.submit = self._submit

    def _key(self, config: Config, benchmark: str) -> tuple:
        try:
            if len(config) != len(self._names):
                raise KeyError(self._names)
            return (benchmark, self._names, self._getter(config))
        except KeyError:  # another key set: learn its names and getter once
            self._names = tuple(sorted(config))
            self._getter = values_getter(self._names)
            return (benchmark, self._names, self._getter(config))

    def evaluate(self, config: Config, benchmark: str) -> dict[str, float]:
        key = self._key(config, benchmark)
        cached = self._memo.get(key)
        if cached is not None:
            return dict(cached)
        result = self.inner.evaluate(config, benchmark)
        self._memo[key] = dict(result)
        return result

    def _submit(self, config: Config, benchmark: str) -> bool:
        return self._key(config, benchmark) in self._memo or self.inner.submit(
            config, benchmark
        )


def make_evaluator(
    spec: str,
    space: DesignSpace,
    timeout: float = 300.0,
    jobs: int = 1,
) -> Evaluator:
    """Build a backend from its command-line specification.

    Grammar: ``synthetic`` | ``synthetic:<profile>`` | ``sepmono`` |
    ``table:<csv path>`` | ``exec:<command line>``. ``jobs`` sizes the
    worker pool of ``exec:``; the in-process backends are serial.
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
        return ExternalEvaluator(arg, timeout=timeout, jobs=jobs)
    raise ValueError(f"unknown evaluator spec {spec!r}")
