"""Per-layer tracing of dsekit from outside the package.

``patched(tracer)`` replaces the public functions of each layer, at the
names their callers look them up, with wrappers that record a span (name,
start, end, parent) per call; ``cli`` imports ``run_search``,
``oracle_search`` and ``pareto_front`` by name, so those are patched in
``dsekit.cli``, not only where they are defined. Spans stay in per-thread
arrays until the traced pass ends. ``map_ordered`` is wrapped so that calls
it runs on pool threads keep the span that submitted them as parent.

``layer_metrics`` derives the per-layer numbers, self times included, from
the spans. A layer's self time is its span time minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import threading
from array import array
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter

NO_PARENT = -1
_ID_BITS = 32


class _Buffer:
    """Spans of one thread, in call order; ``end`` is filled on return."""

    __slots__ = ("base", "name", "parent", "start", "end", "stack", "counters")

    def __init__(self, index: int):
        self.base = index << _ID_BITS
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buffer = buf
            return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def current(self) -> int:
        stack = self._buffer().stack
        return stack[-1] if stack else NO_PARENT

    def count(self, counter: str, value: float) -> None:
        counters = self._buffer().counters
        counters[counter] = counters.get(counter, 0) + value

    def wrap(self, fn, name: str, observe=None):
        """``fn`` recording a span per call; ``observe(args, result)`` may count."""
        name_id = self._name_id(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            i = len(buf.start)
            buf.name.append(name_id)
            buf.parent.append(buf.stack[-1] if buf.stack else NO_PARENT)
            buf.end.append(0.0)
            buf.stack.append(buf.base | i)
            buf.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[i] = perf_counter()
                buf.stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def wrap_map(self, map_ordered):
        """``map_ordered`` whose calls keep the submitting span as parent."""

        @wraps(map_ordered)
        def traced_map(fn, items, jobs):
            parent = self.current()

            def with_parent(item):
                stack = self._buffer().stack
                stack.append(parent)
                try:
                    return fn(item)
                finally:
                    stack.pop()

            return map_ordered(with_parent, items, jobs)

        return traced_map

    def wrap_generator(self, gen_fn, name: str):
        """A generator function whose time inside ``next`` is counted."""

        @wraps(gen_fn)
        def traced(*args, **kwargs):
            items = gen_fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    self.count(name + ".busy_s", perf_counter() - t0)
                    return
                self.count(name + ".busy_s", perf_counter() - t0)
                self.count(name + ".configs", 1)
                yield item

        return traced

    def spans(self) -> "Spans":
        offsets = {}
        total = 0
        for buf in self._buffers:
            offsets[buf.base] = total
            total += len(buf.start)
        spans = Spans(self.names)
        for buf in self._buffers:
            spans.name.extend(buf.name)
            spans.start.extend(buf.start)
            spans.end.extend(buf.end)
            spans.parent.extend(
                NO_PARENT
                if p == NO_PARENT
                else offsets[p >> _ID_BITS << _ID_BITS] + (p & ((1 << _ID_BITS) - 1))
                for p in buf.parent
            )
            for key, value in buf.counters.items():
                spans.counters[key] = spans.counters.get(key, 0) + value
        return spans


class Spans:
    """All spans of one traced pass; ``parent`` holds indices into the arrays."""

    def __init__(self, names: list[str]):
        self.names = names
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._by_name: dict[str, list[int]] | None = None

    def of(self, name: str) -> list[int]:
        if self._by_name is None:
            self._by_name = {n: [] for n in self.names}
            for i, name_id in enumerate(self.name):
                self._by_name[self.names[name_id]].append(i)
        return self._by_name.get(name, [])

    def busy(self, name: str) -> float:
        return sum(self.end[i] - self.start[i] for i in self.of(name))

    def durations(self, name: str) -> list[float]:
        return [self.end[i] - self.start[i] for i in self.of(name)]

    def children(self, parents: list[int], child_names) -> dict[int, list[int]]:
        wanted = set(parents)
        out: dict[int, list[int]] = {}
        for name in child_names:
            for i in self.of(name):
                if self.parent[i] in wanted:
                    out.setdefault(self.parent[i], []).append(i)
        return out

    def self_time(self, parents: list[int], child_names=None) -> float:
        """Span time of ``parents`` minus the union of their children's."""
        names = self.names if child_names is None else child_names
        kids = self.children(parents, names)
        total = 0.0
        for p in parents:
            covered = 0.0
            reach = self.start[p]
            for i in sorted(kids.get(p, ()), key=lambda i: self.start[i]):
                lo = max(self.start[i], reach)
                if self.end[i] > lo:
                    covered += self.end[i] - lo
                    reach = self.end[i]
            total += self.end[p] - self.start[p] - covered
        return total

    def write(self, path: Path) -> None:
        """Raw arrays to ``path``, described by ``path`` + ``.json``."""
        with open(path, "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {
            "spans": len(self.start),
            "arrays": [["name", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
            "names": self.names,
            "counters": self.counters,
        }
        Path(str(path) + ".json").write_text(json.dumps(header, indent=1) + "\n")


@contextmanager
def patched(tracer: Tracer):
    """Install the tracing wrappers on every layer; restore them on exit."""
    from dsekit import artifacts, cli, explorer, oracle_compare, pareto
    from dsekit.evaluators import CachedEvaluator, ExternalEvaluator, SyntheticEvaluator
    from dsekit.objective import NormalizationContext

    def front_sizes(args, result):
        tracer.count("pareto.front.records_in", len(args[0]))
        tracer.count("pareto.front.size", len(result))

    spans = [
        (cli, "run_search", "explorer.run", None),
        (cli, "oracle_search", "oracle_compare.oracle_search", None),
        (cli, "compare_runs", "oracle_compare.compare", None),
        (cli, "pareto_front", "pareto.front", front_sizes),
        (cli, "select_tradeoff", "pareto.select", None),
        (explorer, "objective", "objective.objective", None),
        (oracle_compare, "objective", "objective.objective", None),
        (pareto, "objective", "objective.objective", None),
        (NormalizationContext, "normalize", "objective.normalize", None),
        (CachedEvaluator, "evaluate", "evaluators.cache", None),
        (SyntheticEvaluator, "evaluate", "evaluators.backend", None),
        (ExternalEvaluator, "evaluate", "evaluators.exec", None),
    ] + [
        (artifacts, fn, f"artifacts.{fn}", None)
        for fn in (
            "write_run_dir",
            "load_run",
            "write_oracle",
            "load_oracle",
            "write_compare",
            "write_sweep_csv",
        )
    ]
    replaced = []
    for owner, attr, name, observe in spans:
        replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, observe))
    for module in (explorer, oracle_compare):
        replaced.append((module, "map_ordered", module.map_ordered))
        module.map_ordered = tracer.wrap_map(module.map_ordered)
        replaced.append((module, "enumerate_configs", module.enumerate_configs))
        module.enumerate_configs = tracer.wrap_generator(
            module.enumerate_configs, "design_space.enumerate"
        )
    try:
        yield
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)


CLI_SPAN = "cli"
OBJECTIVE_SPANS = ("objective.objective", "objective.normalize")
EVALUATOR_SPANS = ("evaluators.backend", "evaluators.exec")


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


def layer_metrics(spans: Spans, service_us: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    ``service_us`` is the exec worker's mean service time per request; the
    mean round trip minus it is the pipe, protocol and model overhead.
    """
    runs = spans.of("explorer.run")
    caches = spans.of("evaluators.cache")
    oracles = spans.of("oracle_compare.oracle_search")
    requests = sum(len(v) for v in spans.children(runs, ["evaluators.cache"]).values())
    oracle_evals = sum(
        len(v) for v in spans.children(oracles, ["evaluators.backend"]).values()
    )
    run_busy = spans.busy("explorer.run")
    backend_calls = len(spans.of("evaluators.backend"))
    backend_us = 1e6 * spans.busy("evaluators.backend") / backend_calls if backend_calls else 0.0
    rtt_us = [1e6 * d for d in spans.durations("evaluators.exec")]
    # On run-exec the synthetic model runs in the worker: the exec round
    # trip is then the backend cost the framework adds to.
    base_us = backend_us or (statistics.fmean(rtt_us) if rtt_us else 0.0)
    evaluated = spans.children(caches, EVALUATOR_SPANS)
    hits = len(caches) - len(evaluated)
    objective_ids = set(spans.of("objective.objective"))
    objective_busy = sum(
        spans.end[i] - spans.start[i]
        for name in OBJECTIVE_SPANS
        for i in spans.of(name)
        if spans.parent[i] not in objective_ids
    )
    normalize_calls = len(spans.of("objective.normalize"))
    # Normalizations done for the search itself, not for pareto's ranking.
    search_ids = set(runs) | set(oracles)
    search_normalize = sum(
        1
        for i in spans.of("objective.normalize")
        if spans.parent[i] in search_ids
        or (spans.parent[i] in objective_ids and spans.parent[spans.parent[i]] in search_ids)
    )
    oracle_busy = spans.busy("oracle_compare.oracle_search")
    rtt_p50 = statistics.median(rtt_us) if rtt_us else 0.0

    def per(value: float, count: float) -> float:
        return value / count if count else 0.0

    return {
        "explorer.run.busy_s": run_busy,
        "explorer.self_us_per_request": per(
            1e6 * spans.self_time(runs, ["evaluators.cache"]), requests
        ),
        "explorer.framework_overhead_ratio": per(per(1e6 * run_busy, requests), base_us),
        "explorer.requests": requests,
        "evaluators.cache.calls": len(caches),
        "evaluators.cache.hits": hits,
        "evaluators.cache.hit_ratio": per(hits, len(caches)),
        "evaluators.cache.self_us_per_call": per(
            1e6 * spans.self_time(caches, EVALUATOR_SPANS), len(caches)
        ),
        "evaluators.backend.calls": backend_calls,
        "evaluators.backend.us_per_call": backend_us,
        "evaluators.exec.calls": len(rtt_us),
        "evaluators.exec.rtt_p50_us": rtt_p50,
        "evaluators.exec.rtt_p99_us": _percentile(rtt_us, 99),
        "evaluators.exec.overhead_us": statistics.fmean(rtt_us) - service_us if rtt_us else 0.0,
        "objective.objective.calls": len(objective_ids),
        "objective.normalize.calls": normalize_calls,
        "objective.normalize_per_request": per(search_normalize, requests + oracle_evals),
        "objective.busy_s": objective_busy,
        "design_space.enumerate.configs": spans.counters.get("design_space.enumerate.configs", 0),
        "design_space.enumerate.busy_s": spans.counters.get("design_space.enumerate.busy_s", 0.0),
        "oracle_compare.oracle_search.busy_s": oracle_busy,
        "oracle_compare.configs_per_s": per(oracle_evals, oracle_busy),
        "oracle_compare.compare.busy_s": spans.busy("oracle_compare.compare"),
        "pareto.front.busy_s": spans.busy("pareto.front"),
        "pareto.front.records_in": spans.counters.get("pareto.front.records_in", 0),
        "pareto.front.size": spans.counters.get("pareto.front.size", 0),
        "pareto.select.busy_s": spans.busy("pareto.select"),
        "artifacts.write_run_dir.busy_s": spans.busy("artifacts.write_run_dir"),
        "artifacts.load_run.busy_s": spans.busy("artifacts.load_run"),
        "artifacts.write_oracle.busy_s": spans.busy("artifacts.write_oracle"),
        "artifacts.write_compare.busy_s": spans.busy("artifacts.write_compare"),
        "cli.self_s": spans.self_time(spans.of(CLI_SPAN)),
    }
