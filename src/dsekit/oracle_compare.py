"""Fully exhaustive baseline search and methodology-vs-oracle reporting.

The oracle enumerates the entire design space — guarded against accidental
runs on spaces too large to enumerate — and the comparison report gives the
numbers a designer cares about: per-metric and objective gaps, the fraction
of the space the methodology actually evaluated, and the resulting speedup
over full enumeration. The oracle reuses each run benchmark's normalization
context, so objective values are directly comparable.

One pass scores every benchmark: each configuration for each benchmark in
turn, in contiguous slices of the enumeration forked with ``jobs`` > 1 and
merged in order, so the answers and the error do not depend on ``jobs``.
The pass stops at its first failure, in enumeration order, and makes no
request after it. An ``exec:`` backend is never forked; its worker pool is
fed ahead.
The fork helper, ``_forked``, a pool of at most ``jobs`` forked children,
also serves the CLI, which searches each (threshold, benchmark) pair of
``run`` and ``sweep`` in a child of its own.
"""

from __future__ import annotations

import math
import os
import selectors
import signal
from dataclasses import dataclass
from itertools import chain, product
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

from .design_space import Config, DesignSpace, cardinality, enumerate_configs
from .errors import DseError, GuardExceededError
from .evaluators import Evaluator, look_ahead
from .explorer import RunResult, map_ordered  # noqa: F401 -- see explorer.map_ordered
from .objective import (  # noqa: F401 -- objective: see explorer.map_ordered
    NormalizationContext,
    WeightVector,
    check_metrics,
    check_weights,
    objective,
    scorer,
)

DEFAULT_GUARD = 1_000_000
GUARD_ENV = "DSE_ORACLE_GUARD"


def enumeration_guard() -> int:
    """Effective oracle size limit: the environment, else the default."""
    env = os.environ.get(GUARD_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{GUARD_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_GUARD


@dataclass
class OracleResult:
    benchmark: str
    best_config: Config
    best_metrics: dict[str, float]
    objective: float
    evaluations: int


def oracle_search(
    space: DesignSpace,
    contexts: Mapping[str, NormalizationContext],
    evaluator: Evaluator,
    weights: WeightVector,
    jobs: int = 1,
) -> dict[str, OracleResult]:
    """Evaluate every configuration for each benchmark of `contexts`, which
    maps it to its methodology run context; per benchmark, the strict-minimum
    F wins, earliest on ties, its metrics in the weights' order. A response
    must hold exactly the weights' metrics, all finite (else EvaluationError).
    Every benchmark's weights are checked before any request, the first
    refusal raised (DegenerateMetricError); then the first evaluation failure
    is raised, in enumeration order (configuration-major, the benchmarks in
    `contexts` order within a configuration), and no request follows it.

    The space is enumerated once, each configuration scored for every
    benchmark in turn; with `jobs` > 1, in up to `jobs` contiguous slices,
    each in a child made with ``os.fork`` (POSIX only), which reads a
    ``CachedEvaluator`` passed in but does not fill it: fork only from a
    process that runs no other threads. A backend with ``submit`` (an
    ``exec:`` pool) is never forked; its requests are fed ahead. The serial
    ``oracle_search(space, benchmark, evaluator, weights, ctx)`` returns one
    benchmark's OracleResult."""
    if isinstance(contexts, str):
        return oracle_search(space, {contexts: jobs}, evaluator, weights)[contexts]  # type: ignore
    limit = enumeration_guard()
    size = cardinality(space)
    if size > limit:
        raise GuardExceededError(
            f"space cardinality {size} exceeds the enumeration guard {limit}; "
            f"raise it via {GUARD_ENV} to run the oracle anyway"
        )

    for benchmark, ctx in contexts.items():
        check_weights(benchmark, ctx, weights)
    scorers = {benchmark: scorer(ctx, weights) for benchmark, ctx in contexts.items()}
    if not scorers:
        return {}
    names = list(weights)
    slices = [] if jobs == 1 or hasattr(evaluator, "submit") else _slices(space, jobs)
    if len(slices) > 1:  # per slice, in order; the earliest slice's error is raised
        outcomes = _forked(lambda configs: _best_of(configs(), evaluator, names, scorers), slices, jobs)
    else:
        outcomes = [_best_of(enumerate_configs(space), evaluator, names, scorers)]
    results = {}
    for index, benchmark in enumerate(scorers):
        # the strict minimum, earliest on ties, as in one serial loop
        value, config, metrics = min((bests[index] for bests in outcomes), key=lambda best: best[0])
        results[benchmark] = OracleResult(benchmark, dict(config), dict(metrics), value, size)
    return results


_Best = tuple[float, Optional[Config], Optional[dict[str, float]]]
_Item = TypeVar("_Item")
_Value = TypeVar("_Value")
#: Leading-parameter prefixes wanted per job, so slices come out near-equal.
_PREFIXES_PER_JOB = 8
#: Bytes read from a child's pipe per ready event: the default pipe capacity.
_PIPE_READ = 1 << 16


def _best_of(
    configs: Iterable[Config],
    evaluator: Evaluator,
    names: list[str],
    scorers: Mapping[str, Callable[[dict[str, float]], float]],
) -> list[_Best]:
    """Per benchmark of `scorers`, in order, the strict-minimum F of `configs`,
    earliest on ties, with its configuration and metrics. Requests are fed
    ahead (``look_ahead``); the first failure is raised, and no request
    follows it."""
    benchmarks = list(scorers)
    scores = list(scorers.values())
    bests: list[_Best] = [(math.inf, None, None)] * len(scores)
    for config in look_ahead(evaluator, configs, benchmarks):
        for index, benchmark in enumerate(benchmarks):
            metrics = check_metrics(benchmark, evaluator.evaluate(config, benchmark), names)
            value = scores[index](metrics)
            if value < bests[index][0]:
                bests[index] = (value, config, metrics)
    return bests


def _slices(space: DesignSpace, jobs: int) -> list[Callable[[], Iterator[Config]]]:
    """Up to `jobs` contiguous slices of the enumeration, each a function
    that streams its configurations in the global order.

    Leading parameters are fixed, in declaration order, until their
    combinations (prefixes) number at least ``_PREFIXES_PER_JOB * jobs`` or
    the parameters run out; each slice takes a contiguous run of prefixes
    and enumerates the remaining parameters under each.
    """
    lead = 0
    count = 1
    while lead < len(space.parameters) and count < _PREFIXES_PER_JOB * jobs:
        count *= len(space.parameters[lead])
        lead += 1
    names = space.names
    prefixes = list(product(*(p.settings for p in space.parameters[:lead])))

    def configs(group: list[tuple]) -> Callable[[], Iterator[Config]]:
        return lambda: chain.from_iterable(
            enumerate_configs(space, dict(zip(names, prefix))) for prefix in group
        )

    return [configs(group) for group in _contiguous(prefixes, jobs)]


def _contiguous(items: Sequence[_Item], parts: int) -> list[Sequence[_Item]]:
    """`items` cut into up to `parts` nonempty contiguous runs, in order;
    when they cannot all be the same length, the earlier runs are one longer."""
    count = min(parts, len(items))
    bounds = [-(-len(items) * i // count) for i in range(count + 1)]
    return [items[start:end] for start, end in zip(bounds, bounds[1:])]


def _forked(fn: Callable[[_Item], _Value], items: Sequence[_Item], jobs: int) -> list[_Value]:
    """``[fn(item) for item in items]``, each call made in its own forked
    child, at most `jobs` (>= 1) of them alive at once; the first exception
    in item order is raised, as a serial loop would raise it, without
    waiting for the children after it.

    Children are forked in item order, the next as soon as one ends. A
    child sends one pickled ``("ok", value)`` or ``("error", exception)``
    down a pipe and leaves with ``os._exit``, so it never unwinds this
    stack, runs exit handlers or flushes inherited stdio buffers. The pipes
    are read as their bytes arrive, so a child that finishes early never
    waits on a full pipe behind an earlier item. Every child is killed and
    reaped before this returns or raises, ``KeyboardInterrupt`` included;
    a SIGTERM is the caller's to turn into an exception (the CLI does).
    SIGINT and SIGTERM are held except while waiting for the pipes, so none
    arrives while a child is forked or reaped. Children keep the caller's
    signal handlers: one sent to a child alone comes back as its outcome.
    """
    import pickle

    children: dict[int, int] = {}  # the pid of each unreaped child, to its pipe
    held = {signal.SIGINT, signal.SIGTERM}
    selector = selectors.DefaultSelector()
    started = 0
    outcomes: dict[int, tuple[int, bytes]] = {}  # by item index, the pid and bytes sent
    values: list[_Value] = []
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, held)
    try:
        while len(values) < len(items):
            while len(children) < jobs and started < len(items):
                read_fd, write_fd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    try:
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                        os.close(read_fd)
                        with os.fdopen(write_fd, "wb") as pipe:
                            pipe.write(_pickled_outcome(fn, items[started]))
                    finally:
                        os._exit(0)
                children[pid] = read_fd
                os.close(write_fd)
                selector.register(read_fd, selectors.EVENT_READ, (started, pid, []))
                started += 1
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            ready = selector.select()
            signal.pthread_sigmask(signal.SIG_BLOCK, held)
            for key, _ in ready:
                index, pid, chunks = key.data
                chunk = os.read(key.fd, _PIPE_READ)
                if chunk:
                    chunks.append(chunk)
                    continue
                selector.unregister(key.fd)
                os.close(key.fd)
                del children[pid]
                os.waitpid(pid, 0)  # it closed its pipe, so it is ending
                outcomes[index] = pid, b"".join(chunks)
            while len(values) in outcomes:
                pid, data = outcomes.pop(len(values))
                kind, payload = (
                    pickle.loads(data)
                    if data
                    else ("error", DseError(f"forked process {pid} ended without a result"))
                )
                if kind == "error":
                    raise payload
                values.append(payload)
        return values
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, held)
        selector.close()
        for pid, read_fd in children.items():
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)  # unreaped, so the pid is still this child's
            os.waitpid(pid, 0)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _pickled_outcome(fn: Callable[[_Item], _Value], item: _Item) -> bytes:
    """A child's outcome, pickled; an exception that does not survive a
    pickle round trip becomes a RuntimeError naming its type and text."""
    import pickle

    try:
        return pickle.dumps(("ok", fn(item)))
    except BaseException as exc:  # an interrupt too: the parent re-raises it
        try:
            data = pickle.dumps(("error", exc))
            pickle.loads(data)
            return data
        except Exception:
            error = RuntimeError(f"{type(exc).__qualname__}: {exc}")
            return pickle.dumps(("error", error))


@dataclass
class BenchmarkComparison:
    benchmark: str
    oracle_config: Config
    oracle_metrics: dict[str, float]
    oracle_objective: float
    dse_config: Config
    dse_metrics: dict[str, float]
    dse_objective: float
    metric_gaps_pct: dict[str, float | None]
    objective_gap_pct: float | None
    unique_evaluations: int
    cardinality: int
    explored_pct: float
    speedup: float


@dataclass
class ComparisonReport:
    benchmarks: dict[str, BenchmarkComparison]


def _gap_pct(found: float, optimum: float) -> float | None:
    """Signed percentage difference; None when the optimum is 0 and found is not."""
    if optimum == 0:
        return 0.0 if found == 0 else None
    return 100.0 * (found - optimum) / optimum


def compare(
    run: RunResult, oracle_results: Mapping[str, OracleResult]
) -> ComparisonReport:
    """Per-benchmark gaps, coverage, and speedup of a run against its oracle.

    Also cross-checks global optimality: the oracle's objective must not
    exceed any objective the methodology logged. A violation means the two
    were computed under different spaces, weights, or contexts — or a bug.
    """
    size = cardinality(run.space)
    comparisons: dict[str, BenchmarkComparison] = {}
    for benchmark, oracle in oracle_results.items():
        result = run.benchmarks.get(benchmark)
        if result is None:
            raise ValueError(f"run has no benchmark {benchmark!r}")
        if result.error is not None:
            raise ValueError(
                f"benchmark {benchmark!r} failed in the methodology run: {result.error}"
            )
        assert result.best_config is not None
        assert result.best_metrics is not None
        assert result.objective is not None

        for record in result.records:
            if record.objective is not None and record.objective < oracle.objective:
                raise DseError(
                    f"oracle objective {oracle.objective} is worse than logged "
                    f"objective {record.objective} for benchmark {benchmark!r}: "
                    f"runs are not comparable"
                )

        gaps = {
            name: _gap_pct(result.best_metrics[name], oracle.best_metrics[name])
            for name in oracle.best_metrics
        }
        unique = result.unique_evaluations
        comparisons[benchmark] = BenchmarkComparison(
            benchmark=benchmark,
            oracle_config=dict(oracle.best_config),
            oracle_metrics=dict(oracle.best_metrics),
            oracle_objective=oracle.objective,
            dse_config=dict(result.best_config),
            dse_metrics=dict(result.best_metrics),
            dse_objective=result.objective,
            metric_gaps_pct=gaps,
            objective_gap_pct=_gap_pct(result.objective, oracle.objective),
            unique_evaluations=unique,
            cardinality=size,
            explored_pct=100.0 * unique / size,
            speedup=size / unique,
        )
    return ComparisonReport(benchmarks=comparisons)
