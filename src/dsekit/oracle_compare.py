"""Fully exhaustive baseline search and methodology-vs-oracle reporting.

The oracle enumerates the entire design space — guarded against accidental
runs on spaces too large to enumerate — and the comparison report gives the
numbers a designer cares about: per-metric and objective gaps, the fraction
of the space the methodology actually evaluated, and the resulting speedup
over full enumeration. The oracle reuses the normalization context of the
methodology run's benchmark, so objective values are directly comparable.

An in-process backend is enumerated on several CPUs: with ``jobs`` > 1 the
space is cut into contiguous slices in enumeration order, each scored by
the same loop in a forked child, and the slices' winners are merged in
order, so the serial loop's answer (and first error) comes out unchanged.
An ``exec:`` backend keeps one serial loop that feeds its worker pool ahead.
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
from .objective import (
    NormalizationContext,
    WeightVector,
    check_metrics,
    check_weights,
    objective,
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
    benchmark: str,
    evaluator: Evaluator,
    weights: WeightVector,
    ctx: NormalizationContext,
    jobs: int = 1,
) -> OracleResult:
    """Evaluate every configuration; strict-minimum F wins, earliest on ties.

    `ctx` is the benchmark's context from the methodology run. A nonzero
    weight on one of its degenerate metrics raises DegenerateMetricError
    before anything is evaluated. Each response must carry exactly the
    metrics the weights name, all finite, as in the run; a violation raises
    EvaluationError. The best metrics come in the weights' order.

    With `jobs` > 1 and a backend without ``submit`` (an in-process one),
    the enumeration is cut into up to `jobs` contiguous slices, each scored
    in a child made with ``os.fork`` (POSIX only, as the ``exec:`` pool is).
    The slices' winners are merged in enumeration order, so the result, and
    the error raised on a failure, are those of the serial loop. The
    children read a ``CachedEvaluator`` passed in but do not fill it. Fork
    only from a process that runs no other threads. An ``exec:`` backend is
    never forked: it evaluates serially in this process and gets the
    enumeration ahead of its turn, for its worker pool.
    """
    limit = enumeration_guard()
    size = cardinality(space)
    if size > limit:
        raise GuardExceededError(
            f"space cardinality {size} exceeds the enumeration guard {limit}; "
            f"raise it via {GUARD_ENV} to run the oracle anyway"
        )

    check_weights(benchmark, ctx, weights)

    def best_of(configs: Iterable[Config]) -> _Best:
        return _best_of(configs, benchmark, evaluator, weights, ctx)

    slices = [] if jobs == 1 or hasattr(evaluator, "submit") else _slices(space, jobs)
    if len(slices) > 1:
        bests = _forked(lambda configs: best_of(configs()), slices, jobs)
    else:
        bests = [best_of(enumerate_configs(space))]
    # the strict minimum, earliest on ties, as in one serial loop
    best_value, best_config, best_metrics = min(bests, key=lambda best: best[0])
    assert best_config is not None and best_metrics is not None
    return OracleResult(
        benchmark=benchmark,
        best_config=dict(best_config),
        best_metrics=dict(best_metrics),
        objective=best_value,
        evaluations=size,
    )


_Best = tuple[float, Optional[Config], Optional[dict[str, float]]]
_Item = TypeVar("_Item")
_Value = TypeVar("_Value")
#: Leading-parameter prefixes wanted per job, so slices come out near-equal.
_PREFIXES_PER_JOB = 8
#: Bytes read from a child's pipe per ready event: the default pipe capacity.
_PIPE_READ = 1 << 16


def _best_of(
    configs: Iterable[Config],
    benchmark: str,
    evaluator: Evaluator,
    weights: WeightVector,
    ctx: NormalizationContext,
) -> _Best:
    """The strict-minimum F of `configs`, earliest on ties, with its
    configuration and metrics; ``(inf, None, None)`` if none beats inf.
    A backend with ``submit`` gets `configs` ahead of their turn."""
    names = list(weights)
    best: _Best = (math.inf, None, None)
    for config in look_ahead(evaluator, configs, benchmark):
        metrics = check_metrics(benchmark, evaluator.evaluate(config, benchmark), names)
        value = objective(metrics, ctx, weights)
        if value < best[0]:
            best = (value, config, metrics)
    return best


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


def _forked(
    fn: Callable[[_Item], _Value], items: Sequence[_Item], jobs: int | None = None
) -> list[_Value]:
    """``[fn(item) for item in items]``, each call made in its own forked
    child, at most `jobs` of them alive at once (all of them if None); the
    first exception in item order is raised, as a serial loop would raise
    it, without waiting for the children after it.

    Children are forked in item order, the next as soon as one ends. A
    child sends one pickled ``("ok", value)`` or ``("error", exception)``
    down a pipe and leaves with ``os._exit``, so it never unwinds this
    stack, runs exit handlers or flushes inherited stdio buffers. The pipes
    are read as their bytes arrive, so a child that finishes early never
    waits on a full pipe behind an earlier item. Every child is killed and
    reaped before this returns or raises. The default SIGTERM action would
    end this process without unwinding it, so while it is in force a
    SIGTERM first kills and reaps the children, then ends this process by
    SIGTERM as before. SIGINT and SIGTERM are held except while waiting for
    the pipes, so none arrives while a child is forked or reaped.
    """
    import pickle

    children: dict[int, int] = {}  # the pid of each unreaped child, to its pipe
    held = {signal.SIGINT, signal.SIGTERM}

    def reap() -> None:
        for pid in children:
            os.kill(pid, signal.SIGKILL)  # unreaped, so the pid is still this child's
            os.waitpid(pid, 0)

    def terminate(signum, frame) -> None:
        reap()  # not the pipes: this may run inside a wait for one
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)

    limit = len(items) if jobs is None else jobs
    selector = selectors.DefaultSelector()
    started = 0
    outcomes: dict[int, tuple[int, bytes]] = {}  # by item index, the pid and bytes sent
    values: list[_Value] = []
    default = signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    if default:
        signal.signal(signal.SIGTERM, terminate)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, held)
    try:
        while len(values) < len(items):
            while len(children) < limit and started < len(items):
                read_fd, write_fd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    try:
                        if default:
                            signal.signal(signal.SIGTERM, signal.SIG_DFL)
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
        for read_fd in children.values():
            os.close(read_fd)
        selector.close()
        reap()
        if default:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
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
