"""Four-phase search: one-shot significance, partitioning, exhaustive, greedy.

Each benchmark is optimized independently, in four phases:

1. **One-shot.** Evaluate the all-first-settings configuration, plus one
   configuration per multi-setting parameter with only that parameter moved
   to its last setting. Normalization maxima are taken from exactly these
   records. Significance is D_i = F(last_i) - F(first_i); the initial best
   setting B_i is the first setting when D_i > 0, otherwise the last one.
2. **Partition.** Parameters sorted by |D| descending (ties keep declaration
   order) are split into an exhaustive set (running product of setting counts
   capped by the threshold T), a greedy set (the upper half of the rest), and
   an untouched one-shot remainder.
3. **Exhaustive.** All combinations of the exhaustive set, other parameters
   frozen at B; the strict-minimum F wins, earliest enumeration index on ties.
4. **Greedy.** Each greedy parameter in significance order walks its settings
   starting from its endpoint B_i (ascending for D_i > 0, descending
   otherwise), others frozen at the current B; the walk stops at the first
   candidate that fails to strictly improve the best objective seen in this
   phase.

The run returns the phase winner, unless the log holds a record with a
strictly lower F (a one-shot record can beat both later phases); then it
returns the first such minimum. On a tie the phase winner stays.

Each benchmark's search is one generator, ``_search``, that chains the
phases and calls no backend. A phase yields batches of requests that do not
depend on each other's results (the one-shot set, the exhaustive product,
each greedy step alone, as the walk decides a step from the last) and
receives their records. ``run``, the one driver, hands each batch to the
backend ahead of its turn (``look_ahead``), so a worker pool evaluates it in
parallel, and sends the records back. The benchmark's ``_Session`` counts
the requests answered with metrics it accepts, and the distinct
configurations. It checks each new response on arrival against the
weights, which name and order the metrics, logs it in their order, then
normalizes and scores it once. It builds its benchmark's normalization
context from the one-shot records, checks the weights against it once and
returns it as ``BenchmarkResult.normalization``. The log keeps one record
per distinct configuration per benchmark, tagged with the phase that first
requested it, so its length is exactly the unique-evaluation count that
percent-explored reporting is based on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Mapping, Sequence, TypeVar

from .design_space import Config, DesignSpace, check_space, enumerate_configs
from .errors import DegenerateMetricError, EvaluationError
from .evaluators import CachedEvaluator, Evaluator, look_ahead
from .objective import (  # noqa: F401 -- objective: see map_ordered
    NormalizationContext,
    WeightVector,
    build_context,
    check_metrics,
    check_weights,
    objective,
    scorer,
    validate_weights,
)

PHASE_ONESHOT = "oneshot"
PHASE_EXHAUSTIVE = "exhaustive"
PHASE_GREEDY = "greedy"


def map_ordered(fn, items):
    """Plain serial map, called by nothing in the package.

    It stays, like the ``objective`` import above, only because
    perfbench/tracing.py patches both names on this module.
    """
    return map(fn, items)


@dataclass(slots=True)
class EvalRecord:
    """One logged evaluation — the first request of a configuration in a run.

    Normalized metrics and the objective are filled in once the one-shot
    normalization context exists; phase-1 records are scored when it is built.
    """

    benchmark: str
    phase: str
    seq: int
    config: Config
    metrics: dict[str, float]
    normalized: dict[str, float] | None = None
    objective: float | None = None


@dataclass(frozen=True)
class Partition:
    """Threshold split of the multi-setting parameters.

    Each set holds parameter names in descending-|significance| order;
    num_exhaustive is the Cartesian-product size of the exhaustive set
    (1 when the set is empty).
    """

    exhaustive: tuple[str, ...]
    greedy: tuple[str, ...]
    oneshot: tuple[str, ...]
    num_exhaustive: int
    warnings: tuple[str, ...] = ()


@dataclass
class BenchmarkResult:
    benchmark: str
    best_config: Config | None
    best_metrics: dict[str, float] | None
    objective: float | None
    significance: dict[str, float]
    partition: Partition | None
    normalization: NormalizationContext | None
    unique_evaluations: int
    total_requests: int
    records: list[EvalRecord]
    error: str | None = None


@dataclass
class RunResult:
    """The per-benchmark results of a search; the run's manifest holds its threshold."""

    space: DesignSpace
    weights: dict[str, float]
    benchmarks: dict[str, BenchmarkResult]


class _Session:
    """One benchmark's search state: the log, the request count and the scoring.

    Every response the search receives goes through ``record``. A response
    is checked, logged, normalized and scored (by ``score``, built once by
    ``calibrate``) once, on the first request of its configuration; later
    requests return the same record, and once calibrated a new record is
    scored as it is made. ``log`` maps each configuration's key (``key``, the
    space's ``config_key``) to its record; its values, in request order, are
    the log. The session holds no backend.
    """

    def __init__(self, space: DesignSpace, benchmark: str, weights: WeightVector):
        self.space = space
        self.benchmark = benchmark
        self.weights = weights
        self.metric_names = list(weights)
        self.ctx: NormalizationContext | None = None
        self.score: Callable[[dict[str, float]], float] | None = None
        self.log: dict[tuple, EvalRecord] = {}
        self.key = space.config_key
        self.total_requests = 0
        self.significance: dict[str, float] = {}
        self.partition: Partition | None = None

    def record(self, config: Config, metrics: dict[str, float], phase: str) -> EvalRecord:
        key = self.key(config)
        record = self.log.get(key)
        if record is None:
            metrics = check_metrics(self.benchmark, metrics, self.metric_names)
            record = EvalRecord(self.benchmark, phase, len(self.log), dict(config), metrics)
            if self.ctx is not None:
                record.normalized = self.ctx.normalize(metrics)
                record.objective = self.score(metrics)  # type: ignore[misc]
            self.log[key] = record
        self.total_requests += 1
        return record

    def calibrate(self, records: Sequence[EvalRecord]) -> None:
        """Build the normalization context from the one-shot records, refuse
        weight on a metric it cannot scale, then score the records."""
        self.ctx = build_context(r.metrics for r in records)
        check_weights(self.benchmark, self.ctx, self.weights)
        self.score = scorer(self.ctx, self.weights)
        for record in records:
            record.normalized = self.ctx.normalize(record.metrics)
            record.objective = self.score(record.metrics)

    def result(self, best: EvalRecord | None, error: str | None = None) -> BenchmarkResult:
        return BenchmarkResult(
            benchmark=self.benchmark,
            best_config=None if best is None else dict(best.config),
            best_metrics=None if best is None else dict(best.metrics),
            objective=None if best is None else best.objective,
            significance=self.significance,
            partition=self.partition,
            normalization=self.ctx,
            unique_evaluations=len(self.log),
            total_requests=self.total_requests,
            records=list(self.log.values()),
            error=error,
        )


_T = TypeVar("_T")
#: A phase of the search: it yields ``(phase, configs)``, a batch of
#: independent requests, receives their records, and returns its outcome.
_Phase = Generator[tuple[str, Iterable[Config]], list[EvalRecord], _T]


def _one_shot(session: _Session) -> _Phase[Config]:
    space = session.space
    base = {p.name: p.first for p in space.parameters}
    multi = [space.parameter(name) for name in space.multi_setting_names()]
    records = yield PHASE_ONESHOT, [base] + [{**base, p.name: p.last} for p in multi]
    session.calibrate(records)
    f_base = records[0].objective
    session.significance = significance = {p.name: r.objective - f_base for p, r in zip(multi, records[1:])}
    return {**base, **{p.name: p.first if significance[p.name] > 0 else p.last for p in multi}}


def partition(
    significance: Mapping[str, float], space: DesignSpace, threshold: int
) -> Partition:
    """Phase 2: split parameters by significance under the exhaustive cap.

    Parameters are taken in descending |D| (declaration order on ties). The
    exhaustive set grows while the running product of setting counts stays
    within the threshold; the first rejection stops it. The next
    ceil(remaining / 2) parameters form the greedy set, the rest stay at
    their one-shot best settings.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    decl_index = {name: i for i, name in enumerate(space.names)}
    ordered = sorted(
        significance, key=lambda name: (-abs(significance[name]), decl_index[name])
    )
    exhaustive: list[str] = []
    warnings: list[str] = []
    product = 1
    for name in ordered:
        size = len(space.parameter(name))
        if product * size > threshold:
            if not exhaustive:
                warnings.append(
                    f"most significant parameter {name!r} has {size} settings, "
                    f"more than threshold {threshold}; exhaustive set is empty"
                )
            break
        exhaustive.append(name)
        product *= size
    remaining = ordered[len(exhaustive):]
    greedy_count = math.ceil(len(remaining) / 2)
    return Partition(
        exhaustive=tuple(exhaustive),
        greedy=tuple(remaining[:greedy_count]),
        oneshot=tuple(remaining[greedy_count:]),
        num_exhaustive=product,
        warnings=tuple(warnings),
    )


def _exhaustive(session: _Session, part: Partition, best: Config) -> _Phase[EvalRecord]:
    """Phase 3: the strict-minimum record over the exhaustive set, earliest on ties.

    An empty set enumerates exactly one configuration, the all-best one, so
    the greedy phase still starts from a defined objective.
    """
    space = session.space
    members = set(part.exhaustive)
    fixed = {name: best[name] for name in space.names if name not in members}
    records = yield PHASE_EXHAUSTIVE, enumerate_configs(space, fixed)
    return min(records, key=lambda record: record.objective)  # the first of equal minima


def _greedy(session: _Session, part: Partition, start: Config) -> _Phase[EvalRecord]:
    """Phase 4: directional per-parameter walks over the greedy set.

    Each walk starts at the parameter's one-shot endpoint B_i: the first
    setting when D_i > 0, the last one otherwise. It stops at the first
    candidate that does not strictly improve on the best objective seen so
    far in this phase. Each step is a batch of one.
    """
    best = dict(start)
    winner: EvalRecord | None = None
    for name in part.greedy:
        settings = session.space.parameter(name).settings
        walk = settings if session.significance[name] > 0 else reversed(settings)
        for setting in walk:
            (record,) = yield PHASE_GREEDY, [{**best, name: setting}]
            if winner is not None and record.objective >= winner.objective:
                break
            winner = record
            best[name] = setting
    assert winner is not None
    return winner


def _search(session: _Session, threshold: int) -> _Phase[EvalRecord]:
    """The four phases in order; returns the phase winner, or the first
    record of the log with a strictly lower F."""
    best = yield from _one_shot(session)
    session.partition = part = partition(session.significance, session.space, threshold)
    winner = yield from _exhaustive(session, part, best)
    if part.greedy:
        winner = yield from _greedy(session, part, winner.config)
    logged = min(session.log.values(), key=lambda r: r.objective)
    return logged if logged.objective < winner.objective else winner


def check_inputs(space: DesignSpace, weights: WeightVector, threshold: int) -> None:
    """The checks ``run`` makes before any evaluation: a ValueError unless
    the space, the threshold and the weights are valid."""
    check_space(space)
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    violations = validate_weights(weights)
    if violations:
        raise ValueError("invalid weights: " + "; ".join(violations))


def run(
    space: DesignSpace,
    evaluator: Evaluator,
    weights: WeightVector,
    threshold: int,
    benchmarks: Sequence[str] | None = None,
) -> RunResult:
    """Run all four phases for every benchmark.

    The evaluator is wrapped in a memoizing cache unless it already is one.
    This loop drives ``_search`` and is the only caller of the cache.
    Weights out of range or not summing to 1 raise before any evaluation.
    An evaluation failure, including a response whose metric names are not
    the weights' or that holds a non-finite value, aborts only the affected
    benchmark — its result records the error and the remaining benchmarks
    still complete. Identical inputs produce identical results, including
    log order.
    """
    check_inputs(space, weights, threshold)
    if benchmarks is None:
        benchmarks = space.benchmarks
    cache = evaluator if isinstance(evaluator, CachedEvaluator) else CachedEvaluator(evaluator)

    results: dict[str, BenchmarkResult] = {}
    for benchmark in benchmarks:
        session = _Session(space, benchmark, weights)
        search = _search(session, threshold)
        records: list[EvalRecord] | None = None
        try:
            while True:
                try:
                    phase, configs = search.send(records)
                except StopIteration as done:
                    results[benchmark] = session.result(done.value)
                    break
                records = [
                    session.record(config, cache.evaluate(config, benchmark), phase)
                    for config in look_ahead(cache, configs, [benchmark])
                ]
        except (EvaluationError, DegenerateMetricError) as exc:
            results[benchmark] = session.result(None, str(exc))
    return RunResult(space=space, weights=dict(weights), benchmarks=results)
