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

The search is one sequential decision chain, so it runs serially: each
benchmark gets one ``_Session``, the only code that evaluates. It counts
requests and distinct configurations, validates each new response, and
normalizes and scores it once. The log keeps one record per distinct
configuration per benchmark, tagged with the phase that first requested it,
so its length is exactly the unique-evaluation count that percent-explored
reporting is based on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .design_space import Config, DesignSpace, enumerate_configs, validate
from .errors import DegenerateMetricError, EvaluationError
from .evaluators import CachedEvaluator, Evaluator
from .objective import (  # noqa: F401 -- objective: see map_ordered
    NormalizationContext,
    WeightVector,
    build_context,
    check_metrics,
    objective,
    validate_weights,
    weighted_sum,
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


@dataclass
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
    maxima: dict[str, float]
    degenerate: tuple[str, ...]
    unique_evaluations: int
    total_requests: int
    records: list[EvalRecord]
    error: str | None = None


@dataclass
class RunResult:
    space: DesignSpace
    weights: dict[str, float]
    threshold: int
    benchmarks: dict[str, BenchmarkResult]

    def records(self) -> list[EvalRecord]:
        """All logs concatenated in benchmark run order."""
        out: list[EvalRecord] = []
        for result in self.benchmarks.values():
            out.extend(result.records)
        return out

    def context(self) -> NormalizationContext:
        ctx = NormalizationContext()
        for name, result in self.benchmarks.items():
            if result.maxima:
                ctx.maxima[name] = dict(result.maxima)
                ctx.degenerate.update((name, m) for m in result.degenerate)
        return ctx

    @property
    def failed(self) -> list[str]:
        return [name for name, r in self.benchmarks.items() if r.error is not None]


class _Session:
    """One benchmark's search: the log, the request count and the scoring.

    Every evaluation of the search goes through ``evaluate``. A record is
    created, validated, normalized and scored once, on the first request of
    its configuration; later requests return the same record.
    """

    def __init__(
        self,
        space: DesignSpace,
        benchmark: str,
        evaluator: Evaluator,
        weights: WeightVector,
    ):
        self.space = space
        self.benchmark = benchmark
        self.evaluator = evaluator
        self.weights = weights
        self.ctx: NormalizationContext | None = None
        self.metric_names: frozenset[str] = frozenset()
        self.records: list[EvalRecord] = []
        self._logged: dict[tuple, EvalRecord] = {}
        self.total_requests = 0

    def evaluate(self, config: Config, phase: str) -> EvalRecord:
        metrics = self.evaluator.evaluate(config, self.benchmark)
        self.total_requests += 1
        key = self.space.config_key(config)
        record = self._logged.get(key)
        if record is None:
            seq = len(self.records)
            record = EvalRecord(self.benchmark, phase, seq, dict(config), dict(metrics))
            if self.ctx is not None:
                check_metrics(self.benchmark, record.metrics, self.metric_names)
                self._score(record)
            self._logged[key] = record
            self.records.append(record)
        return record

    def calibrate(self, records: Sequence[EvalRecord]) -> None:
        """Build the normalization context from the one-shot records; score them."""
        self.metric_names = frozenset(records[0].metrics)
        violations = validate_weights(self.weights, self.metric_names)
        if violations:
            raise ValueError("invalid weights: " + "; ".join(violations))
        for record in records:
            check_metrics(self.benchmark, record.metrics, self.metric_names)
        self.ctx = build_context((self.benchmark, r.metrics) for r in records)
        for record in records:
            self._score(record)

    def _score(self, record: EvalRecord) -> None:
        assert self.ctx is not None
        record.normalized = self.ctx.normalize(self.benchmark, record.metrics)
        record.objective = weighted_sum(
            record.normalized, self.ctx, self.benchmark, self.weights
        )

    def result(
        self,
        best: EvalRecord | None,
        significance: dict[str, float],
        part: Partition | None,
        error: str | None = None,
    ) -> BenchmarkResult:
        ctx = self.ctx
        degenerate = ctx.degenerate if ctx else set()
        return BenchmarkResult(
            benchmark=self.benchmark,
            best_config=None if best is None else dict(best.config),
            best_metrics=None if best is None else dict(best.metrics),
            objective=None if best is None else best.objective,
            significance=significance,
            partition=part,
            maxima=dict(ctx.maxima[self.benchmark]) if ctx else {},
            degenerate=tuple(sorted(m for (b, m) in degenerate if b == self.benchmark)),
            unique_evaluations=len(self.records),
            total_requests=self.total_requests,
            records=self.records,
            error=error,
        )


def _one_shot(session: _Session) -> tuple[dict[str, float], Config]:
    space = session.space
    base = {p.name: p.first for p in space.parameters}
    multi = [space.parameter(name) for name in space.multi_setting_names()]
    configs = [base] + [{**base, p.name: p.last} for p in multi]
    records = [session.evaluate(config, PHASE_ONESHOT) for config in configs]
    session.calibrate(records)

    f_base = records[0].objective
    significance: dict[str, float] = {}
    best: Config = dict(base)
    for p, record in zip(multi, records[1:]):
        d = record.objective - f_base
        significance[p.name] = d
        best[p.name] = p.first if d > 0 else p.last
    return significance, best


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


def _exhaustive(session: _Session, part: Partition, best: Config) -> EvalRecord:
    """Phase 3: the strict-minimum record over the exhaustive set, earliest on ties."""
    space = session.space
    if not part.exhaustive:
        # Nothing to enumerate, but the all-best configuration is evaluated
        # once so the greedy phase starts from a defined objective.
        return session.evaluate(best, PHASE_EXHAUSTIVE)

    members = set(part.exhaustive)
    free = [name for name in space.names if name in members]
    fixed = {name: best[name] for name in space.names if name not in members}
    winner: EvalRecord | None = None
    for config in enumerate_configs(space, free=free, fixed=fixed):
        record = session.evaluate(config, PHASE_EXHAUSTIVE)
        if winner is None or record.objective < winner.objective:
            winner = record
    assert winner is not None
    return winner


def _greedy(
    session: _Session,
    part: Partition,
    significance: Mapping[str, float],
    start: Config,
) -> EvalRecord:
    """Phase 4: directional per-parameter walks over the greedy set.

    Each walk starts at the parameter's one-shot endpoint B_i: the first
    setting when D_i > 0, the last one otherwise. It stops at the first
    candidate that does not strictly improve on the best objective seen so
    far in this phase.
    """
    best = dict(start)
    winner: EvalRecord | None = None
    for name in part.greedy:
        settings = session.space.parameter(name).settings
        walk = settings if significance[name] > 0 else reversed(settings)
        for setting in walk:
            record = session.evaluate({**best, name: setting}, PHASE_GREEDY)
            if winner is not None and record.objective >= winner.objective:
                break
            winner = record
            best[name] = setting
    assert winner is not None
    return winner


def run(
    space: DesignSpace,
    evaluator: Evaluator,
    weights: WeightVector,
    threshold: int,
    benchmarks: Sequence[str] | None = None,
) -> RunResult:
    """Run all four phases for every benchmark.

    The evaluator is wrapped in a memoizing cache unless it already is one.
    An evaluation failure, including a response with the wrong metric names
    or a non-finite value, aborts only the affected benchmark — its result
    records the error and the remaining benchmarks still complete. Identical
    inputs produce identical results, including log order.
    """
    violations = validate(space)
    if violations:
        raise ValueError("invalid space: " + "; ".join(violations))
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if benchmarks is None:
        benchmarks = space.benchmarks
    cache = evaluator if isinstance(evaluator, CachedEvaluator) else CachedEvaluator(evaluator)

    results: dict[str, BenchmarkResult] = {}
    for benchmark in benchmarks:
        session = _Session(space, benchmark, cache, weights)
        significance: dict[str, float] = {}
        part: Partition | None = None
        try:
            significance, best = _one_shot(session)
            part = partition(significance, space, threshold)
            winner = _exhaustive(session, part, best)
            if part.greedy:
                winner = _greedy(session, part, significance, winner.config)
        except (EvaluationError, DegenerateMetricError) as exc:
            results[benchmark] = session.result(None, significance, part, str(exc))
        else:
            results[benchmark] = session.result(winner, significance, part)
    return RunResult(
        space=space,
        weights=dict(weights),
        threshold=threshold,
        benchmarks=results,
    )
