"""Fully exhaustive baseline search and methodology-vs-oracle reporting.

The oracle enumerates the entire design space — guarded against accidental
runs on spaces too large to enumerate — and the comparison report gives the
numbers a designer cares about: per-metric and objective gaps, the fraction
of the space the methodology actually evaluated, and the resulting speedup
over full enumeration. The oracle reuses the normalization context of the
methodology run's benchmark, so objective values are directly comparable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Mapping

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
) -> OracleResult:
    """Evaluate every configuration; strict-minimum F wins, earliest on ties.

    `ctx` is the benchmark's context from the methodology run. A nonzero
    weight on one of its degenerate metrics raises DegenerateMetricError
    before anything is evaluated. Each response must carry exactly the
    metrics the weights name, all finite, as in the run; a violation raises
    EvaluationError.
    """
    limit = enumeration_guard()
    size = cardinality(space)
    if size > limit:
        raise GuardExceededError(
            f"space cardinality {size} exceeds the enumeration guard {limit}; "
            f"raise it via {GUARD_ENV} to run the oracle anyway"
        )

    check_weights(benchmark, ctx, weights)
    names = weights.keys()
    best_config: Config | None = None
    best_metrics: dict[str, float] | None = None
    best_value = math.inf
    for config in look_ahead(evaluator, enumerate_configs(space), benchmark):
        metrics = evaluator.evaluate(config, benchmark)
        check_metrics(benchmark, metrics, names)
        value = objective(metrics, ctx, weights)
        if value < best_value:
            best_value = value
            best_config = config
            best_metrics = metrics
    assert best_config is not None and best_metrics is not None
    return OracleResult(
        benchmark=benchmark,
        best_config=dict(best_config),
        best_metrics=dict(best_metrics),
        objective=best_value,
        evaluations=size,
    )


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
