"""Weighted-sum objective over normalized minimize-direction metrics.

Raw metric vectors are normalized against per-benchmark maxima collected in
the one-shot phase; the scalar objective F is the weighted sum of the
normalized components. Lower F is always better — metrics the user wants to
maximize must be supplied as a minimizing proxy (e.g. execution time rather
than throughput). Values observed after the one-shot phase may exceed the
recorded maxima; their normalized components are then > 1, by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Mapping

from .errors import DegenerateMetricError, EvaluationError

MetricVector = Mapping[str, float]
WeightVector = Mapping[str, float]

WEIGHT_SUM_TOLERANCE = 1e-9

#: Named weight profiles for the two sample application domains.
WEIGHT_PROFILES: dict[str, dict[str, float]] = {
    "lowpower": {"power": 0.9, "time": 0.1},
    "highperf": {"power": 0.1, "time": 0.9},
}


def validate_weights(weights: WeightVector, metrics: Iterable[str]) -> list[str]:
    """Return all weight-vector violations; empty list means valid.

    Checks each weight lies in [0, 1], the weights sum to 1 (within
    tolerance), and the weight keys exactly match the metric keys.
    """
    violations = []
    metric_set = set(metrics)
    for name, w in weights.items():
        if not (0.0 <= w <= 1.0):
            violations.append(f"weight {name!r} = {w} outside [0, 1]")
    total = sum(weights.values())
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        violations.append(f"weights sum to {total}, expected 1")
    missing = metric_set - set(weights)
    extra = set(weights) - metric_set
    if missing:
        violations.append(f"missing weights for metrics: {sorted(missing)}")
    if extra:
        violations.append(f"weights for unknown metrics: {sorted(extra)}")
    return violations


def parse_weights(text: str) -> dict[str, float]:
    """Parse ``name=value,name=value`` weight syntax (CLI flag format)."""
    weights: dict[str, float] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, value = chunk.partition("=")
        if not sep:
            raise ValueError(f"bad weight {chunk!r}, expected name=value")
        name = name.strip()
        if name in weights:
            raise ValueError(f"duplicate weight for {name!r}")
        try:
            weights[name] = float(value)
        except ValueError:
            raise ValueError(f"bad weight value {value!r} for {name!r}") from None
    if not weights:
        raise ValueError("empty weight specification")
    return weights


@dataclass
class NormalizationContext:
    """Per-benchmark, per-metric maxima from the one-shot phase.

    A metric whose maximum is 0 across all one-shot records is degenerate:
    its normalized value is defined as 0 and the metric is flagged, so the
    objective can refuse to weight it.
    """

    maxima: dict[str, dict[str, float]] = field(default_factory=dict)
    degenerate: set[tuple[str, str]] = field(default_factory=set)

    def normalize(self, benchmark: str, metrics: MetricVector) -> dict[str, float]:
        """Scale a raw metric vector by the benchmark's recorded maxima."""
        if benchmark not in self.maxima:
            raise KeyError(f"no normalization data for benchmark {benchmark!r}")
        maxima = self.maxima[benchmark]
        normalized = {}
        for name, value in metrics.items():
            if name not in maxima:
                raise KeyError(f"no maximum recorded for metric {name!r}")
            if (benchmark, name) in self.degenerate:
                normalized[name] = 0.0
            else:
                normalized[name] = value / maxima[name]
        return normalized


def build_context(
    phase1_records: Iterable[tuple[str, MetricVector]],
) -> NormalizationContext:
    """Collect per-benchmark, per-metric maxima from one-shot records."""
    ctx = NormalizationContext()
    for benchmark, metrics in phase1_records:
        per_bench = ctx.maxima.setdefault(benchmark, {})
        for name, value in metrics.items():
            if name not in per_bench or value > per_bench[name]:
                per_bench[name] = value
    if not ctx.maxima:
        raise ValueError("no one-shot records to build a normalization context")
    for benchmark, per_bench in ctx.maxima.items():
        for name, maximum in per_bench.items():
            if maximum == 0:
                ctx.degenerate.add((benchmark, name))
    return ctx


def check_metrics(benchmark: str, metrics: MetricVector, names: AbstractSet[str]) -> None:
    """Reject an evaluator response that is not exactly `names`, all finite.

    Raises EvaluationError, so a malformed response fails only the benchmark
    it belongs to instead of turning into a bogus objective value.
    """
    if metrics.keys() != names:
        raise EvaluationError(
            f"benchmark {benchmark!r}: evaluator returned metrics {sorted(metrics)}, "
            f"expected {sorted(names)}"
        )
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise EvaluationError(
                f"benchmark {benchmark!r}: metric {name!r} is {value!r}, not a finite number"
            )


def objective(
    metrics: MetricVector,
    ctx: NormalizationContext,
    benchmark: str,
    weights: WeightVector,
) -> float:
    """F = sum of weight * (value / one-shot maximum) over all metrics."""
    return weighted_sum(ctx.normalize(benchmark, metrics), ctx, benchmark, weights)


def weighted_sum(
    normalized: MetricVector,
    ctx: NormalizationContext,
    benchmark: str,
    weights: WeightVector,
) -> float:
    """F of an already normalized metric vector."""
    total = 0.0
    for name, value in normalized.items():
        w = weights[name]
        if (benchmark, name) in ctx.degenerate and w != 0:
            raise DegenerateMetricError(
                f"metric {name!r} is 0 in every one-shot record for benchmark "
                f"{benchmark!r} but carries weight {w}"
            )
        total += w * value
    return total
