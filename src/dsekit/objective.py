"""Weighted-sum objective over normalized minimize-direction metrics.

Each benchmark is normalized on its own: its ``NormalizationContext`` holds
the per-metric maxima of that benchmark's one-shot records, and raw metric
vectors are divided by them. The scalar objective F is the weighted sum of
the normalized components. Lower F is always better — metrics the user wants
to maximize must be supplied as a minimizing proxy (e.g. execution time
rather than throughput). Values observed after the one-shot phase may exceed
the recorded maxima; their normalized components are then > 1, by design.
``check_weights`` refuses a nonzero weight on a degenerate metric once per
context, before any record is scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import DegenerateMetricError, EvaluationError

MetricVector = Mapping[str, float]
WeightVector = Mapping[str, float]

WEIGHT_SUM_TOLERANCE = 1e-9

#: Named weight profiles for the two sample application domains.
WEIGHT_PROFILES: dict[str, dict[str, float]] = {
    "lowpower": {"power": 0.9, "time": 0.1},
    "highperf": {"power": 0.1, "time": 0.9},
}


def validate_weights(weights: WeightVector) -> list[str]:
    """Return all weight-vector violations; empty list means valid.

    Checks each weight lies in [0, 1] and the weights sum to 1 (within
    tolerance). The weights name the metrics, so their keys cannot be wrong.
    """
    violations = []
    for name, w in weights.items():
        if not (0.0 <= w <= 1.0):
            violations.append(f"weight {name!r} = {w} outside [0, 1]")
    total = sum(weights.values())
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        violations.append(f"weights sum to {total}, expected 1")
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
    """One benchmark's per-metric maxima from its one-shot phase.

    A metric whose maximum is 0 across all one-shot records is degenerate:
    its normalized value is defined as 0 and the metric is flagged, so
    ``check_weights`` can refuse to weight it.
    """

    maxima: dict[str, float]
    degenerate: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        self.degenerate = frozenset(name for name, m in self.maxima.items() if m == 0)

    def normalize(self, metrics: MetricVector) -> dict[str, float]:
        """Scale a raw metric vector by the recorded maxima."""
        maxima, degenerate = self.maxima, self.degenerate
        return {
            name: 0.0 if name in degenerate else value / maxima[name]
            for name, value in metrics.items()
        }


def build_context(phase1_metrics: Iterable[MetricVector]) -> NormalizationContext:
    """Collect per-metric maxima from one benchmark's one-shot records."""
    maxima: dict[str, float] = {}
    for metrics in phase1_metrics:
        for name, value in metrics.items():
            if name not in maxima or value > maxima[name]:
                maxima[name] = value
    if not maxima:
        raise ValueError("no one-shot records to build a normalization context")
    return NormalizationContext(maxima)


def check_weights(benchmark: str, ctx: NormalizationContext, weights: WeightVector) -> None:
    """Refuse a nonzero weight on a degenerate metric; fails only `benchmark`."""
    for name in ctx.maxima:
        if name in ctx.degenerate and weights[name] != 0:
            raise DegenerateMetricError(
                f"metric {name!r} is 0 in every one-shot record for benchmark "
                f"{benchmark!r} but carries weight {weights[name]}"
            )


def is_metric_value(value: object) -> bool:
    """Whether `value` can be a metric: an int or a float, not a bool, and
    finite, which an int beyond the range of a float is not. Never raises."""
    if type(value) is float:  # the common case, checked first
        return math.isfinite(value)
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def check_metrics(benchmark: str, metrics: dict[str, float], names: list[str]) -> dict[str, float]:
    """The evaluator response `metrics` in the order of `names`, the weights'
    metric names, once it is checked to hold exactly those, all finite.

    A response already in that order is returned as it is, so ordering costs
    nothing unless a backend answers in another order. Raises
    EvaluationError, so a malformed response fails only the benchmark it
    belongs to instead of turning into a bogus objective value.
    """
    if list(metrics) != names:
        if metrics.keys() != set(names):
            raise EvaluationError(
                f"benchmark {benchmark!r}: evaluator returned metrics {sorted(metrics)}, "
                f"expected {sorted(names)}"
            )
        metrics = {name: metrics[name] for name in names}
    for name, value in metrics.items():
        if not is_metric_value(value):
            raise EvaluationError(
                f"benchmark {benchmark!r}: metric {name!r} is {value!r}, not a finite number"
            )
    return metrics


def objective(
    metrics: MetricVector,
    ctx: NormalizationContext,
    weights: WeightVector,
) -> float:
    """F = sum of weight * (value / one-shot maximum) over all metrics."""
    return weighted_sum(ctx.normalize(metrics), weights)


def weighted_sum(normalized: MetricVector, weights: WeightVector) -> float:
    """F of an already normalized metric vector."""
    total = 0.0
    for name, value in normalized.items():
        total += weights[name] * value
    return total
