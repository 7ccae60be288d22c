"""Dominance filtering of evaluated points and weighted trade-off selection.

All metrics are minimize-direction, so a point dominates another when it is
componentwise <= and strictly better somewhere. Fronts are computed on raw
metric values — dominance is scale-free — while the trade-off choice uses
the run's normalization context and weights: for a weighted-sum objective,
the front member with minimum F is exactly the first contact point of the
objective line swept across the front.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .explorer import EvalRecord
from .objective import NormalizationContext, WeightVector, objective


def dominates(a: Mapping[str, float], b: Mapping[str, float]) -> bool:
    """True iff a is componentwise <= b with at least one strict <."""
    if set(a) != set(b):
        raise ValueError(f"metric key sets differ: {sorted(a)} vs {sorted(b)}")
    strict = False
    for name, value in a.items():
        other = b[name]
        if value > other:
            return False
        if value < other:
            strict = True
    return strict


def pareto_front(records: Sequence[EvalRecord]) -> list[EvalRecord]:
    """Non-dominated subset of one benchmark's log, on raw metrics.

    Records with identical metric vectors collapse to the earliest log entry.
    The result is sorted ascending by the first metric (full metric tuple,
    then sequence number, as tie-breakers).
    """
    if not records:
        raise ValueError("empty evaluation log")
    metric_names = list(records[0].metrics)

    earliest: dict[tuple, EvalRecord] = {}
    for record in records:
        key = tuple(record.metrics[name] for name in metric_names)
        if key not in earliest or record.seq < earliest[key].seq:
            earliest[key] = record

    # In lexicographic order any dominator precedes what it dominates, so a
    # single pass checking only against already-accepted members is exact,
    # whatever order those members are checked in. Newest-first makes the
    # pass near-linear: with two metrics the kept front is a staircase whose
    # second metric strictly falls, so its newest member dominates every
    # dominated key and one check rejects it. Only accepted keys scan the
    # whole front, which bounds the total at n + |front|^2 checks.
    front: list[tuple[tuple, EvalRecord]] = []
    for key in sorted(earliest):
        record = earliest[key]
        if not any(_dominates_tuple(kept, key) for kept, _ in reversed(front)):
            front.append((key, record))
    front.sort(key=lambda item: (item[0], item[1].seq))
    return [record for _, record in front]


def _dominates_tuple(a: tuple, b: tuple) -> bool:
    strict = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            strict = True
    return strict


def select_tradeoff(
    front: Sequence[EvalRecord],
    ctx: NormalizationContext,
    weights: WeightVector,
) -> EvalRecord:
    """Front member minimizing the objective; ties go to the lowest first metric."""
    if not front:
        raise ValueError("empty Pareto front")
    metric_names = list(front[0].metrics)
    first = metric_names[0]

    def rank(record: EvalRecord) -> tuple[float, float]:
        value = objective(record.metrics, ctx, record.benchmark, weights)
        return (value, record.metrics[first])

    return min(front, key=rank)
