"""Dominance filtering of evaluated points and weighted trade-off selection.

All metrics are minimize-direction, so a point dominates another when it is
componentwise <= and strictly better somewhere. Fronts are computed on raw
metric values — dominance is scale-free — while the trade-off choice uses
the benchmark's normalization context and the weights: for a weighted-sum
objective, the front member with minimum F is exactly the first contact
point of the objective line swept across the front.
"""

from __future__ import annotations

from typing import Sequence

from .design_space import values_getter
from .explorer import EvalRecord
from .objective import NormalizationContext, WeightVector, objective


def pareto_front(records: Sequence[EvalRecord]) -> list[EvalRecord]:
    """Non-dominated subset of one benchmark's log, on raw metrics.

    Records with identical metric vectors collapse to the earliest log entry.
    The records of a run carry their metrics in the weights' order, so the
    result is sorted ascending by the weights' first metric (the full metric
    tuple as tie-breaker); one getter reads each key by the first record's names.
    """
    if not records:
        raise ValueError("empty evaluation log")
    values = values_getter(list(records[0].metrics))

    earliest: dict[tuple, EvalRecord] = {}
    for record in records:
        key = values(record.metrics)
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
        for kept, _ in reversed(front):
            if _dominates_tuple(kept, key):
                break
        else:
            front.append((key, earliest[key]))
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
    """Front member minimizing the objective; ties go to the lowest value of
    the weights' first metric."""
    if not front:
        raise ValueError("empty Pareto front")
    first = next(iter(weights))

    def rank(record: EvalRecord) -> tuple[float, float]:
        value = objective(record.metrics, ctx, weights)
        return (value, record.metrics[first])

    return min(front, key=rank)
