import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import (
    build_context,
    dominates,
    objective,
    pareto,
    pareto_front,
    select_tradeoff,
)
from dsekit.explorer import EvalRecord

from .bruteforce import pairwise_front


def record(seq, power, time, benchmark="b"):
    return EvalRecord(
        benchmark=benchmark,
        phase="oneshot",
        seq=seq,
        config={"i": seq},
        metrics={"power": power, "time": time},
    )


def metric_tuples(dims=2):
    value = st.floats(0, 100, allow_nan=False).map(lambda v: round(v, 2))
    return st.tuples(*[value] * dims)


class TestDominates:
    def test_strictly_better_everywhere(self):
        assert dominates({"power": 1, "time": 1}, {"power": 2, "time": 2})

    def test_better_in_one_equal_in_rest(self):
        assert dominates({"power": 1, "time": 2}, {"power": 2, "time": 2})

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates({"power": 1, "time": 1}, {"power": 1, "time": 1})

    def test_tradeoffs_do_not_dominate(self):
        assert not dominates({"power": 1, "time": 3}, {"power": 2, "time": 2})
        assert not dominates({"power": 2, "time": 2}, {"power": 1, "time": 3})

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates({"power": 1}, {"time": 1})

    @given(metric_tuples(), metric_tuples())
    @settings(max_examples=100, deadline=None)
    def test_antisymmetric(self, a, b):
        ma = {"power": a[0], "time": a[1]}
        mb = {"power": b[0], "time": b[1]}
        assert not (dominates(ma, mb) and dominates(mb, ma))


class TestParetoFront:
    def test_simple_front(self):
        records = [
            record(0, 5.0, 1.0),
            record(1, 1.0, 5.0),
            record(2, 3.0, 3.0),
            record(3, 4.0, 4.0),  # dominated by seq 2
            record(4, 6.0, 2.0),  # dominated by seq 0
        ]
        front = pareto_front(records)
        assert [r.seq for r in front] == [1, 2, 0]
        # sorted ascending by the first metric
        assert [r.metrics["power"] for r in front] == [1.0, 3.0, 5.0]

    def test_duplicates_collapse_to_earliest(self):
        records = [record(0, 2.0, 2.0), record(1, 2.0, 2.0), record(2, 1.0, 3.0)]
        front = pareto_front(records)
        assert [r.seq for r in front] == [2, 0]

    def test_single_point(self):
        front = pareto_front([record(0, 1.0, 1.0)])
        assert [r.seq for r in front] == [0]

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            pareto_front([])

    def test_one_point_dominating_all(self):
        records = [record(0, 3.0, 3.0), record(1, 1.0, 1.0), record(2, 2.0, 5.0)]
        assert [r.seq for r in pareto_front(records)] == [1]

    @given(st.lists(metric_tuples(), min_size=1, max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_matches_pairwise_reference(self, points):
        records = [record(i, p, t) for i, (p, t) in enumerate(points)]
        front = pareto_front(records)
        assert sorted(r.seq for r in front) == pairwise_front(points)

    @given(st.lists(metric_tuples(dims=3), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_matches_pairwise_reference_three_metrics(self, points):
        records = [
            EvalRecord(
                benchmark="b",
                phase="oneshot",
                seq=i,
                config={"i": i},
                metrics={"power": p, "time": t, "area": a},
            )
            for i, (p, t, a) in enumerate(points)
        ]
        front = pareto_front(records)
        assert sorted(r.seq for r in front) == pairwise_front(points)

    @given(st.lists(metric_tuples(), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_no_front_member_is_dominated_and_all_others_are(self, points):
        records = [record(i, p, t) for i, (p, t) in enumerate(points)]
        front = pareto_front(records)
        front_seqs = {r.seq for r in front}
        for a in front:
            assert not any(
                dominates(b.metrics, a.metrics) for b in records if b.seq != a.seq
            )
        for r in records:
            if r.seq in front_seqs:
                continue
            covered = any(
                dominates(f.metrics, r.metrics) or f.metrics == r.metrics
                for f in front
            )
            assert covered

    def test_dominance_checks_are_near_linear(self, monkeypatch):
        checks = 0
        helper = pareto._dominates_tuple

        def counting(a, b):
            nonlocal checks
            checks += 1
            return helper(a, b)

        monkeypatch.setattr(pareto, "_dominates_tuple", counting)
        points = [(float(i), float(100 - i)) for i in range(100)]
        points += [(float(100 + j), 1.5) for j in range(5000)]
        random.Random(11).shuffle(points)
        records = [record(i, p, t) for i, (p, t) in enumerate(points)]
        front = pareto_front(records)
        assert [r.metrics["power"] for r in front] == [float(i) for i in range(100)]
        assert checks <= len(records) + len(front) ** 2

    def test_front_is_invariant_to_log_order(self):
        rng = random.Random(7)
        points = [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(40)]
        records = [record(i, float(p), float(t)) for i, (p, t) in enumerate(points)]
        baseline = [r.seq for r in pareto_front(records)]
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert [r.seq for r in pareto_front(shuffled)] == baseline


class TestSelectTradeoff:
    def test_picks_minimum_objective(self):
        records = [record(0, 5.0, 1.0), record(1, 1.0, 5.0), record(2, 3.0, 3.0)]
        ctx = build_context([("b", r.metrics) for r in records])
        front = pareto_front(records)
        for w in (0.0, 0.1, 0.5, 0.9, 1.0):
            weights = {"power": w, "time": 1.0 - w}
            pick = select_tradeoff(front, ctx, weights)
            best = min(
                objective(r.metrics, ctx, "b", weights) for r in front
            )
            assert objective(pick.metrics, ctx, "b", weights) == best

    def test_extreme_weights_pick_extreme_points(self):
        records = [record(0, 5.0, 1.0), record(1, 1.0, 5.0), record(2, 3.0, 3.0)]
        ctx = build_context([("b", r.metrics) for r in records])
        front = pareto_front(records)
        all_power = select_tradeoff(front, ctx, {"power": 1.0, "time": 0.0})
        assert all_power.metrics["power"] == 1.0
        all_time = select_tradeoff(front, ctx, {"power": 0.0, "time": 1.0})
        assert all_time.metrics["time"] == 1.0

    def test_tie_breaks_on_first_metric(self):
        # both points normalize to F = 1 under equal maxima
        records = [record(0, 4.0, 2.0), record(1, 2.0, 4.0)]
        ctx = build_context([("b", r.metrics) for r in records])
        front = pareto_front(records)
        pick = select_tradeoff(front, ctx, {"power": 0.5, "time": 0.5})
        assert pick.metrics["power"] == 2.0

    def test_empty_front_rejected(self):
        ctx = build_context([("b", {"power": 1.0, "time": 1.0})])
        with pytest.raises(ValueError):
            select_tradeoff([], ctx, {"power": 0.5, "time": 0.5})

    def test_pick_is_on_the_front(self):
        rng = random.Random(3)
        records = [
            record(i, rng.uniform(1, 10), rng.uniform(1, 10)) for i in range(50)
        ]
        ctx = build_context([("b", r.metrics) for r in records])
        front = pareto_front(records)
        pick = select_tradeoff(front, ctx, {"power": 0.3, "time": 0.7})
        assert pick in front
        # the weighted minimum over the whole log lies on the front
        best_all = min(
            objective(r.metrics, ctx, "b", {"power": 0.3, "time": 0.7})
            for r in records
        )
        assert objective(
            pick.metrics, ctx, "b", {"power": 0.3, "time": 0.7}
        ) == pytest.approx(best_all, rel=1e-12)
