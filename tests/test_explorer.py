import ast
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import (
    CachedEvaluator,
    DegenerateMetricError,
    EvaluationError,
    SepMonoEvaluator,
    make_space,
    oracle_search,
    partition,
    run,
)
from dsekit.explorer import (
    PHASE_EXHAUSTIVE,
    PHASE_GREEDY,
    PHASE_ONESHOT,
    _search,
    _Session,
    map_ordered,
)

from .bruteforce import (
    argmin_config,
    oneshot_maxima,
    sepmono_metrics,
    weighted_objective,
)
from .conftest import TINY_PARAMS, TINY_WEIGHTS, TinyEvaluator, tiny_metrics

TINY_D_A = -0.554895104895105
TINY_D_B = -0.025524475524475565
TINY_BEST_F = 0.3513986013986014


class Additive:
    """Metric m is the sum of one table lookup per parameter setting."""

    def __init__(self, **tables):
        self.tables = tables

    def evaluate(self, config, benchmark):
        return {"m": float(sum(self.tables[name][v] for name, v in config.items()))}


class RequestLog(CachedEvaluator):
    """The run's cache, also logging every request of the search in order."""

    def __init__(self, inner):
        super().__init__(inner)
        self.log = []

    def evaluate(self, config, benchmark):
        self.log.append(dict(config))
        return super().evaluate(config, benchmark)


def phase_configs(bench, phase):
    return [r.config for r in bench.records if r.phase == phase]


class TestMapOrdered:
    def test_serial_path(self):
        assert list(map_ordered(lambda x: x + 1, range(5))) == [1, 2, 3, 4, 5]

    def test_lazy_consumption(self):
        def generator():
            yield from range(3)
            raise RuntimeError("must not be reached")

        stream = map_ordered(lambda x: x, generator())
        assert next(stream) == 0


class TestOneShot:
    def test_tiny_significance_and_best(self, tiny_space, tiny_evaluator):
        # threshold 2 leaves the exhaustive set empty, so phase 3 evaluates
        # exactly the one-shot best configuration
        bench = run(tiny_space, tiny_evaluator, TINY_WEIGHTS, 2).benchmarks["t"]
        assert bench.significance["A"] == pytest.approx(TINY_D_A, rel=1e-12)
        assert bench.significance["B"] == pytest.approx(TINY_D_B, rel=1e-12)
        assert phase_configs(bench, PHASE_EXHAUSTIVE) == [{"A": 4, "B": 200}]
        assert bench.normalization.maxima == {"power": 2.2, "time": 26.0}

    def test_tiny_records(self, tiny_space, tiny_evaluator):
        bench = run(tiny_space, tiny_evaluator, TINY_WEIGHTS, 3).benchmarks["t"]
        records = bench.records[:3]
        assert [r.config for r in records] == [
            {"A": 1, "B": 100},
            {"A": 4, "B": 100},
            {"A": 1, "B": 200},
        ]
        assert [r.phase for r in records] == [PHASE_ONESHOT] * 3
        assert phase_configs(bench, PHASE_ONESHOT) == [r.config for r in records]
        assert [r.seq for r in records] == [0, 1, 2]
        # phase-1 records are scored once the context exists
        assert all(r.normalized is not None for r in records)
        assert records[0].objective == pytest.approx(0.1 * (0.7 / 2.2) + 0.9 * 1.0)

    def test_positive_significance_keeps_first_setting(self):
        # C is the most significant and the only exhaustive parameter, so
        # phase 3 holds A at its one-shot best setting
        space = make_space([("A", [1, 2]), ("C", [1, 2, 3])], ["b"])
        ev = Additive(A={1: 1.0, 2: 9.0}, C={1: 30.0, 2: 20.0, 3: 10.0})
        bench = run(space, ev, {"m": 1.0}, 3).benchmarks["b"]
        assert bench.significance["A"] > 0
        assert bench.partition.exhaustive == ("C",)
        assert phase_configs(bench, PHASE_EXHAUSTIVE) == [{"A": 1, "C": 2}]

    def test_zero_significance_takes_last_setting(self):
        space = make_space([("A", [1, 2]), ("C", [1, 2, 3])], ["b"])
        ev = Additive(A={1: 3.0, 2: 3.0}, C={1: 30.0, 2: 20.0, 3: 10.0})
        bench = run(space, ev, {"m": 1.0}, 3).benchmarks["b"]
        assert bench.significance["A"] == 0.0
        assert bench.partition.exhaustive == ("C",)
        assert phase_configs(bench, PHASE_EXHAUSTIVE) == [{"A": 2, "C": 2}, {"A": 2, "C": 3}]

    def test_single_setting_parameters_are_not_scored(self, tiny_evaluator):
        space = make_space([("A", [1, 2, 4]), ("S", [9]), ("B", [100, 200])], ["t"])
        bench = run(space, tiny_evaluator, TINY_WEIGHTS, 3).benchmarks["t"]
        assert set(bench.significance) == {"A", "B"}
        assert all(r.config["S"] == 9 for r in bench.records)
        assert len(phase_configs(bench, PHASE_ONESHOT)) == 3

    def test_invalid_weights_rejected(self, tiny_evaluator):
        # The weights name the metrics: a response carrying others fails its
        # benchmark, every benchmark here, and nothing malformed is logged.
        space = make_space(TINY_PARAMS, ["t", "u"])
        result = run(space, tiny_evaluator, {"power": 1.0}, 3)
        assert [b for b, r in result.benchmarks.items() if r.error is not None] == ["t", "u"]
        for bench in result.benchmarks.values():
            assert "returned metrics ['power', 'time'], expected ['power']" in bench.error
            assert bench.records == []

    @pytest.mark.parametrize(
        "weights",
        [{"power": 1.5, "time": -0.5}, {"power": 0.5, "time": 0.6}],
        ids=["out-of-range", "bad-sum"],
    )
    def test_weight_values_rejected_before_any_evaluation(self, tiny_space, tiny_evaluator, weights):
        with pytest.raises(ValueError, match="invalid weights"):
            run(tiny_space, tiny_evaluator, weights, 3)
        assert tiny_evaluator.calls == 0

    def test_maxima_come_only_from_oneshot_records(self, tiny_space, tiny_evaluator):
        bench = run(tiny_space, tiny_evaluator, TINY_WEIGHTS, 3).benchmarks["t"]
        want = oneshot_maxima(
            [(1, 2, 4), (100, 200)],
            lambda cfg: tiny_evaluator.evaluate({"A": cfg[0], "B": cfg[1]}, "t"),
        )
        assert bench.normalization.maxima == want


class TestPartition:
    def test_tiny_threshold_three(self, tiny_space):
        part = partition({"A": TINY_D_A, "B": TINY_D_B}, tiny_space, threshold=3)
        assert part.exhaustive == ("A",)
        assert part.greedy == ("B",)
        assert part.oneshot == ()
        assert part.num_exhaustive == 3
        assert part.warnings == ()

    def test_everything_fits(self, tiny_space):
        part = partition({"A": TINY_D_A, "B": TINY_D_B}, tiny_space, threshold=6)
        assert part.exhaustive == ("A", "B")
        assert part.greedy == ()
        assert part.num_exhaustive == 6

    def test_nothing_fits_warns(self, tiny_space):
        part = partition({"A": TINY_D_A, "B": TINY_D_B}, tiny_space, threshold=2)
        assert part.exhaustive == ()
        assert part.num_exhaustive == 1
        assert part.greedy == ("A",)
        assert part.oneshot == ("B",)
        assert len(part.warnings) == 1
        assert "threshold 2" in part.warnings[0]

    def test_first_rejection_stops_even_if_later_fits(self):
        # sizes in significance order: 3, 4, 2 with T = 6: 3 fits, 3*4 > 6
        # stops the scan, so the 2-setting parameter is NOT admitted.
        space = make_space([("a", [1, 2, 3]), ("b", [1, 2, 3, 4]), ("c", [1, 2])], ["x"])
        part = partition({"a": -3.0, "b": -2.0, "c": -1.0}, space, threshold=6)
        assert part.exhaustive == ("a",)
        assert part.num_exhaustive == 3
        assert part.greedy == ("b",)
        assert part.oneshot == ("c",)

    def test_ties_keep_declaration_order(self):
        space = make_space([("a", [1, 2]), ("b", [1, 2]), ("c", [1, 2])], ["x"])
        part = partition({"c": 1.0, "a": -1.0, "b": 1.0}, space, threshold=4)
        assert part.exhaustive == ("a", "b")
        assert part.greedy == ("c",)

    def test_threshold_must_be_positive(self, tiny_space):
        with pytest.raises(ValueError):
            partition({"A": 1.0, "B": 1.0}, tiny_space, threshold=0)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_partition_invariants(self, data):
        n = data.draw(st.integers(1, 6))
        sizes = [data.draw(st.integers(2, 6)) for _ in range(n)]
        space = make_space(
            [(f"p{i}", list(range(s))) for i, s in enumerate(sizes)], ["x"]
        )
        significance = {
            f"p{i}": data.draw(
                st.floats(-10, 10, allow_nan=False).map(lambda v: round(v, 2))
            )
            for i in range(n)
        }
        threshold = data.draw(st.integers(1, 100))
        part = partition(significance, space, threshold)

        members = part.exhaustive + part.greedy + part.oneshot
        # disjoint cover of the scored parameters
        assert sorted(members) == sorted(significance)
        # ordering: |D| descending with declaration-order ties, globally
        order = {name: i for i, name in enumerate(space.names)}
        keys = [(-abs(significance[p]), order[p]) for p in members]
        assert keys == sorted(keys)
        # budget: the product fits, and the next candidate would not have fit
        product = 1
        for name in part.exhaustive:
            product *= len(space.parameter(name))
        assert product == part.num_exhaustive
        assert product <= threshold
        if part.greedy or part.oneshot:
            rest = part.greedy + part.oneshot
            assert product * len(space.parameter(rest[0])) > threshold
        # greedy takes the ceiling half of whatever the cap rejected
        remaining = len(members) - len(part.exhaustive)
        assert len(part.greedy) == math.ceil(remaining / 2)


class TestExhaustivePhase:
    def test_scans_only_the_exhaustive_set(self, tiny_space, tiny_evaluator):
        cache = RequestLog(tiny_evaluator)
        bench = run(tiny_space, cache, TINY_WEIGHTS, 3).benchmarks["t"]
        assert bench.partition.exhaustive == ("A",)
        # A varies over all its settings, B is held at its one-shot best
        assert cache.log[3:6] == [{"A": a, "B": 200} for a in (1, 2, 4)]
        assert phase_configs(bench, PHASE_EXHAUSTIVE) == [
            {"A": 2, "B": 200},
            {"A": 4, "B": 200},
        ]
        assert bench.best_config == {"A": 4, "B": 200}
        assert bench.objective == pytest.approx(TINY_BEST_F, rel=1e-12)

    def test_empty_set_evaluates_current_best_once(self, tiny_space, tiny_evaluator):
        cache = RequestLog(tiny_evaluator)
        bench = run(tiny_space, cache, TINY_WEIGHTS, 2).benchmarks["t"]
        assert bench.partition.exhaustive == ()
        # one request between the one-shot batch and the greedy walk
        assert cache.log[3] == {"A": 4, "B": 200}
        (record,) = [r for r in bench.records if r.phase == PHASE_EXHAUSTIVE]
        assert record.config == {"A": 4, "B": 200}
        assert bench.best_config == record.config
        assert bench.objective == record.objective

    def test_tie_keeps_earliest_candidate(self):
        space = make_space([("A", [1, 2, 3])], ["b"])
        flat = Additive(A={1: 4.0, 2: 4.0, 3: 4.0})
        bench = run(space, flat, {"m": 1.0}, 3).benchmarks["b"]
        assert bench.partition.exhaustive == ("A",)
        assert bench.partition.greedy == ()
        assert bench.best_config == {"A": 1}
        assert bench.objective == 1.0

    def test_greedy_walk_starts_from_the_minimum(self):
        # A's minimum is its middle setting, neither its first, last nor worst;
        # the answer alone cannot show the phase's winner, since the logged
        # minimum would replace a worse one, but the greedy walk starts there.
        space = make_space([("A", [1, 2, 3]), ("C", [1, 2, 3])], ["b"])
        cache = RequestLog(Additive(A={1: 5.0, 2: 1.0, 3: 9.0}, C={1: 0.0, 2: 0.5, 3: 1.0}))
        bench = run(space, cache, {"m": 1.0}, 3).benchmarks["b"]
        assert bench.partition.exhaustive == ("A",)
        assert bench.partition.greedy == ("C",)
        # 3 one-shot requests, 3 exhaustive ones; C walks up from B_C = 1
        assert cache.log[3:6] == [{"A": a, "C": 1} for a in (1, 2, 3)]
        assert cache.log[6:] == [{"A": 2, "C": 1}, {"A": 2, "C": 2}]
        assert bench.best_config == {"A": 2, "C": 1}


class TestGreedyPhase:
    def run_greedy(self, table):
        """Threshold 1 on one parameter: 2 one-shot requests, 1 exhaustive
        request of the one-shot best, then the greedy walk."""
        space = make_space([("A", sorted(table))], ["b"])
        cache = RequestLog(Additive(A=table))
        bench = run(space, cache, {"m": 1.0}, 1).benchmarks["b"]
        assert bench.partition.greedy == ("A",)
        walk = [config["A"] for config in cache.log[3:]]
        return bench, walk

    def test_negative_significance_walks_downward(self):
        table = {10: 9.0, 20: 3.0, 30: 5.0, 40: 7.0}
        bench, walk = self.run_greedy(table)
        assert bench.significance["A"] < 0
        # walk 40, 30, 20 improves each step; 10 fails and stops the walk
        assert walk == [40, 30, 20, 10]
        assert [c["A"] for c in phase_configs(bench, PHASE_GREEDY)] == [30, 20]
        assert bench.best_config == {"A": 20}
        assert bench.objective == pytest.approx(3.0 / 9.0)

    def test_positive_significance_walks_upward(self):
        table = {10: 3.0, 20: 5.0, 30: 7.0, 40: 9.0}
        bench, walk = self.run_greedy(table)
        assert bench.significance["A"] > 0
        # first step improves on nothing-yet, second fails immediately
        assert walk == [10, 20]
        assert bench.best_config == {"A": 10}

    def test_stops_at_first_non_improvement_even_when_better_exists(self):
        table = {10: 5.0, 20: 1.0, 30: 6.0, 40: 2.0}
        bench, walk = self.run_greedy(table)
        # D < 0: walk starts at 40 (2.0), then 30 (6.0) stops the walk,
        # leaving the global optimum at 20 undiscovered.
        assert walk == [40, 30]
        assert bench.best_config == {"A": 40}

    def test_tie_stops_the_walk(self):
        table = {10: 9.0, 20: 1.0, 30: 4.0, 40: 4.0}
        bench, walk = self.run_greedy(table)
        assert walk == [40, 30]
        assert bench.best_config == {"A": 40}

    def test_an_earlier_logged_tie_keeps_the_phase_winner(self):
        # D = 0 starts the walk at 40, which ties the one-shot record of 10,
        # logged first; the answer is the phase winner, not the first minimum.
        table = {10: 4.0, 20: 9.0, 30: 9.0, 40: 4.0}
        bench, walk = self.run_greedy(table)
        assert walk == [40, 30]
        first = bench.records[0]
        assert first.config == {"A": 10} and first.objective == bench.objective
        assert bench.best_config == {"A": 40}

    def test_later_walks_start_from_earlier_moves(self):
        space = make_space([("A", [1, 2, 3]), ("C", [1, 2, 3]), ("E", [1, 2, 3])], ["b"])
        ev = Additive(
            A={1: 9.0, 2: 1.0, 3: 6.0},
            C={1: 6.0, 2: 0.0, 3: 2.0},
            E={1: 0.0, 2: 0.5, 3: 1.0},
        )
        cache = RequestLog(ev)
        bench = run(space, cache, {"m": 1.0}, 1).benchmarks["b"]
        assert bench.partition.greedy == ("C", "A")
        # 4 one-shot requests, 1 exhaustive; C walks down from 3 and moves
        # to 2, then A's walk holds C at 2 and stops at its first candidate
        assert cache.log[5:] == [
            {"A": 3, "C": 3, "E": 1},
            {"A": 3, "C": 2, "E": 1},
            {"A": 3, "C": 1, "E": 1},
            {"A": 3, "C": 2, "E": 1},
        ]
        assert bench.best_config == {"A": 3, "C": 2, "E": 1}
        assert bench.objective == pytest.approx(6.0 / 16.0)

    def test_zero_significance_walk_starts_at_its_endpoint(self):
        # D_C = 0 makes B_C the last setting, so C's walk must start there
        # and descend; ascending would accept m(1,0) = 6 unchecked.
        class Table:
            def evaluate(self, config, benchmark):
                a, c = config["A"], config["C"]
                return {"m": 3.0 if a == 2 else 1.0 if (a, c) == (1, 2) else 6.0}

        space = make_space([("A", [0, 1, 2]), ("C", [0, 1, 2])], ["b"])
        cache = RequestLog(Table())
        bench = run(space, cache, {"m": 1.0}, 3).benchmarks["b"]
        assert bench.significance["C"] == 0.0
        assert bench.partition.exhaustive == ("A",)
        assert bench.partition.greedy == ("C",)
        assert [c["A"] for c in phase_configs(bench, PHASE_EXHAUSTIVE)] == [1, 2]
        assert cache.log[6:] == [{"A": 1, "C": 2}, {"A": 1, "C": 1}]
        assert bench.best_config == {"A": 1, "C": 2}
        assert bench.objective == pytest.approx(1.0 / 6.0)

    def test_walk_holds_other_parameters_at_best(self, tiny_space, tiny_evaluator):
        cache = RequestLog(tiny_evaluator)
        bench = run(tiny_space, cache, TINY_WEIGHTS, 1).benchmarks["t"]
        assert bench.partition.greedy == ("A",)
        assert bench.partition.oneshot == ("B",)
        # with threshold 1 nothing is exhaustive; greedy walks A from 4 down
        assert cache.log[4:] == [{"A": 4, "B": 200}, {"A": 2, "B": 200}]
        assert bench.best_config == {"A": 4, "B": 200}
        assert bench.objective == pytest.approx(TINY_BEST_F, rel=1e-12)


class TestRunTiny:
    def test_golden_trace(self, tiny_space, tiny_evaluator):
        result = run(tiny_space, tiny_evaluator, TINY_WEIGHTS, threshold=3)
        bench = result.benchmarks["t"]
        assert bench.error is None
        assert bench.best_config == {"A": 4, "B": 200}
        assert bench.objective == pytest.approx(TINY_BEST_F, rel=1e-12)
        assert bench.best_metrics == {"power": 2.4, "time": 7.0}
        assert bench.significance["A"] == pytest.approx(TINY_D_A, rel=1e-12)
        assert bench.significance["B"] == pytest.approx(TINY_D_B, rel=1e-12)
        assert bench.partition.exhaustive == ("A",)
        assert bench.partition.greedy == ("B",)
        assert bench.normalization.maxima == {"power": 2.2, "time": 26.0}
        assert bench.normalization.degenerate == set()
        assert bench.unique_evaluations == 5
        # 3 one-shot + 3 exhaustive + 2 greedy requests; duplicates memoized
        assert bench.total_requests == 8
        assert tiny_evaluator.calls == 5

    def test_log_is_first_request_per_config(self, tiny_space, tiny_evaluator):
        result = run(tiny_space, tiny_evaluator, TINY_WEIGHTS, threshold=3)
        records = result.benchmarks["t"].records
        assert [(r.phase, tuple(r.config.values())) for r in records] == [
            (PHASE_ONESHOT, (1, 100)),
            (PHASE_ONESHOT, (4, 100)),
            (PHASE_ONESHOT, (1, 200)),
            (PHASE_EXHAUSTIVE, (2, 200)),
            (PHASE_EXHAUSTIVE, (4, 200)),
        ]
        assert [r.seq for r in records] == [0, 1, 2, 3, 4]
        assert all(r.objective is not None for r in records)

    def test_greedy_skipped_when_everything_exhaustive(self, tiny_space, tiny_evaluator):
        result = run(tiny_space, tiny_evaluator, TINY_WEIGHTS, threshold=6)
        bench = result.benchmarks["t"]
        assert bench.partition.greedy == ()
        assert bench.best_config == {"A": 4, "B": 200}
        assert bench.objective == pytest.approx(TINY_BEST_F, rel=1e-12)
        assert all(r.phase != PHASE_GREEDY for r in bench.records)

    def test_determinism(self, tiny_space):
        results = [
            run(tiny_space, CachedEvaluator(SepMonoEvaluator(tiny_space)), TINY_WEIGHTS, 3)
            for _ in range(2)
        ]
        traces = [
            [
                (r.benchmark, r.phase, r.seq, tuple(r.config.items()), r.objective)
                for bench in result.benchmarks.values()
                for r in bench.records
            ]
            for result in results
        ]
        assert traces[0] == traces[1]

    def test_rejects_invalid_inputs(self, tiny_space, tiny_evaluator):
        with pytest.raises(ValueError, match="invalid space"):
            run(make_space([], []), tiny_evaluator, TINY_WEIGHTS, 3)
        with pytest.raises(ValueError, match="threshold"):
            run(tiny_space, tiny_evaluator, TINY_WEIGHTS, 0)


class Corrupt:
    """The tiny model, except one response of benchmark t is corrupted."""

    def __init__(self, at, corrupt):
        self.at = at
        self.corrupt = corrupt

    def evaluate(self, config, benchmark):
        metrics = tiny_metrics(config["A"], config["B"])
        if benchmark == "t" and (config["A"], config["B"]) == self.at:
            return self.corrupt(metrics)
        return metrics


class TestRunIsolation:
    @pytest.mark.parametrize(
        "at, corrupt",
        [
            ((2, 200), lambda m: {**m, "energy": 1.0}),
            ((2, 200), lambda m: {"power": m["power"]}),
            ((4, 100), lambda m: {"power": m["power"]}),
            ((1, 100), lambda m: {**m, "time": math.nan}),
        ],
        ids=["extra-key", "missing-key", "missing-key-oneshot", "nan-base"],
    )
    def test_malformed_response_fails_only_its_benchmark(self, tiny_space, at, corrupt):
        result = run(tiny_space, Corrupt(at, corrupt), TINY_WEIGHTS, 3, benchmarks=["t", "u"])
        assert [b for b, r in result.benchmarks.items() if r.error is not None] == ["t"]
        assert result.benchmarks["t"].objective is None
        assert "benchmark 't'" in result.benchmarks["t"].error
        good = result.benchmarks["u"]
        assert good.error is None
        assert good.best_config == {"A": 4, "B": 200}

    def test_lone_oneshot_response_fails_only_its_benchmark(self):
        # Single-setting parameters: the one-shot phase is one response.
        space = make_space([("A", [1]), ("B", [100])], ["t", "u"])
        corrupt = Corrupt((1, 100), lambda m: {"power": m["power"]})
        result = run(space, corrupt, TINY_WEIGHTS, 3)
        assert [b for b, r in result.benchmarks.items() if r.error is not None] == ["t"]
        assert "returned metrics ['power'], expected ['power', 'time']" in result.benchmarks["t"].error
        assert result.benchmarks["t"].records == []
        good = result.benchmarks["u"]
        assert good.error is None
        assert good.best_config == {"A": 1, "B": 100}

    def test_failing_benchmark_does_not_poison_the_rest(self, tiny_space, tiny_evaluator):
        class Partial:
            def evaluate(self, config, benchmark):
                if benchmark == "bad":
                    raise EvaluationError("simulator crashed")
                return tiny_evaluator.evaluate(config, benchmark)

        result = run(tiny_space, Partial(), TINY_WEIGHTS, 3, benchmarks=["bad", "t"])
        assert [b for b, r in result.benchmarks.items() if r.error is not None] == ["bad"]
        bad = result.benchmarks["bad"]
        assert bad.error == "simulator crashed"
        assert bad.best_config is None
        assert bad.objective is None
        good = result.benchmarks["t"]
        assert good.error is None
        assert good.best_config == {"A": 4, "B": 200}

    def test_weighted_degenerate_metric_fails_the_benchmark(self, tiny_space):
        class ZeroPower:
            def evaluate(self, config, benchmark):
                return {"power": 0.0, "time": 24.0 / config["A"] + 200.0 / config["B"]}

        result = run(tiny_space, ZeroPower(), TINY_WEIGHTS, 3)
        bench = result.benchmarks["t"]
        assert bench.error is not None
        assert "power" in bench.error
        assert bench.normalization.degenerate == {"power"}
        # the one-shot records are logged, none of them normalized or scored
        assert [(r.normalized, r.objective) for r in bench.records] == [(None, None)] * 3

    def test_zero_weight_tolerates_degenerate_metric(self, tiny_space):
        class ZeroPower:
            def evaluate(self, config, benchmark):
                return {"power": 0.0, "time": 24.0 / config["A"] + 200.0 / config["B"]}

        result = run(tiny_space, ZeroPower(), {"power": 0.0, "time": 1.0}, 3)
        bench = result.benchmarks["t"]
        assert bench.error is None
        assert bench.best_config == {"A": 4, "B": 200}


    def test_weighted_negative_metric_fails_the_benchmark(self):
        # power is below 0 everywhere; divided by its one-shot maximum, -1.1,
        # its order would turn round and A=1 B=10 (-1.1) would beat A=3 B=20 (-3.2)
        space = make_space([("A", [1, 2, 3]), ("B", [10, 20])], ["t"])
        table = {("t", (a, b)): {"power": -(a + b / 100), "time": float(a + b)} for a in (1, 2, 3) for b in (10, 20)}
        backend = Lookup(space, table)
        bench = run(space, backend, {"power": 1.0, "time": 0.0}, 3).benchmarks["t"]
        assert bench.error == (
            "metric 'power' is at most -1.1 in each one-shot record for benchmark 't' but carries weight 1.0"
        )
        assert bench.best_config is None
        assert bench.normalization.maxima["power"] == -1.1
        with pytest.raises(DegenerateMetricError, match="'power' is at most -1.1"):
            oracle_search(space, "t", backend, {"power": 1.0, "time": 0.0}, bench.normalization)
        # weight 0 on it leaves the benchmark to the other metric
        bench = run(space, backend, {"power": 0.0, "time": 1.0}, 3).benchmarks["t"]
        assert bench.error is None
        assert bench.best_config == {"A": 1, "B": 10}


class TestSearchDriver:
    def test_search_runs_without_a_backend(self, tiny_space):
        session = _Session(tiny_space, "t", TINY_WEIGHTS)
        search = _search(session, 3)
        batches = []
        records = None
        while True:
            try:
                phase, configs = search.send(records)
            except StopIteration as done:
                answer = done.value
                break
            configs = list(configs)
            batches.append((phase, len(configs)))
            records = [session.record(c, tiny_metrics(c["A"], c["B"]), phase) for c in configs]
        assert session.partition.num_exhaustive == 3
        assert batches == [(PHASE_ONESHOT, 3), (PHASE_EXHAUSTIVE, 3), (PHASE_GREEDY, 1), (PHASE_GREEDY, 1)]
        assert session.result(answer) == run(tiny_space, TinyEvaluator(), TINY_WEIGHTS, 3).benchmarks["t"]

    @pytest.mark.parametrize("at", [1, 4, 7], ids=["oneshot", "exhaustive", "greedy"])
    def test_backend_stop_iteration_is_raised(self, tiny_space, at):
        # the backend's StopIteration must not read as the end of the search
        class StopsAt(RequestLog):
            def evaluate(self, config, benchmark):
                if len(self.log) + 1 == at:
                    raise StopIteration
                return super().evaluate(config, benchmark)

        with pytest.raises(StopIteration):
            run(tiny_space, StopsAt(TinyEvaluator()), TINY_WEIGHTS, 3)


def backend_calls(node, function=None):
    """The innermost function around each call of ``<x>.evaluate`` or
    ``look_ahead`` under ``node``."""
    if isinstance(node, ast.FunctionDef):
        function = node.name
    if isinstance(node, ast.Call):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "evaluate") or (
            isinstance(func, ast.Name) and func.id == "look_ahead"
        ):
            yield function
    for child in ast.iter_child_nodes(node):
        yield from backend_calls(child, function)


def test_only_run_calls_the_backend():
    """The phases yield their requests; ``run``'s loop alone sends them."""
    source = Path(__file__).parents[1] / "src" / "dsekit" / "explorer.py"
    assert set(backend_calls(ast.parse(source.read_text(encoding="utf-8")))) == {"run"}


class TestRunFindsSeparableOptimum:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_independent_argmin(self, data):
        n = data.draw(st.integers(1, 4))
        sizes = [data.draw(st.integers(1, 4)) for _ in range(n)]
        if all(s == 1 for s in sizes):
            sizes[data.draw(st.integers(0, n - 1))] = 2
        settings_lists = [list(range(s)) for s in sizes]
        space = make_space(
            [(f"p{i}", s) for i, s in enumerate(settings_lists)], ["b"]
        )
        w = data.draw(
            st.floats(0.0, 1.0, allow_nan=False).filter(lambda v: v == 0 or v > 1e-6)
        )
        weights = {"power": w, "time": 1.0 - w}
        threshold = data.draw(st.integers(1, 300))

        result = run(space, SepMonoEvaluator(space), weights, threshold)
        bench = result.benchmarks["b"]
        assert bench.error is None

        def evaluate(cfg):
            return sepmono_metrics(settings_lists, cfg)

        maxima = oneshot_maxima(settings_lists, evaluate)
        best_cfg, best_value = argmin_config(settings_lists, evaluate, weights, maxima)
        assert bench.objective == pytest.approx(best_value, rel=1e-12, abs=1e-15)
        found = tuple(bench.best_config[f"p{i}"] for i in range(n))
        found_value = weighted_objective(evaluate(found), weights, maxima)
        assert found_value == pytest.approx(best_value, rel=1e-12, abs=1e-15)
        # when the optimum is clearly unique, the configuration must match too
        values = sorted(
            weighted_objective(evaluate(cfg), weights, maxima)
            for cfg in itertools.product(*settings_lists)
        )
        if len(values) == 1 or values[1] - values[0] > 1e-9:
            assert found == best_cfg


class Lookup:
    """Metrics replayed from a drawn table keyed by (benchmark, config values)."""

    def __init__(self, space, table):
        self.space = space
        self.table = table
        self.calls = 0

    def evaluate(self, config, benchmark):
        self.calls += 1
        return dict(self.table[benchmark, self.space.config_key(config)])


class Faulty(Lookup):
    """The table, except backend call number ``at`` gets one fault."""

    def __init__(self, space, table, at, fault):
        super().__init__(space, table)
        self.at = at
        self.fault = fault
        self.faulted = None  # the benchmark the fault hit

    def evaluate(self, config, benchmark):
        metrics = super().evaluate(config, benchmark)
        if self.calls - 1 == self.at:
            self.faulted = benchmark
            if self.fault == "raise":
                raise EvaluationError("injected failure")
            if self.fault == "nan":
                metrics["time"] = math.nan
            else:
                del metrics[self.fault.removeprefix("drop-")]
        return metrics


def draw_search(data):
    """A small space over two benchmarks, a metric table, weights and T.

    Metric values are small integers, so the table has many exact ties.
    """
    n = data.draw(st.integers(1, 4))
    sizes = [data.draw(st.integers(1, 3)) for _ in range(n)]
    space = make_space([(f"p{i}", list(range(s))) for i, s in enumerate(sizes)], ["b0", "b1"])
    value = st.integers(1, 20).map(float)
    table = {
        (benchmark, combo): {"power": data.draw(value), "time": data.draw(value)}
        for benchmark in space.benchmarks
        for combo in itertools.product(*(p.settings for p in space.parameters))
    }
    w = data.draw(st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]))
    threshold = data.draw(st.integers(1, 10))
    return space, table, {"power": w, "time": 1.0 - w}, threshold


class TestRunProperties:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_answer_is_the_minimum_of_its_log(self, data):
        space, table, weights, threshold = draw_search(data)
        result = run(space, Lookup(space, table), weights, threshold)
        for bench in result.benchmarks.values():
            assert bench.error is None
            logged = min(bench.records, key=lambda r: r.objective)
            assert bench.objective == logged.objective
            matches = [r for r in bench.records if r.config == bench.best_config]
            assert len(matches) == 1
            assert matches[0].objective == bench.objective
            assert matches[0].metrics == bench.best_metrics

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_fault_fails_only_its_benchmark(self, data):
        space, table, weights, threshold = draw_search(data)
        clean = run(space, Lookup(space, table), weights, threshold)
        fault = data.draw(st.sampled_from(["raise", "nan", "drop-power", "drop-time"]))
        faulty = Faulty(space, table, data.draw(st.integers(0, 40)), fault)
        result = run(space, faulty, weights, threshold)
        failed = [b for b, r in result.benchmarks.items() if r.error is not None]
        assert failed == ([] if faulty.faulted is None else [faulty.faulted])
        for name, bench in result.benchmarks.items():
            if name == faulty.faulted:
                assert bench.error is not None
                assert bench.best_config is None and bench.objective is None
                continue
            expected = clean.benchmarks[name]
            assert bench.error is None
            assert bench.best_config == expected.best_config
            assert bench.objective == expected.objective
            assert [r.config for r in bench.records] == [r.config for r in expected.records]
