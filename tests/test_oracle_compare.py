import math
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import (
    CachedEvaluator,
    DegenerateMetricError,
    EvaluationError,
    GuardExceededError,
    SepMonoEvaluator,
    compare,
    oracle_search,
    run,
)
from dsekit import oracle_compare
from dsekit.design_space import enumerate_configs, load_shipped_space, make_space
from dsekit.errors import DseError
from dsekit.objective import NormalizationContext, check_metrics, objective
from dsekit.oracle_compare import (
    DEFAULT_GUARD,
    GUARD_ENV,
    _forked,
    cpus_available,
    enumeration_guard,
)

from .conftest import TINY_WEIGHTS, tiny_metrics

TINY_BEST_F = 0.3513986013986014
#: Oracle job counts each search case runs at: serial, and 2, 3 and 6 index
#: ranges of the tiny space's six configurations, as far as there are CPUs.
JOBS = (1, 2, 3, 8)


def tiny_contexts(result):
    """The oracle contexts of a tiny-space run: its only benchmark's."""
    return {"t": result.benchmarks["t"].normalization}


class TestEnumerationGuard:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(GUARD_ENV, raising=False)
        assert enumeration_guard() == DEFAULT_GUARD

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(GUARD_ENV, "123")
        assert enumeration_guard() == 123

    def test_malformed_environment_value(self, monkeypatch):
        monkeypatch.setenv(GUARD_ENV, "lots")
        with pytest.raises(ValueError, match=GUARD_ENV):
            enumeration_guard()


@pytest.fixture
def forks(monkeypatch):
    """Pids of the children ``os.fork`` made in this process, in order."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestOracleSearch:
    def tiny_run(self, tiny_space, tiny_evaluator, threshold=3):
        return run(tiny_space, tiny_evaluator, TINY_WEIGHTS, threshold)

    def test_finds_global_optimum(self, tiny_space, tiny_evaluator, forks):
        result = self.tiny_run(tiny_space, tiny_evaluator)
        for jobs in JOBS:
            oracle = oracle_search(tiny_space, tiny_contexts(result), tiny_evaluator, TINY_WEIGHTS, jobs)["t"]
            assert oracle.best_config == {"A": 4, "B": 200}, jobs
            assert oracle.objective == pytest.approx(TINY_BEST_F, rel=1e-12)
            assert oracle.best_metrics == {"power": 2.4, "time": 7.0}
            assert oracle.evaluations == 6
        # one child per index range: at most the CPUs available and the configurations
        widths = [min(jobs, cpus_available(), 6) for jobs in JOBS]
        assert len(forks) == sum(width for width in widths if width > 1)
        assert_reaped(forks)

    def test_forks_no_more_children_than_there_are_cpus(self, tiny_space, tiny_evaluator, forks):
        result = self.tiny_run(tiny_space, tiny_evaluator)
        oracle = oracle_search(tiny_space, tiny_contexts(result), tiny_evaluator, TINY_WEIGHTS, 64)["t"]
        assert oracle.best_config == {"A": 4, "B": 200}
        assert len(forks) <= cpus_available()
        assert_reaped(forks)

    def test_earliest_config_wins_ties(self, tiny_space):
        class Flat:
            def evaluate(self, config, benchmark):
                return {"power": 1.0, "time": 1.0}

        ctx_run = run(tiny_space, Flat(), TINY_WEIGHTS, 3)
        for jobs in JOBS:
            oracle = oracle_search(tiny_space, tiny_contexts(ctx_run), Flat(), TINY_WEIGHTS, jobs)["t"]
            assert oracle.best_config == {"A": 1, "B": 100}, jobs

    def test_guard_blocks_large_spaces(self, tiny_space, tiny_evaluator, monkeypatch, forks):
        result = self.tiny_run(tiny_space, tiny_evaluator)
        monkeypatch.setenv(GUARD_ENV, "5")
        for jobs in JOBS:
            with pytest.raises(GuardExceededError, match="enumeration guard 5"):
                oracle_search(tiny_space, tiny_contexts(result), tiny_evaluator, TINY_WEIGHTS, jobs)["t"]
        assert forks == []

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_raise_before_any_request(self, tiny_space, tiny_evaluator, forks, jobs):
        result = self.tiny_run(tiny_space, tiny_evaluator)
        tiny_evaluator.calls = 0
        with pytest.raises(ValueError, match=f"^jobs must be >= 1, got {jobs}$"):
            oracle_search(tiny_space, tiny_contexts(result), tiny_evaluator, TINY_WEIGHTS, jobs)
        assert tiny_evaluator.calls == 0
        assert forks == []

    def test_weighted_degenerate_metric_raises_before_evaluating(self, tiny_space, forks):
        class NoPower:
            calls = 0

            def evaluate(self, config, benchmark):
                NoPower.calls += 1
                return {"power": 0.0, "time": float(config["A"])}

        result = self.tiny_run(tiny_space, NoPower())
        assert result.benchmarks["t"].error is not None
        NoPower.calls = 0
        for jobs in JOBS:
            with pytest.raises(DegenerateMetricError, match="benchmark 't'"):
                oracle_search(tiny_space, tiny_contexts(result), NoPower(), TINY_WEIGHTS, jobs)["t"]
        assert NoPower.calls == 0
        assert forks == []

    def test_environment_guard_applies(self, tiny_space, tiny_evaluator, monkeypatch):
        monkeypatch.setenv(GUARD_ENV, "5")
        result = self.tiny_run(tiny_space, tiny_evaluator)
        with pytest.raises(GuardExceededError):
            oracle_search(tiny_space, tiny_contexts(result), tiny_evaluator, TINY_WEIGHTS)["t"]
        monkeypatch.setenv(GUARD_ENV, "6")
        oracle = oracle_search(tiny_space, tiny_contexts(result), tiny_evaluator, TINY_WEIGHTS)["t"]
        assert oracle.evaluations == 6

    def test_enumeration_is_streamed(self, tiny_space, tiny_evaluator, monkeypatch):
        import dsekit.oracle_compare as oc

        events = []
        enumerate_all = oc.enumerate_configs

        def enumerate_logged(space, fixed=None, start=0, stop=None):
            for config in enumerate_all(space, fixed, start, stop):
                events.append("next")
                yield config

        class Logged:
            def evaluate(self, config, benchmark):
                events.append("evaluate")
                return tiny_evaluator.evaluate(config, benchmark)

        result = self.tiny_run(tiny_space, tiny_evaluator)
        monkeypatch.setattr(oc, "enumerate_configs", enumerate_logged)
        oracle_search(tiny_space, tiny_contexts(result), Logged(), TINY_WEIGHTS)["t"]
        assert events == ["next", "evaluate"] * 6

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda m: {**m, "time": math.nan},
            lambda m: {**m, "energy": 1.0},
            lambda m: {"power": m["power"]},
        ],
        ids=["nan", "extra-key", "missing-key"],
    )
    def test_malformed_response_raises_evaluation_error(
        self, tiny_space, tiny_evaluator, corrupt, forks, monkeypatch
    ):
        monkeypatch.setattr(oracle_compare, "cpus_available", lambda: 3)
        # (2, 200) is the fourth configuration: in the second or a later slice
        class Corrupt:
            def evaluate(self, config, benchmark):
                metrics = tiny_metrics(config["A"], config["B"])
                return corrupt(metrics) if config == {"A": 2, "B": 200} else metrics

        result = self.tiny_run(tiny_space, tiny_evaluator)
        for jobs in JOBS:
            with pytest.raises(EvaluationError, match="benchmark 't'"):
                oracle_search(tiny_space, tiny_contexts(result), Corrupt(), TINY_WEIGHTS, jobs)["t"]
        assert forks
        assert_reaped(forks)

    def test_earliest_failing_slice_raises(self, tiny_space, tiny_evaluator, forks):
        # (1, 200) and (4, 100), the second and fifth configurations, fall
        # in different slices at every job count above 1.
        class TwoFaults:
            def evaluate(self, config, benchmark):
                if config == {"A": 1, "B": 200}:
                    raise EvaluationError("first fault")
                if config == {"A": 4, "B": 100}:
                    raise EvaluationError("second fault")
                return tiny_metrics(config["A"], config["B"])

        result = self.tiny_run(tiny_space, tiny_evaluator)
        for jobs in JOBS:
            with pytest.raises(EvaluationError, match="^first fault$"):
                oracle_search(tiny_space, tiny_contexts(result), TwoFaults(), TINY_WEIGHTS, jobs)["t"]
        assert_reaped(forks)

    def test_failure_does_not_wait_for_later_slices(self, tiny_space, tiny_evaluator, forks, monkeypatch):
        monkeypatch.setattr(oracle_compare, "cpus_available", lambda: 3)

        class SlowTail:
            def evaluate(self, config, benchmark):
                if config == {"A": 1, "B": 100}:
                    raise EvaluationError("first fault")
                if config["A"] == 4:  # the last of three slices
                    time.sleep(30)
                return tiny_metrics(config["A"], config["B"])

        result = self.tiny_run(tiny_space, tiny_evaluator)
        start = time.monotonic()
        with pytest.raises(EvaluationError, match="first fault"):
            oracle_search(tiny_space, tiny_contexts(result), SlowTail(), TINY_WEIGHTS, 3)["t"]
        assert time.monotonic() - start < 10
        assert_reaped(forks)

    def test_unpicklable_error_is_named_in_a_runtime_error(self, tiny_space, tiny_evaluator, monkeypatch):
        monkeypatch.setattr(oracle_compare, "cpus_available", lambda: 2)  # raised in a forked child

        class Unpicklable(Exception):
            pass

        class Failing:
            def evaluate(self, config, benchmark):
                raise Unpicklable("boom")

        result = self.tiny_run(tiny_space, tiny_evaluator)
        with pytest.raises(RuntimeError, match="Unpicklable: boom"):
            oracle_search(tiny_space, tiny_contexts(result), Failing(), TINY_WEIGHTS, 2)["t"]

    def test_interrupt_while_forking_reaps_every_child(
        self, tiny_space, tiny_evaluator, monkeypatch
    ):
        pids = []
        fork = os.fork

        def interrupted():
            if len(pids) == 2:
                raise KeyboardInterrupt
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        result = self.tiny_run(tiny_space, tiny_evaluator)
        monkeypatch.setattr(oracle_compare, "cpus_available", lambda: 3)  # three ranges, forked at once
        monkeypatch.setattr(os, "fork", interrupted)
        with pytest.raises(KeyboardInterrupt):
            oracle_search(tiny_space, tiny_contexts(result), tiny_evaluator, TINY_WEIGHTS, 3)["t"]
        assert len(pids) == 2
        assert_reaped(pids)


def plain_oracle(space, benchmark, evaluator, weights, ctx):
    """The strict-minimum (F, configuration, metrics) of one loop over the
    enumeration, earliest on ties: the reference the one pass must match."""
    best = None
    for config in enumerate_configs(space):
        metrics = check_metrics(benchmark, evaluator.evaluate(config, benchmark), list(weights))
        value = objective(metrics, ctx, weights)
        if best is None or value < best[0]:
            best = (value, config, metrics)
    return best


class Table:
    """An in-process table backend: (benchmark, configuration) to metrics."""

    def __init__(self, space, rows):
        self.space = space
        self.rows = rows

    def evaluate(self, config, benchmark):
        return dict(self.rows[benchmark, self.space.config_key(config)])


#: Few values, so ties are common.
METRIC_VALUES = (0, 1, 2, 0.5, 2.5)
SETTINGS = st.one_of(st.integers(-2, 9), st.sampled_from([0.5, 1.5, "a", "b", "x1"]))


class TestOnePassForEveryBenchmark:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_one_pass_equals_one_loop_per_benchmark(self, data):
        columns = data.draw(
            st.lists(st.lists(SETTINGS, min_size=1, max_size=4, unique=True), min_size=1, max_size=5)
        )
        benchmarks = [f"b{i}" for i in range(data.draw(st.integers(1, 4)))]
        space = make_space([(f"p{i}", c) for i, c in enumerate(columns)], benchmarks)
        metrics = ["power", "time", "area"][: data.draw(st.integers(1, 3))]
        metric_value = st.sampled_from(METRIC_VALUES)
        rows = {}
        for benchmark in benchmarks:
            for config in enumerate_configs(space):
                order = data.draw(st.permutations(metrics))  # any response order
                rows[benchmark, space.config_key(config)] = {m: data.draw(metric_value) for m in order}
        # a 0 maximum is degenerate, and a degenerate metric's weight is 0
        contexts = {
            b: NormalizationContext({m: data.draw(st.sampled_from([0, 1, 2.5, 4])) for m in metrics})
            for b in benchmarks
        }
        weights = {
            m: 0.0 if any(m in ctx.degenerate for ctx in contexts.values())
            else data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
            for m in metrics
        }
        table = Table(space, rows)
        want = {b: plain_oracle(space, b, table, weights, ctx) for b, ctx in contexts.items()}
        for jobs in (1, 2, 3):
            got = oracle_search(space, contexts, table, weights, jobs)
            assert list(got) == benchmarks
            for benchmark, (value, config, best) in want.items():
                result = got[benchmark]
                assert result.objective == value, jobs
                assert list(result.best_config.items()) == list(config.items()), jobs
                assert list(result.best_metrics.items()) == list(best.items()), jobs

    @pytest.mark.parametrize("jobs", (1, 2, 3))
    def test_the_first_failure_in_enumeration_order_is_raised(self, tiny_space, forks, jobs):
        # u fails at the first configuration, t at the last: the pass meets
        # u's failure first, whatever the benchmarks' order and the slices
        class Faults:
            def evaluate(self, config, benchmark):
                if benchmark == "u" and config == {"A": 1, "B": 100}:
                    raise EvaluationError("u fault")
                if benchmark == "t" and config == {"A": 4, "B": 200}:
                    raise EvaluationError("t fault")
                return tiny_metrics(config["A"], config["B"])

        ctx = NormalizationContext({"power": 2.4, "time": 26.0})
        with pytest.raises(EvaluationError, match="^u fault$"):
            oracle_search(tiny_space, {"t": ctx, "u": ctx}, Faults(), TINY_WEIGHTS, jobs)
        assert_reaped(forks)

    @pytest.mark.parametrize("jobs", (1, 2, 3))
    def test_a_weight_refusal_is_raised_before_any_request(self, tiny_space, forks, jobs):
        made = []

        class Requests:
            def evaluate(self, config, benchmark):
                made.append(benchmark)
                raise EvaluationError("t fault")

        ctx = NormalizationContext({"power": 2.4, "time": 26.0})
        degenerate = NormalizationContext({"power": 0.0, "time": 26.0})
        contexts = {"t": ctx, "u": degenerate, "v": ctx}
        # t would fail at its first request, but u's weights are refused first
        with pytest.raises(DegenerateMetricError, match="benchmark 'u'"):
            oracle_search(tiny_space, contexts, Requests(), TINY_WEIGHTS, jobs)
        assert made == []
        assert forks == []

    def test_a_benchmark_that_failed_before_calibration_is_refused_before_any_request(self, forks):
        space = make_space([("A", [1, 2, 4]), ("B", [100, 200])], ["t", "u"])
        made = []

        class FailsU:
            def evaluate(self, config, benchmark):
                made.append(benchmark)
                if benchmark == "u":
                    raise EvaluationError("u fault")
                return tiny_metrics(config["A"], config["B"])

        result = run(space, FailsU(), TINY_WEIGHTS, 3)
        assert result.benchmarks["u"].normalization is None
        # every benchmark's context, a failed one's included
        contexts = {name: bench.normalization for name, bench in result.benchmarks.items()}
        made.clear()
        for jobs in JOBS:
            with pytest.raises(ValueError, match="^benchmark 'u' has no normalization context$"):
                oracle_search(space, contexts, FailsU(), TINY_WEIGHTS, jobs)
        assert made == []
        assert forks == []

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_an_invalid_space_is_refused_as_run_refuses_it(self, forks, jobs):
        made = []

        class Requests:
            def evaluate(self, config, benchmark):
                made.append(benchmark)
                return tiny_metrics(config["A"], config["B"])

        space = make_space([("A", [1, 2]), ("B", [])], ["t"])
        ctx = NormalizationContext({"power": 2.4, "time": 26.0})
        refusal = "^invalid space: parameter 'B' has an empty settings list$"
        with pytest.raises(ValueError, match=refusal):
            oracle_search(space, {"t": ctx}, Requests(), TINY_WEIGHTS, jobs)
        with pytest.raises(ValueError, match=refusal):
            run(space, Requests(), TINY_WEIGHTS, 1)
        assert made == []
        assert forks == []

    def test_a_benchmark_after_a_failed_one_gets_no_further_requests(self, tiny_space):
        made = []

        class Requests:
            def evaluate(self, config, benchmark):
                made.append(benchmark)
                if benchmark == "u" and config == {"A": 2, "B": 100}:
                    raise EvaluationError("u fault")
                return tiny_metrics(config["A"], config["B"])

        ctx = NormalizationContext({"power": 2.4, "time": 26.0})
        with pytest.raises(EvaluationError, match="^u fault$"):
            oracle_search(tiny_space, {"t": ctx, "u": ctx, "v": ctx}, Requests(), TINY_WEIGHTS)
        # u fails at the third configuration, and no request follows
        assert made == ["t", "u", "v"] * 2 + ["t", "u"]

    @pytest.mark.parametrize("slots", (2, 3, 5))
    def test_a_pool_gets_the_one_pass_fed_ahead(self, tiny_space, forks, slots):
        ctx = NormalizationContext({"power": 2.4, "time": 26.0})
        pool = Pool(slots)
        got = oracle_search(tiny_space, {"u": ctx, "t": ctx}, pool, TINY_WEIGHTS, 3)
        assert forks == []
        assert list(got) == ["u", "t"]
        assert got["u"].best_config == got["t"].best_config == {"A": 4, "B": 200}
        # configuration-major over the benchmarks in order, each request
        # submitted ahead of its evaluation
        want = [(c["A"], c["B"], b) for c in enumerate_configs(tiny_space) for b in ("u", "t")]
        assert pool.made("submit") == want == pool.made("evaluate")
        for request in want:
            assert pool.events.index(("submit", request)) < pool.events.index(("evaluate", request))

    @pytest.mark.parametrize("slots", (1, 2, 3, 4, 5))
    def test_a_pool_gets_no_further_submissions_for_a_failed_benchmark(self, tiny_space, slots):
        ctx = NormalizationContext({"power": 2.4, "time": 26.0})
        pool = Pool(slots, fault=(2, 100, "u"))
        with pytest.raises(EvaluationError, match="^u fault$"):
            oracle_search(tiny_space, {"t": ctx, "u": ctx, "v": ctx}, pool, TINY_WEIGHTS)
        # the failed evaluation is the last event: no submission follows it
        assert pool.events[-1] == ("evaluate", (2, 100, "u"))
        want = [(a, b, bench) for a, b in ((1, 100), (1, 200)) for bench in ("t", "u", "v")]
        assert pool.made("evaluate") == want + [(2, 100, "t"), (2, 100, "u")]


class Pool:
    """A worker pool with `slots` request slots, which logs every submission
    and evaluation of a tiny-space request as ``(A, B, benchmark)``. As in
    ``ExternalEvaluator``, an evaluation claims the oldest submitted request
    if it is the one asked for; the requests it passes over are abandoned."""

    def __init__(self, slots, fault=None):
        self.slots = slots
        self.fault = fault
        self.held = []
        self.events = []

    def made(self, kind):
        return [request for k, request in self.events if k == kind]

    def submit(self, config, benchmark):
        if len(self.held) == self.slots:
            return False
        request = (config["A"], config["B"], benchmark)
        self.held.append(request)
        self.events.append(("submit", request))
        return True

    def evaluate(self, config, benchmark):
        request = (config["A"], config["B"], benchmark)
        while self.held and self.held.pop(0) != request:
            pass
        self.events.append(("evaluate", request))
        if request == self.fault:
            raise EvaluationError(f"{benchmark} fault")
        return tiny_metrics(config["A"], config["B"])


class TestForked:
    def test_values_come_back_in_item_order(self, forks):
        assert _forked(lambda item: item * item, [3, 1, 2], 3) == [9, 1, 4]
        assert len(forks) == 3
        assert_reaped(forks)

    def test_child_that_ends_without_a_result_is_an_error(self, forks):
        with pytest.raises(DseError, match=r"^forked process \d+ ended without a result$"):
            _forked(lambda item: os._exit(item), [0, 1], 2)
        assert_reaped(forks)

    def test_never_more_than_jobs_children_at_once(self, monkeypatch):
        unreaped = set()
        most = []
        fork, waitpid = os.fork, os.waitpid

        def counted_fork():
            pid = fork()
            if pid:
                unreaped.add(pid)
                most.append(len(unreaped))
            return pid

        def counted_waitpid(pid, options):
            reaped = waitpid(pid, options)
            unreaped.discard(pid)
            return reaped

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(os, "waitpid", counted_waitpid)
        for jobs in (1, 2, 3):
            most.clear()
            assert _forked(lambda item: time.sleep(0.02) or item, range(7), jobs) == list(range(7))
            assert len(most) == 7
            assert max(most) == jobs
            assert not unreaped

    def test_values_keep_item_order_when_a_later_item_ends_first(self, forks):
        def ended(delay):
            time.sleep(delay)
            return delay, time.monotonic()

        (first, first_end), (second, second_end) = _forked(ended, [0.5, 0], 2)
        assert (first, second) == (0.5, 0)
        assert second_end < first_end
        assert_reaped(forks)

    def test_a_result_larger_than_a_pipe_does_not_wait_behind_an_earlier_item(self, forks):
        size = 2 << 20  # above the largest pipe buffer Linux allows by default, 1 MB

        def work(item):
            start = time.monotonic()
            if item == 0:
                time.sleep(2)
            return start, b"x" * size if item == 1 else b"", time.monotonic()

        (_, _, first_end), (_, large, _), (third_start, _, _) = _forked(work, [0, 1, 2], 2)
        assert len(large) == size
        assert third_start < first_end
        assert_reaped(forks)

    def test_the_first_error_in_item_order_is_raised(self, forks):
        def fail(delay):
            time.sleep(delay)
            raise DseError(f"fault after {delay} s")

        with pytest.raises(DseError, match=r"^fault after 0\.5 s$"):
            _forked(fail, [0.5, 0, 0], 2)
        assert len(forks) == 3
        assert_reaped(forks)


class TestSlices:
    @pytest.mark.parametrize(
        "space",
        [
            make_space([("A", [1, 2, 4]), ("B", [100, 200])], ["t"]),
            make_space([("one", [1]), ("A", [1, 2, 4]), ("B", [7])], ["t"]),
            load_shipped_space("parsec-small"),
        ],
        ids=["tiny", "single-settings", "parsec-small"],
    )
    def test_slices_concatenate_to_the_enumeration(self, space, monkeypatch):
        """The oracle's index ranges, one per forked child, are near-equal
        and concatenate to the enumeration; each child is made in turn in
        this process here, so the ranges can be watched."""
        import dsekit.oracle_compare as oc

        class Flat:
            def evaluate(self, config, benchmark):
                return {"power": 1.0, "time": 1.0}

        slices = []

        def enumerate_recorded(space, fixed=None, start=0, stop=None):
            slices.append([])
            for config in enumerate_configs(space, fixed, start, stop):
                slices[-1].append(list(config.items()))  # items: the key order is checked too
                yield config

        monkeypatch.setattr(oc, "enumerate_configs", enumerate_recorded)
        monkeypatch.setattr(oc, "_forked", lambda fn, items, jobs: [fn(item) for item in items])
        monkeypatch.setattr(oc, "cpus_available", lambda: 8)
        whole = [list(c.items()) for c in enumerate_configs(space)]
        contexts = {"t": NormalizationContext({"power": 1.0, "time": 1.0})}
        for jobs in range(2, 9):
            slices.clear()
            oracle_search(space, contexts, Flat(), TINY_WEIGHTS, jobs)
            assert len(slices) == min(jobs, len(whole))
            assert max(map(len, slices)) - min(map(len, slices)) <= 1
            assert [c for part in slices for c in part] == whole


class TestCompare:
    def test_tiny_report(self, tiny_space, tiny_evaluator):
        cache = CachedEvaluator(tiny_evaluator)
        result = run(tiny_space, cache, TINY_WEIGHTS, 3)
        oracle = oracle_search(tiny_space, tiny_contexts(result), cache, TINY_WEIGHTS)["t"]
        report = compare(result, {"t": oracle})
        row = report.benchmarks["t"]
        assert row.objective_gap_pct == 0.0
        assert row.metric_gaps_pct == {"power": 0.0, "time": 0.0}
        assert row.dse_config == row.oracle_config == {"A": 4, "B": 200}
        assert row.unique_evaluations == 5
        assert row.cardinality == 6
        assert row.explored_pct == pytest.approx(100.0 * 5 / 6)
        assert row.speedup == pytest.approx(6 / 5)

    def test_positive_gap_when_methodology_misses(self, tiny_space):
        # threshold 1 forces pure greedy; the separable model is still found
        # exactly, so force a miss with a deliberately non-separable table
        class Bumpy:
            def evaluate(self, config, benchmark):
                a, b = config["A"], config["B"]
                # global optimum hides at (2, 100): the one-shot set, the
                # all-best (4, 200) and the greedy walk on A never reach it
                table = {
                    (1, 100): 10.0, (1, 200): 8.0,
                    (2, 100): 1.0, (2, 200): 6.0,
                    (4, 100): 4.0, (4, 200): 5.0,
                }
                return {"power": table[(a, b)], "time": 1.0}

        result = run(tiny_space, Bumpy(), {"power": 1.0, "time": 0.0}, 1)
        bench = result.benchmarks["t"]
        oracle = oracle_search(tiny_space, tiny_contexts(result), Bumpy(), {"power": 1.0, "time": 0.0})["t"]
        assert oracle.best_config == {"A": 2, "B": 100}
        assert oracle.best_config not in [r.config for r in bench.records]
        report = compare(result, {"t": oracle})
        row = report.benchmarks["t"]
        assert row.objective_gap_pct is not None
        assert row.objective_gap_pct > 0
        assert bench.objective > oracle.objective

    def test_rejects_unknown_or_failed_benchmarks(self, tiny_space, tiny_evaluator):
        result = run(tiny_space, tiny_evaluator, TINY_WEIGHTS, 3)
        oracle = oracle_search(tiny_space, tiny_contexts(result), tiny_evaluator, TINY_WEIGHTS)["t"]
        with pytest.raises(ValueError, match="^run has no benchmark 'other'$"):
            compare(result, {"other": oracle})

    def test_rejects_a_benchmark_that_failed_in_the_run(self, tiny_evaluator):
        # ``load_oracle`` refuses such an oracle document, so only a library caller gets here
        space = make_space([("A", [1, 2, 4]), ("B", [100, 200])], ["t", "u"])

        class FailsU:
            def evaluate(self, config, benchmark):
                if benchmark == "u":
                    raise EvaluationError("boom")
                return tiny_evaluator.evaluate(config, benchmark)

        result = run(space, FailsU(), TINY_WEIGHTS, 3)
        oracle = oracle_search(space, tiny_contexts(result), tiny_evaluator, TINY_WEIGHTS)["t"]
        with pytest.raises(ValueError, match="^benchmark 'u' failed in the methodology run: boom$"):
            compare(result, {"u": oracle})

    def test_rejects_oracle_worse_than_log(self, tiny_space, tiny_evaluator):
        result = run(tiny_space, tiny_evaluator, TINY_WEIGHTS, 3)
        oracle = oracle_search(tiny_space, tiny_contexts(result), tiny_evaluator, TINY_WEIGHTS)["t"]
        oracle.objective = result.benchmarks["t"].objective + 0.5
        with pytest.raises(DseError, match="not comparable"):
            compare(result, {"t": oracle})

    def test_gap_of_zero_optimum(self):
        from dsekit.oracle_compare import _gap_pct

        assert _gap_pct(0.0, 0.0) == 0.0
        assert _gap_pct(1.0, 0.0) is None
        assert _gap_pct(3.0, 2.0) == pytest.approx(50.0)
        assert _gap_pct(1.0, 2.0) == pytest.approx(-50.0)
        assert _gap_pct(-1.1, -3.2) == pytest.approx(65.625)  # worse than a negative optimum

    def test_sepmono_gap_is_zero(self, tiny_space):
        evaluator = SepMonoEvaluator(tiny_space)
        result = run(tiny_space, evaluator, TINY_WEIGHTS, 3)
        oracle = oracle_search(tiny_space, tiny_contexts(result), evaluator, TINY_WEIGHTS)["t"]
        report = compare(result, {"t": oracle})
        assert report.benchmarks["t"].objective_gap_pct == 0.0
        assert report.benchmarks["t"].dse_config == oracle.best_config
