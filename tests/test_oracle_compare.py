import math
import os
import time

import pytest

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
from dsekit.design_space import enumerate_configs, load_shipped_space, make_space
from dsekit.errors import DseError
from dsekit.oracle_compare import (
    DEFAULT_GUARD,
    GUARD_ENV,
    _contiguous,
    _forked,
    _slices,
    enumeration_guard,
)

from .conftest import TINY_WEIGHTS, tiny_metrics

TINY_BEST_F = 0.3513986013986014
#: Oracle job counts each search case runs at: serial, and 2, 3 and 6 slices
#: of the tiny space's six configurations.
JOBS = (1, 2, 3, 8)


def tiny_ctx(result):
    """The normalization context of a tiny-space run's only benchmark."""
    return result.benchmarks["t"].normalization


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
            oracle = oracle_search(
                tiny_space, "t", tiny_evaluator, TINY_WEIGHTS, tiny_ctx(result), jobs
            )
            assert oracle.best_config == {"A": 4, "B": 200}, jobs
            assert oracle.objective == pytest.approx(TINY_BEST_F, rel=1e-12)
            assert oracle.best_metrics == {"power": 2.4, "time": 7.0}
            assert oracle.evaluations == 6
        assert len(forks) == 2 + 3 + 6
        assert_reaped(forks)

    def test_earliest_config_wins_ties(self, tiny_space):
        class Flat:
            def evaluate(self, config, benchmark):
                return {"power": 1.0, "time": 1.0}

        ctx_run = run(tiny_space, Flat(), TINY_WEIGHTS, 3)
        for jobs in JOBS:
            oracle = oracle_search(
                tiny_space, "t", Flat(), TINY_WEIGHTS, tiny_ctx(ctx_run), jobs
            )
            assert oracle.best_config == {"A": 1, "B": 100}, jobs

    def test_guard_blocks_large_spaces(self, tiny_space, tiny_evaluator, monkeypatch, forks):
        result = self.tiny_run(tiny_space, tiny_evaluator)
        monkeypatch.setenv(GUARD_ENV, "5")
        for jobs in JOBS:
            with pytest.raises(GuardExceededError, match="enumeration guard 5"):
                oracle_search(
                    tiny_space, "t", tiny_evaluator, TINY_WEIGHTS, tiny_ctx(result), jobs
                )
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
                oracle_search(tiny_space, "t", NoPower(), TINY_WEIGHTS, tiny_ctx(result), jobs)
        assert NoPower.calls == 0
        assert forks == []

    def test_environment_guard_applies(self, tiny_space, tiny_evaluator, monkeypatch):
        monkeypatch.setenv(GUARD_ENV, "5")
        result = self.tiny_run(tiny_space, tiny_evaluator)
        with pytest.raises(GuardExceededError):
            oracle_search(tiny_space, "t", tiny_evaluator, TINY_WEIGHTS, tiny_ctx(result))
        monkeypatch.setenv(GUARD_ENV, "6")
        oracle = oracle_search(
            tiny_space, "t", tiny_evaluator, TINY_WEIGHTS, tiny_ctx(result)
        )
        assert oracle.evaluations == 6

    def test_enumeration_is_streamed(self, tiny_space, tiny_evaluator, monkeypatch):
        import dsekit.oracle_compare as oc

        events = []
        enumerate_all = oc.enumerate_configs

        def enumerate_logged(space):
            for config in enumerate_all(space):
                events.append("next")
                yield config

        class Logged:
            def evaluate(self, config, benchmark):
                events.append("evaluate")
                return tiny_evaluator.evaluate(config, benchmark)

        result = self.tiny_run(tiny_space, tiny_evaluator)
        monkeypatch.setattr(oc, "enumerate_configs", enumerate_logged)
        oracle_search(tiny_space, "t", Logged(), TINY_WEIGHTS, tiny_ctx(result))
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
        self, tiny_space, tiny_evaluator, corrupt, forks
    ):
        # (2, 200) is the fourth configuration: in the second or a later slice
        class Corrupt:
            def evaluate(self, config, benchmark):
                metrics = tiny_metrics(config["A"], config["B"])
                return corrupt(metrics) if config == {"A": 2, "B": 200} else metrics

        result = self.tiny_run(tiny_space, tiny_evaluator)
        for jobs in JOBS:
            with pytest.raises(EvaluationError, match="benchmark 't'"):
                oracle_search(tiny_space, "t", Corrupt(), TINY_WEIGHTS, tiny_ctx(result), jobs)
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
                oracle_search(tiny_space, "t", TwoFaults(), TINY_WEIGHTS, tiny_ctx(result), jobs)
        assert_reaped(forks)

    def test_failure_does_not_wait_for_later_slices(self, tiny_space, tiny_evaluator, forks):
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
            oracle_search(tiny_space, "t", SlowTail(), TINY_WEIGHTS, tiny_ctx(result), 3)
        assert time.monotonic() - start < 10
        assert_reaped(forks)

    def test_unpicklable_error_is_named_in_a_runtime_error(self, tiny_space, tiny_evaluator):
        class Unpicklable(Exception):
            pass

        class Failing:
            def evaluate(self, config, benchmark):
                raise Unpicklable("boom")

        result = self.tiny_run(tiny_space, tiny_evaluator)
        with pytest.raises(RuntimeError, match="Unpicklable: boom"):
            oracle_search(tiny_space, "t", Failing(), TINY_WEIGHTS, tiny_ctx(result), 2)

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
        monkeypatch.setattr(os, "fork", interrupted)
        with pytest.raises(KeyboardInterrupt):
            oracle_search(tiny_space, "t", tiny_evaluator, TINY_WEIGHTS, tiny_ctx(result), 3)
        assert len(pids) == 2
        assert_reaped(pids)


class TestForked:
    def test_values_come_back_in_item_order(self, forks):
        assert _forked(lambda item: item * item, [3, 1, 2]) == [9, 1, 4]
        assert len(forks) == 3
        assert_reaped(forks)

    def test_child_that_ends_without_a_result_is_an_error(self, forks):
        with pytest.raises(DseError, match=r"^forked process \d+ ended without a result$"):
            _forked(lambda item: os._exit(item), [0, 1])
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
    def test_slices_concatenate_to_the_enumeration(self, space):
        # items, not dicts: the key order is written out too
        whole = [list(c.items()) for c in enumerate_configs(space)]
        for jobs in range(2, 9):
            slices = [[list(c.items()) for c in configs()] for configs in _slices(space, jobs)]
            assert 1 <= len(slices) <= jobs
            assert all(slices)
            assert [c for part in slices for c in part] == whole

    def test_contiguous_runs_give_the_extra_items_to_the_earlier_runs(self):
        names = ("synth-blk", "synth-fluid", "synth-ocean")
        assert _contiguous(names, 2) == [names[:2], names[2:]]
        assert _contiguous(names, 5) == [names[:1], names[1:2], names[2:]]
        assert [len(run) for run in _contiguous(range(7), 3)] == [3, 2, 2]


class TestCompare:
    def test_tiny_report(self, tiny_space, tiny_evaluator):
        cache = CachedEvaluator(tiny_evaluator)
        result = run(tiny_space, cache, TINY_WEIGHTS, 3)
        oracle = oracle_search(
            tiny_space, "t", cache, TINY_WEIGHTS, tiny_ctx(result)
        )
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
        oracle = oracle_search(
            tiny_space, "t", Bumpy(), {"power": 1.0, "time": 0.0}, tiny_ctx(result)
        )
        assert oracle.best_config == {"A": 2, "B": 100}
        assert oracle.best_config not in [r.config for r in bench.records]
        report = compare(result, {"t": oracle})
        row = report.benchmarks["t"]
        assert row.objective_gap_pct is not None
        assert row.objective_gap_pct > 0
        assert bench.objective > oracle.objective

    def test_rejects_unknown_or_failed_benchmarks(self, tiny_space, tiny_evaluator):
        result = run(tiny_space, tiny_evaluator, TINY_WEIGHTS, 3)
        oracle = oracle_search(
            tiny_space, "t", tiny_evaluator, TINY_WEIGHTS, tiny_ctx(result)
        )
        with pytest.raises(ValueError, match="no benchmark"):
            compare(result, {"other": oracle})

    def test_rejects_oracle_worse_than_log(self, tiny_space, tiny_evaluator):
        result = run(tiny_space, tiny_evaluator, TINY_WEIGHTS, 3)
        oracle = oracle_search(
            tiny_space, "t", tiny_evaluator, TINY_WEIGHTS, tiny_ctx(result)
        )
        oracle.objective = result.benchmarks["t"].objective + 0.5
        with pytest.raises(DseError, match="not comparable"):
            compare(result, {"t": oracle})

    def test_gap_of_zero_optimum(self):
        from dsekit.oracle_compare import _gap_pct

        assert _gap_pct(0.0, 0.0) == 0.0
        assert _gap_pct(1.0, 0.0) is None
        assert _gap_pct(3.0, 2.0) == pytest.approx(50.0)
        assert _gap_pct(1.0, 2.0) == pytest.approx(-50.0)

    def test_sepmono_gap_is_zero(self, tiny_space):
        evaluator = SepMonoEvaluator(tiny_space)
        result = run(tiny_space, evaluator, TINY_WEIGHTS, 3)
        oracle = oracle_search(
            tiny_space, "t", evaluator, TINY_WEIGHTS, tiny_ctx(result)
        )
        report = compare(result, {"t": oracle})
        assert report.benchmarks["t"].objective_gap_pct == 0.0
        assert report.benchmarks["t"].dse_config == oracle.best_config
