import math

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
from dsekit.errors import DseError
from dsekit.oracle_compare import DEFAULT_GUARD, GUARD_ENV, enumeration_guard

from .conftest import TINY_WEIGHTS, tiny_metrics

TINY_BEST_F = 0.3513986013986014


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


class TestOracleSearch:
    def tiny_run(self, tiny_space, tiny_evaluator, threshold=3):
        return run(tiny_space, tiny_evaluator, TINY_WEIGHTS, threshold)

    def test_finds_global_optimum(self, tiny_space, tiny_evaluator):
        result = self.tiny_run(tiny_space, tiny_evaluator)
        oracle = oracle_search(
            tiny_space, "t", tiny_evaluator, TINY_WEIGHTS, tiny_ctx(result)
        )
        assert oracle.best_config == {"A": 4, "B": 200}
        assert oracle.objective == pytest.approx(TINY_BEST_F, rel=1e-12)
        assert oracle.best_metrics == {"power": 2.4, "time": 7.0}
        assert oracle.evaluations == 6

    def test_earliest_config_wins_ties(self, tiny_space):
        class Flat:
            def evaluate(self, config, benchmark):
                return {"power": 1.0, "time": 1.0}

        ctx_run = run(tiny_space, Flat(), TINY_WEIGHTS, 3)
        oracle = oracle_search(tiny_space, "t", Flat(), TINY_WEIGHTS, tiny_ctx(ctx_run))
        assert oracle.best_config == {"A": 1, "B": 100}

    def test_guard_blocks_large_spaces(self, tiny_space, tiny_evaluator, monkeypatch):
        result = self.tiny_run(tiny_space, tiny_evaluator)
        monkeypatch.setenv(GUARD_ENV, "5")
        with pytest.raises(GuardExceededError, match="enumeration guard 5"):
            oracle_search(tiny_space, "t", tiny_evaluator, TINY_WEIGHTS, tiny_ctx(result))

    def test_weighted_degenerate_metric_raises_before_evaluating(self, tiny_space):
        class NoPower:
            calls = 0

            def evaluate(self, config, benchmark):
                NoPower.calls += 1
                return {"power": 0.0, "time": float(config["A"])}

        result = self.tiny_run(tiny_space, NoPower())
        assert result.benchmarks["t"].error is not None
        NoPower.calls = 0
        with pytest.raises(DegenerateMetricError, match="benchmark 't'"):
            oracle_search(tiny_space, "t", NoPower(), TINY_WEIGHTS, tiny_ctx(result))
        assert NoPower.calls == 0

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
    def test_malformed_response_raises_evaluation_error(self, tiny_space, tiny_evaluator, corrupt):
        class Corrupt:
            def evaluate(self, config, benchmark):
                metrics = tiny_metrics(config["A"], config["B"])
                return corrupt(metrics) if config == {"A": 2, "B": 200} else metrics

        result = self.tiny_run(tiny_space, tiny_evaluator)
        with pytest.raises(EvaluationError, match="benchmark 't'"):
            oracle_search(tiny_space, "t", Corrupt(), TINY_WEIGHTS, tiny_ctx(result))


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
