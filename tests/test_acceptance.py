"""Acceptance suite: one test per release criterion.

Each test prints through the terminal-summary hook in conftest.py, so a run
ends with one PASS/FAIL line per criterion. Expected values marked "frozen"
were produced by the independent reference implementations in bruteforce.py
and tiny_reference.py before the engine existed; they are regression anchors,
not derived from the code under test.
"""

import csv
import itertools
import json
import random
import sys
import time

import pytest
from click.testing import CliRunner

from dsekit import (
    CachedEvaluator,
    EvaluationError,
    EvaluationTimeoutError,
    ExternalEvaluator,
    ProtocolError,
    SepMonoEvaluator,
    SyntheticEvaluator,
    build_context,
    cardinality,
    compare,
    load_shipped_space,
    make_space,
    objective,
    oracle_search,
    pareto_front,
    run,
    select_tradeoff,
)
from dsekit.cli import main as cli_main
from dsekit.explorer import EvalRecord
from dsekit.objective import WEIGHT_PROFILES

from .bruteforce import argmin_config, oneshot_maxima, pairwise_front, sepmono_metrics
from .conftest import TINY_WEIGHTS, TinyEvaluator, write_tiny_csv

SYNTH_BENCHMARKS = ["synth-blk", "synth-fluid", "synth-ocean"]


def shape_with_benchmarks(name, benchmarks):
    """A shipped space's parameter shape, re-targeted at other benchmarks."""
    shipped = load_shipped_space(name)
    return make_space(
        [(p.name, list(p.settings)) for p in shipped.parameters], benchmarks
    )


def config_tuple(space, config):
    return tuple(config[p.name] for p in space.parameters)


def test_c1_tiny_golden_trace(tiny_space):
    """Full methodology on the tiny fixture reproduces the hand-derived trace."""
    started = time.monotonic()

    evaluator = CachedEvaluator(TinyEvaluator())
    result = run(tiny_space, evaluator, TINY_WEIGHTS, threshold=3)
    bench = result.benchmarks["t"]

    assert bench.error is None
    assert bench.best_config == {"A": 4, "B": 200}
    assert bench.objective == pytest.approx(0.3514, abs=1e-3)
    assert bench.significance["A"] == pytest.approx(-0.5549, abs=1e-3)
    assert bench.significance["B"] == pytest.approx(-0.0255, abs=1e-3)
    assert bench.partition.exhaustive == ("A",)
    assert bench.partition.greedy == ("B",)
    assert bench.unique_evaluations == 5

    # the exhaustive oracle lands on the same configuration with zero gap
    oracle = oracle_search(tiny_space, "t", evaluator, TINY_WEIGHTS, bench.normalization)
    assert oracle.best_config == bench.best_config
    report = compare(result, {"t": oracle}).benchmarks["t"]
    assert report.objective_gap_pct == 0.0
    assert report.explored_pct == pytest.approx(100.0 * 5 / 6)
    assert report.speedup == pytest.approx(1.2)

    assert time.monotonic() - started < 1.0


def test_c2_separable_exact_optimality():
    """On separable strictly monotone metrics the search is exactly optimal
    for every threshold, on both shipped space shapes and weight profiles."""
    started = time.monotonic()

    for shape in ("parsec-small", "parsec-large"):
        space = shape_with_benchmarks(shape, ["sep"])
        settings_lists = [list(p.settings) for p in space.parameters]
        evaluator = SepMonoEvaluator(space)

        def reference(cfg):
            return sepmono_metrics(settings_lists, cfg)

        for profile, weights in sorted(WEIGHT_PROFILES.items()):
            maxima = oneshot_maxima(settings_lists, reference)
            want_cfg, _ = argmin_config(settings_lists, reference, weights, maxima)

            oracle = None
            for threshold in (1, 150, 400, 1200):
                result = run(space, evaluator, weights, threshold)
                bench = result.benchmarks["sep"]
                assert bench.error is None, (shape, profile, threshold)
                found = config_tuple(space, bench.best_config)
                assert found == want_cfg, (shape, profile, threshold)
                if oracle is None:
                    oracle = oracle_search(
                        space, "sep", evaluator, weights, bench.normalization
                    )
                assert config_tuple(space, oracle.best_config) == want_cfg
                report = compare(result, {"sep": oracle}).benchmarks["sep"]
                assert report.objective_gap_pct == 0.0, (shape, profile, threshold)

    assert time.monotonic() - started < 30.0


# Frozen oracle gaps for the analytic multicore model on the small shape at
# T = 150 (objective gap %, unique evaluations). The gap assertions are
# one-sided: a regression may never worsen them.
GAP_GOLDEN = {
    ("lowpower", "synth-blk"): (0.6493217619, 67),
    ("lowpower", "synth-fluid"): (0.0, 111),
    ("lowpower", "synth-ocean"): (0.0, 111),
    ("highperf", "synth-blk"): (4.7573453534, 68),
    ("highperf", "synth-fluid"): (0.0, 115),
    ("highperf", "synth-ocean"): (0.0, 111),
}


def test_c3_synthetic_gap_regression():
    """Oracle gap on the analytic model never worsens and coverage stays small."""
    started = time.monotonic()

    space = shape_with_benchmarks("parsec-small", SYNTH_BENCHMARKS)
    size = cardinality(space)
    assert size == 2700

    for profile, weights in sorted(WEIGHT_PROFILES.items()):
        evaluator = CachedEvaluator(SyntheticEvaluator())
        result = run(space, evaluator, weights, threshold=150)
        oracles = {
            bench: oracle_search(
                space, bench, evaluator, weights, result.benchmarks[bench].normalization
            )
            for bench in SYNTH_BENCHMARKS
        }
        report = compare(result, oracles)
        for bench in SYNTH_BENCHMARKS:
            golden_gap, golden_unique = GAP_GOLDEN[(profile, bench)]
            row = report.benchmarks[bench]
            assert row.objective_gap_pct is not None
            assert row.objective_gap_pct >= 0.0
            assert row.objective_gap_pct <= golden_gap + 1e-6, (profile, bench)
            assert row.explored_pct <= 10.0, (profile, bench)
            assert row.unique_evaluations == golden_unique, (profile, bench)

    assert time.monotonic() - started < 60.0


def test_c4_evaluation_count_bound():
    """Unique evaluations stay within the analytic budget on random spaces."""
    rng = random.Random(20240917)

    for trial in range(200):
        n = rng.randint(1, 6)
        sizes = [rng.randint(1, 6) for _ in range(n)]
        if all(s == 1 for s in sizes):
            sizes[rng.randrange(n)] = rng.randint(2, 6)
        space = make_space(
            [(f"p{i}", list(range(s))) for i, s in enumerate(sizes)], ["b"]
        )
        threshold = rng.randint(1, 500)
        w = round(rng.random(), 3)
        weights = {"power": w, "time": 1.0 - w}

        result = run(space, SepMonoEvaluator(space), weights, threshold)
        bench = result.benchmarks["b"]
        assert bench.error is None, (trial, sizes, threshold, w)

        part = bench.partition
        multi = space.multi_setting_names()
        budget = (
            2 * len(multi)
            + 1
            + part.num_exhaustive
            + sum(len(space.parameter(name)) for name in part.greedy)
        )
        assert bench.unique_evaluations <= budget, (trial, sizes, threshold, w)
        if part.exhaustive:
            assert part.num_exhaustive <= threshold, (trial, sizes, threshold)


def test_c5_shipped_space_cardinalities():
    expected = {
        "parsec-small": 2700,
        "splash2-small": 1800,
        "parsec-large": 86400,
        "splash2-large": 57600,
    }
    for name, size in expected.items():
        assert cardinality(load_shipped_space(name)) == size, name


def test_c6_pareto_suite():
    """Fronts match pairwise dominance; the weighted argmin lies on the front;
    the trade-off pick is invariant under positive per-metric rescaling."""
    rng = random.Random(41)
    scales = [0.25, 0.5, 2.0, 4.0, 8.0]  # powers of two rescale losslessly

    sizes = [rng.randint(1, 400) for _ in range(97)] + [2000, 5000, 10000]
    for log_index, size in enumerate(sizes):
        points = [
            (round(rng.uniform(0.01, 100), 2), round(rng.uniform(0.01, 100), 2))
            for _ in range(size)
        ]
        records = [
            EvalRecord(
                benchmark="b",
                phase="oneshot",
                seq=i,
                config={"i": i},
                metrics={"power": p, "time": t},
            )
            for i, (p, t) in enumerate(points)
        ]
        front = pareto_front(records)
        assert sorted(r.seq for r in front) == pairwise_front(points), log_index

        w = round(rng.uniform(0.05, 0.95), 3)
        weights = {"power": w, "time": 1.0 - w}
        ctx = build_context(r.metrics for r in records)
        values = [objective(r.metrics, ctx, weights) for r in records]
        best = min(values)
        argmin = records[values.index(best)]
        assert any(f.metrics == argmin.metrics for f in front), log_index
        assert min(objective(f.metrics, ctx, weights) for f in front) == best

        chosen = select_tradeoff(front, ctx, weights)
        factors = {"power": rng.choice(scales), "time": rng.choice(scales)}
        scaled = [
            EvalRecord(
                benchmark="b",
                phase="oneshot",
                seq=r.seq,
                config=dict(r.config),
                metrics={m: v * factors[m] for m, v in r.metrics.items()},
            )
            for r in records
        ]
        scaled_front = pareto_front(scaled)
        assert [r.seq for r in scaled_front] == [r.seq for r in front], log_index
        scaled_ctx = build_context(r.metrics for r in scaled)
        scaled_chosen = select_tradeoff(scaled_front, scaled_ctx, weights)
        assert scaled_chosen.seq == chosen.seq, log_index


def test_c7_monotone_threshold():
    """A larger exhaustive budget never worsens the final objective."""
    space = shape_with_benchmarks("parsec-large", SYNTH_BENCHMARKS)
    for profile, weights in sorted(WEIGHT_PROFILES.items()):
        evaluator = CachedEvaluator(SyntheticEvaluator())
        low = run(space, evaluator, weights, threshold=400)
        high = run(space, evaluator, weights, threshold=1200)
        for bench in SYNTH_BENCHMARKS:
            f_low = low.benchmarks[bench].objective
            f_high = high.benchmarks[bench].objective
            assert f_low is not None and f_high is not None
            assert f_high <= f_low, (profile, bench, f_high, f_low)


def test_c8_determinism_and_protocol(tmp_path):
    """Byte-identical reruns; worker protocol round-trips, including failures."""
    # determinism of the command-line entry point
    runner = CliRunner()
    space_file = tmp_path / "tiny.json"
    space_file.write_text(
        json.dumps(
            {
                "parameters": [
                    {"name": "A", "settings": [1, 2, 4]},
                    {"name": "B", "settings": [100, 200]},
                ],
                "benchmarks": ["t"],
            }
        ),
        encoding="utf-8",
    )
    table = write_tiny_csv(tmp_path / "tiny.csv")
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        result = runner.invoke(
            cli_main,
            [
                "run", "--space", str(space_file), "--threshold", "3",
                "--weights", "power=0.1,time=0.9",
                "--evaluator", f"table:{table}", "--out", str(out), "--jobs", "2",
            ],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        outputs.append((out / "evals.csv").read_bytes())
    assert outputs[0] == outputs[1]
    with open(tmp_path / "first" / "evals.csv", newline="", encoding="utf-8") as fh:
        assert len(list(csv.reader(fh))) == 1 + 5  # header + unique evaluations

    # protocol round trip against the bundled mock worker
    worker = [sys.executable, "-m", "dsekit.mock_worker"]
    with ExternalEvaluator(worker, timeout=30.0) as ev:
        for a, b in itertools.product([1, 2, 4], [100, 200]):
            metrics = ev.evaluate({"A": a, "B": b}, "t")
            assert metrics == {"power": 0.5 * a + 0.002 * b, "time": 24.0 / a + 200.0 / b}

    with ExternalEvaluator(worker + ["--error-on", "bad"], timeout=30.0) as ev:
        with pytest.raises(EvaluationError, match="injected failure"):
            ev.evaluate({"A": 1, "B": 100}, "bad")
        assert ev.evaluate({"A": 1, "B": 100}, "t")["power"] == 0.7

    with ExternalEvaluator(worker + ["--skew-id-on", "skew"], timeout=30.0) as ev:
        with pytest.raises(ProtocolError, match="does not match"):
            ev.evaluate({"A": 1, "B": 100}, "skew")

    with ExternalEvaluator(worker + ["--hang-on", "slow"], timeout=0.3) as ev:
        with pytest.raises(EvaluationTimeoutError):
            ev.evaluate({"A": 1, "B": 100}, "slow")
