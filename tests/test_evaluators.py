import collections
import csv
import itertools
import sys
import threading
import time
from concurrent.futures import Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import (
    CachedEvaluator,
    EvaluationError,
    SepMonoEvaluator,
    SyntheticEvaluator,
    TableEvaluator,
    make_evaluator,
    make_space,
    run,
)
from dsekit import evaluators
from dsekit.errors import (
    MissingTableRowError,
    TableLoadError,
    UnknownBenchmarkError,
)
from dsekit.evaluators import SYNTHETIC_PROFILES, synthetic_evaluate

from .bruteforce import sepmono_metrics, synthetic_metrics
from .conftest import TINY_WEIGHTS, tiny_metrics


def synth_configs(extended: bool):
    base = {
        "cores": st.sampled_from([2, 4, 8]),
        "freq": st.sampled_from([1700, 2200, 2800, 3200]),
        "l1i": st.sampled_from([8, 16, 32, 64, 128]),
        "l1d": st.sampled_from([8, 16, 32, 64, 128]),
        "l2": st.sampled_from([256, 512, 1024]),
        "l3": st.sampled_from([2048, 4096, 8192]),
    }
    if extended:
        base.update(
            width=st.sampled_from([2, 4, 8, 16]),
            rob=st.sampled_from([32, 64, 128, 256]),
            bpred=st.sampled_from(["BPredX", "BPredX2"]),
        )
    return st.fixed_dictionaries(base)


class TestSynthetic:
    def test_golden_value(self):
        config = {"cores": 4, "freq": 2800, "l1i": 32, "l1d": 32, "l2": 512, "l3": 4096}
        metrics = SyntheticEvaluator().evaluate(config, "synth-fluid")
        assert metrics["power"] == pytest.approx(4.727945, abs=1e-9)
        assert metrics["time"] == pytest.approx(911.1607142857141, rel=1e-12)

    @pytest.mark.parametrize("profile", sorted(SYNTHETIC_PROFILES))
    @given(config=synth_configs(extended=False))
    @settings(max_examples=40, deadline=None)
    def test_matches_independent_model(self, profile, config):
        got = synthetic_evaluate(config, SYNTHETIC_PROFILES[profile])
        want = synthetic_metrics(config, profile)
        assert got["power"] == pytest.approx(want["power"], rel=1e-12)
        assert got["time"] == pytest.approx(want["time"], rel=1e-12)

    @given(config=synth_configs(extended=True))
    @settings(max_examples=40, deadline=None)
    def test_extended_parameters_match_independent_model(self, config):
        got = synthetic_evaluate(config, SYNTHETIC_PROFILES["synth-blk"])
        want = synthetic_metrics(config, "synth-blk")
        assert got["power"] == pytest.approx(want["power"], rel=1e-12)
        assert got["time"] == pytest.approx(want["time"], rel=1e-12)

    def test_wider_machine_is_faster_and_hotter(self):
        narrow = {"cores": 4, "freq": 2800, "l1i": 32, "l1d": 32, "l2": 512,
                  "l3": 4096, "width": 2, "rob": 32, "bpred": "BPredX"}
        wide = dict(narrow, width=16, rob=256, bpred="BPredX2")
        m_narrow = synthetic_evaluate(narrow, SYNTHETIC_PROFILES["synth-blk"])
        m_wide = synthetic_evaluate(wide, SYNTHETIC_PROFILES["synth-blk"])
        assert m_wide["time"] < m_narrow["time"]
        assert m_wide["power"] > m_narrow["power"]

    def test_benchmark_name_selects_profile(self):
        config = {"cores": 2, "freq": 1700, "l1i": 8, "l1d": 8, "l2": 256, "l3": 2048}
        by_name = SyntheticEvaluator().evaluate(config, "synth-ocean")
        pinned = SyntheticEvaluator("synth-ocean").evaluate(config, "anything")
        assert by_name == pinned

    def test_unknown_benchmark_without_profile(self):
        config = {"cores": 2, "freq": 1700, "l1i": 8, "l1d": 8, "l2": 256, "l3": 2048}
        with pytest.raises(UnknownBenchmarkError):
            SyntheticEvaluator().evaluate(config, "fluidanimate")

    def test_unknown_profile_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown synthetic profile"):
            SyntheticEvaluator("synth-nope")

    def test_missing_required_parameter(self):
        with pytest.raises(EvaluationError, match="cores"):
            SyntheticEvaluator("synth-blk").evaluate({"freq": 2800}, "b")

    def test_deterministic(self):
        config = {"cores": 8, "freq": 3200, "l1i": 128, "l1d": 128, "l2": 1024, "l3": 8192}
        ev = SyntheticEvaluator("synth-fluid")
        assert ev.evaluate(config, "x") == ev.evaluate(config, "x")


class TestSepMono:
    def test_reference_point(self, tiny_space):
        # indices (1, 0) in a 3x2 space: power = 1/2, time = 1/2 + 1/3
        ev = SepMonoEvaluator(tiny_space)
        metrics = ev.evaluate({"A": 2, "B": 100}, "t")
        assert metrics["power"] == pytest.approx(0.5)
        assert metrics["time"] == pytest.approx(5.0 / 6.0)

    def test_extremes(self, tiny_space):
        ev = SepMonoEvaluator(tiny_space)
        first = ev.evaluate({"A": 1, "B": 100}, "t")
        last = ev.evaluate({"A": 4, "B": 200}, "t")
        assert first["power"] == 0.0
        assert last["time"] == 0.0
        assert first["time"] == pytest.approx(last["power"])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_independent_model(self, data):
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        settings_lists = [list(range(10, 10 + n)) for n in sizes]
        space = make_space(
            [(f"p{i}", s) for i, s in enumerate(settings_lists)], ["b"]
        )
        config = {
            f"p{i}": data.draw(st.sampled_from(s))
            for i, s in enumerate(settings_lists)
        }
        got = SepMonoEvaluator(space).evaluate(config, "b")
        want = sepmono_metrics(
            settings_lists, tuple(config[f"p{i}"] for i in range(len(settings_lists)))
        )
        assert got["power"] == pytest.approx(want["power"], abs=1e-12)
        assert got["time"] == pytest.approx(want["time"], abs=1e-12)

    def test_metrics_strictly_monotone_in_every_index(self):
        space = make_space([("a", [0, 1, 2]), ("b", [0, 1, 2])], ["x"])
        ev = SepMonoEvaluator(space)
        for name in ("a", "b"):
            for lo, hi in [(0, 1), (1, 2)]:
                other = "b" if name == "a" else "a"
                m_lo = ev.evaluate({name: lo, other: 0}, "x")
                m_hi = ev.evaluate({name: hi, other: 0}, "x")
                assert m_lo["power"] < m_hi["power"]
                assert m_lo["time"] > m_hi["time"]


class TestTable:
    def test_replays_rows(self, tiny_space, tiny_csv):
        ev = TableEvaluator.load(tiny_csv, tiny_space)
        for a, b in itertools.product([1, 2, 4], [100, 200]):
            assert ev.evaluate({"A": a, "B": b}, "t") == tiny_metrics(a, b)

    def test_column_order_is_free(self, tiny_space, tmp_path):
        path = tmp_path / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["benchmark", "time", "B", "power", "A"])
            writer.writerow(["t", 12.5, 200, 2.4, 4])
        ev = TableEvaluator.load(path, tiny_space)
        assert ev.evaluate({"A": 4, "B": 200}, "t") == {"power": 2.4, "time": 12.5}

    def test_unknown_benchmark(self, tiny_space, tiny_csv):
        ev = TableEvaluator.load(tiny_csv, tiny_space)
        with pytest.raises(UnknownBenchmarkError):
            ev.evaluate({"A": 1, "B": 100}, "other")

    def test_missing_row(self, tiny_space, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("benchmark,A,B,power,time\nt,1,100,1.0,2.0\n", encoding="utf-8")
        ev = TableEvaluator.load(path, tiny_space)
        with pytest.raises(MissingTableRowError):
            ev.evaluate({"A": 2, "B": 100}, "t")

    @pytest.mark.parametrize(
        "content,message",
        [
            ("", "empty table"),
            ("A,B,power\n", "first column must be 'benchmark'"),
            ("benchmark,A,power\nt,1,1\n", "missing parameter columns"),
            ("benchmark,A,B\nt,1,100\n", "no metric columns"),
            (
                "benchmark,A,B,power\nt,1,100,1\nt,1,100,2\n",
                "duplicate row",
            ),
            ("benchmark,A,B,power\nt,1,100,oops\n", "line 2"),
        ],
    )
    def test_load_rejects_malformed_tables(self, tiny_space, tmp_path, content, message):
        path = tmp_path / "bad.csv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(TableLoadError, match=message):
            TableEvaluator.load(path, tiny_space)


class TestCache:
    def test_counts_unique_and_total(self, tiny_space, tiny_evaluator):
        cache = CachedEvaluator(tiny_evaluator)
        a = cache.evaluate({"A": 1, "B": 100}, "t")
        b = cache.evaluate({"A": 1, "B": 100}, "t")
        cache.evaluate({"A": 4, "B": 100}, "t")
        assert a == b
        assert tiny_evaluator.calls == 2
        # the search counts its own requests, including the 2 already cached
        bench = run(tiny_space, cache, TINY_WEIGHTS, 3).benchmarks["t"]
        assert bench.unique_evaluations == 5
        assert bench.total_requests == 8
        assert tiny_evaluator.calls == 2 + 3

    def test_key_ignores_dict_insertion_order(self, tiny_evaluator):
        cache = CachedEvaluator(tiny_evaluator)
        cache.evaluate({"A": 1, "B": 100}, "t")
        cache.evaluate({"B": 100, "A": 1}, "t")
        assert tiny_evaluator.calls == 1

    def test_benchmark_is_part_of_the_key(self):
        class Echo:
            calls = 0

            def evaluate(self, config, benchmark):
                self.calls += 1
                return {"m": float(len(benchmark))}

        echo = Echo()
        cache = CachedEvaluator(echo)
        assert cache.evaluate({"A": 1}, "x") == {"m": 1.0}
        assert cache.evaluate({"A": 1}, "xy") == {"m": 2.0}
        assert echo.calls == 2

    def test_shared_memo_attributes_unique_per_run(self, tiny_space, tiny_evaluator):
        memo = {}
        first = run(tiny_space, CachedEvaluator(tiny_evaluator, memo=memo), TINY_WEIGHTS, 3)
        second = run(tiny_space, CachedEvaluator(tiny_evaluator, memo=memo), TINY_WEIGHTS, 3)
        assert tiny_evaluator.calls == 5
        for result in (first, second):
            assert result.benchmarks["t"].unique_evaluations == 5
            assert result.benchmarks["t"].total_requests == 8

    def test_results_are_isolated_copies(self, tiny_evaluator):
        cache = CachedEvaluator(tiny_evaluator)
        out = cache.evaluate({"A": 1, "B": 100}, "t")
        out["power"] = -1.0
        assert cache.evaluate({"A": 1, "B": 100}, "t")["power"] > 0

    def test_errors_are_not_cached(self):
        class Flaky:
            def __init__(self):
                self.calls = 0

            def evaluate(self, config, benchmark):
                self.calls += 1
                if self.calls == 1:
                    raise EvaluationError("transient")
                return {"m": 1.0}

        flaky = Flaky()
        cache = CachedEvaluator(flaky)
        with pytest.raises(EvaluationError):
            cache.evaluate({"A": 1}, "t")
        assert cache.evaluate({"A": 1}, "t") == {"m": 1.0}
        assert cache.evaluate({"A": 1}, "t") == {"m": 1.0}
        assert flaky.calls == 2

    def test_concurrent_requests_reach_inner_once(self):
        gate = threading.Event()

        class Slow:
            def __init__(self):
                self.calls = 0
                self._lock = threading.Lock()

            def evaluate(self, config, benchmark):
                with self._lock:
                    self.calls += 1
                gate.wait(timeout=5)
                return {"m": 1.0}

        slow = Slow()
        cache = CachedEvaluator(slow)
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cache.evaluate({"A": 1}, "t"))
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join(timeout=10)
        assert len(results) == 8
        assert all(r == {"m": 1.0} for r in results)
        assert slow.calls == 1

    def test_owner_error_reaches_every_waiter(self, monkeypatch):
        entered = threading.Event()
        gate = threading.Event()
        waiting = threading.Semaphore(0)

        class FailsFirst:
            def __init__(self):
                self.calls = 0

            def evaluate(self, config, benchmark):
                self.calls += 1
                if self.calls == 1:
                    entered.set()
                    gate.wait(timeout=5)
                    raise EvaluationError("owner failed")
                return {"m": 1.0}

        class Waited(Future):
            def result(self, timeout=None):
                waiting.release()
                return super().result(timeout)

        monkeypatch.setattr(evaluators, "Future", Waited)
        backend = FailsFirst()
        cache = CachedEvaluator(backend)
        outcomes = []

        def request():
            try:
                outcomes.append(cache.evaluate({"A": 1}, "t"))
            except EvaluationError as exc:
                outcomes.append(exc)

        owner = threading.Thread(target=request, daemon=True)
        owner.start()
        assert entered.wait(timeout=5)
        waiters = [threading.Thread(target=request, daemon=True) for _ in range(4)]
        for t in waiters:
            t.start()
        # every waiter is blocked on the owner's outcome before it fails
        for _ in waiters:
            assert waiting.acquire(timeout=5)
        gate.set()
        for t in [owner, *waiters]:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in [owner, *waiters])
        assert len(outcomes) == 5
        assert all(isinstance(o, EvaluationError) for o in outcomes)
        assert {str(o) for o in outcomes} == {"owner failed"}
        assert backend.calls == 1
        # the error was not cached
        assert cache.evaluate({"A": 1}, "t") == {"m": 1.0}
        assert backend.calls == 2

    def test_contended_keys_reach_inner_once(self):
        class Counting:
            def __init__(self):
                self.calls = collections.Counter()
                self._lock = threading.Lock()

            def evaluate(self, config, benchmark):
                with self._lock:
                    self.calls[config["A"]] += 1
                time.sleep(0)  # let the other threads pile up on this key
                return {"m": float(config["A"])}

        backend = Counting()
        cache = CachedEvaluator(backend)
        keys = list(range(200))
        wrong = []

        def request_all():
            # every thread walks the keys in the same order, so most keys
            # get concurrent waiters
            for a in keys:
                if cache.evaluate({"A": a}, "t") != {"m": float(a)}:
                    wrong.append(a)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=request_all, daemon=True) for _ in range(8)]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 10
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert backend.calls == {a: 1 for a in keys}

    def test_serial_misses_allocate_no_future(
        self, monkeypatch, tiny_space, tiny_evaluator
    ):
        made = []

        class Counted(Future):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(evaluators, "Future", Counted)
        bench = run(tiny_space, tiny_evaluator, TINY_WEIGHTS, 3).benchmarks["t"]
        assert bench.unique_evaluations == tiny_evaluator.calls == 5
        assert made == []

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=40
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_unique_equals_distinct_keys(self, requests):
        class Zero:
            calls = 0

            def evaluate(self, config, benchmark):
                self.calls += 1
                return {"m": 0.0}

        zero = Zero()
        cache = CachedEvaluator(zero)
        for a, b in requests:
            cache.evaluate({"a": a, "b": b}, "bench")
        assert zero.calls == len(set(requests))


class TestMakeEvaluator:
    def test_synthetic_variants(self, tiny_space):
        assert isinstance(make_evaluator("synthetic", tiny_space), SyntheticEvaluator)
        assert isinstance(
            make_evaluator("synthetic:synth-blk", tiny_space), SyntheticEvaluator
        )

    def test_sepmono(self, tiny_space):
        assert isinstance(make_evaluator("sepmono", tiny_space), SepMonoEvaluator)
        with pytest.raises(ValueError, match="no argument"):
            make_evaluator("sepmono:x", tiny_space)

    def test_table(self, tiny_space, tiny_csv):
        ev = make_evaluator(f"table:{tiny_csv}", tiny_space)
        assert isinstance(ev, TableEvaluator)
        with pytest.raises(ValueError, match="needs a CSV path"):
            make_evaluator("table", tiny_space)

    def test_exec(self, tiny_space):
        ev = make_evaluator("exec:cat -u", tiny_space, timeout=7.0)
        assert ev.timeout == 7.0
        assert ev._argv == ["cat", "-u"]

    def test_unknown_kind(self, tiny_space):
        with pytest.raises(ValueError, match="unknown evaluator spec"):
            make_evaluator("random", tiny_space)
