import csv
import itertools

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
from dsekit.errors import (
    MissingTableRowError,
    TableLoadError,
    UnknownBenchmarkError,
)
from dsekit.evaluators import SYNTHETIC_PROFILES, csv_rows, look_ahead

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
        # bit for bit: the model does the reference's arithmetic in its order
        assert SyntheticEvaluator(profile).evaluate(config, "b") == synthetic_metrics(config, profile)

    @given(config=synth_configs(extended=True))
    @settings(max_examples=40, deadline=None)
    def test_extended_parameters_match_independent_model(self, config):
        assert SyntheticEvaluator("synth-blk").evaluate(config, "b") == synthetic_metrics(config, "synth-blk")

    def test_wider_machine_is_faster_and_hotter(self):
        narrow = {"cores": 4, "freq": 2800, "l1i": 32, "l1d": 32, "l2": 512,
                  "l3": 4096, "width": 2, "rob": 32, "bpred": "BPredX"}
        wide = dict(narrow, width=16, rob=256, bpred="BPredX2")
        m_narrow = SyntheticEvaluator("synth-blk").evaluate(narrow, "b")
        m_wide = SyntheticEvaluator("synth-blk").evaluate(wide, "b")
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
        # the first missing one, in the order cores, freq, l1i, l1d, l2, l3
        for config, missing in [({"freq": 2800}, "'cores'"), ({"cores": 2, "freq": 1700}, "'l1i'")]:
            with pytest.raises(EvaluationError, match=f"requires parameter {missing} in"):
                SyntheticEvaluator("synth-blk").evaluate(config, "b")

    @pytest.mark.parametrize(
        "setting",
        [
            {"cores": 0},  # ZeroDivisionError
            {"cores": "a"},  # ValueError from float()
            {"cores": None},  # TypeError from float()
            {"width": 0},  # math domain error from log2
            {"rob": -32},  # math domain error from log2
            {"freq": 1e200},  # OverflowError from the cube
            {"width": None},  # present, so used: TypeError from float()
        ],
        ids=["zero-cores", "string-cores", "null-cores", "zero-width", "negative-rob", "huge-freq", "null-width"],
    )
    def test_setting_outside_the_model_is_an_evaluation_error(self, setting):
        config = {"cores": 4, "freq": 2800, "l1i": 32, "l1d": 32, "l2": 512, "l3": 4096, **setting}
        with pytest.raises(EvaluationError, match="synthetic model cannot evaluate configuration") as info:
            SyntheticEvaluator("synth-blk").evaluate(config, "b")
        assert str(config) in str(info.value)

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
                "line 3: duplicate row",
            ),
            ("benchmark,A,B,power\nt,1,100,oops\n", "line 2: could not convert string to float: 'oops'"),
        ],
    )
    def test_load_rejects_malformed_tables(self, tiny_space, tmp_path, content, message):
        path = tmp_path / "bad.csv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(TableLoadError) as caught:
            TableEvaluator.load(path, tiny_space)
        assert str(caught.value).startswith(f"{path}: malformed: {message}")

    @pytest.mark.parametrize(
        "row, more", [("t,1,200,1.0", "fewer"), ("t,1,200,1.0,2.0,3.0", "more")]
    )
    def test_load_rejects_a_row_of_another_length(self, tiny_space, tmp_path, row, more):
        path = tmp_path / "bad.csv"
        path.write_text(f"benchmark,A,B,power,time\nt,1,100,1.0,2.0\n{row}\n", encoding="utf-8")
        with pytest.raises(TableLoadError) as caught:
            TableEvaluator.load(path, tiny_space)
        assert str(caught.value) == f"{path}: malformed: line 3 has {more} cells than the header"

    @pytest.mark.parametrize("text, setting", [("2", 2), ("2.0", 2.0), ("x2", "x2")])
    def test_a_cell_reads_as_a_setting_else_a_number_else_its_text(self, tiny_space, tmp_path, text, setting):
        path = tmp_path / "t.csv"
        path.write_text(f"benchmark,A,B,power\nt,{text},100,1.0\n", encoding="utf-8")
        with open(path, newline="", encoding="utf-8") as fh:
            [(key, config, cells)] = csv_rows(csv.DictReader(fh), tiny_space, lambda *row: row)
        assert key == ("t", (setting, 100))
        assert config == {"A": setting, "B": 100} and type(config["A"]) is type(setting)
        assert cells["A"] == text
        assert TableEvaluator.load(path, tiny_space).evaluate(config, "t") == {"power": 1.0}


class Mirror:
    """Returns the configuration itself as its metrics; counts calls."""

    def __init__(self):
        self.calls = 0

    def evaluate(self, config, benchmark):
        self.calls += 1
        return {k: float(v) for k, v in config.items()}


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

    def test_one_parameter_config_hits(self):
        backend = Mirror()
        cache = CachedEvaluator(backend)
        assert cache.evaluate({"A": 1}, "t") == {"A": 1.0}
        assert cache.evaluate({"A": 1}, "t") == {"A": 1.0}
        assert backend.calls == 1

    @pytest.mark.parametrize(
        "first, second",
        [({"A": 1, "B": 2}, {"A": 1, "C": 2}), ({"A": 1}, {"A": 1, "B": 2})],
    )
    def test_key_sets_sharing_a_memo_never_collide(self, first, second):
        backend = Mirror()
        cache = CachedEvaluator(backend)
        for config in (first, second, first, second):
            assert cache.evaluate(config, "t") == {
                k: float(v) for k, v in config.items()
            }
        assert backend.calls == 2

    def test_switching_key_sets_keeps_earlier_entries(self):
        backend = Mirror()
        cache = CachedEvaluator(backend)
        cache.evaluate({"A": 1, "B": 2}, "t")
        cache.evaluate({"A": 1}, "t")
        assert cache.evaluate({"B": 2, "A": 1}, "t") == {"A": 1.0, "B": 2.0}
        assert backend.calls == 2

    def test_shared_memo_attributes_unique_per_run(self, tiny_space, tiny_evaluator):
        cache = CachedEvaluator(tiny_evaluator)
        first = run(tiny_space, cache, TINY_WEIGHTS, 3)
        second = run(tiny_space, cache, TINY_WEIGHTS, 3)
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

    def test_submit_is_forwarded_for_misses_only(self):
        class Hinted:
            def __init__(self):
                self.submitted = []

            def submit(self, config, benchmark):
                self.submitted.append(dict(config))
                return True

            def evaluate(self, config, benchmark):
                return {"m": float(config["A"])}

        assert not hasattr(CachedEvaluator(SyntheticEvaluator()), "submit")
        backend = Hinted()
        cache = CachedEvaluator(backend)
        cache.evaluate({"A": 1}, "t")
        assert cache.submit({"A": 1}, "t") is True  # a hit: accepted, nothing sent
        assert cache.submit({"A": 2}, "t") is True
        assert backend.submitted == [{"A": 2}]

    def test_look_ahead_submits_past_a_hit(self):
        class TwoSlots:
            """Holds up to two submitted requests; logs submissions and evaluations."""

            def __init__(self):
                self.held = []
                self.events = []

            def submit(self, config, benchmark):
                if len(self.held) == 2:
                    return False
                self.held.append(config["A"])
                self.events.append(("submit", config["A"]))
                return True

            def evaluate(self, config, benchmark):
                if config["A"] in self.held:
                    self.held.remove(config["A"])
                self.events.append(("evaluate", config["A"]))
                return {"m": float(config["A"])}

        backend = TwoSlots()
        cache = CachedEvaluator(backend)
        cache.evaluate({"A": 2}, "t")
        backend.events.clear()
        for config in look_ahead(cache, [{"A": a} for a in (1, 2, 3)], ["t"]):
            cache.evaluate(config, "t")
        # the hit takes no slot, so the miss behind it is sent before A=1 is evaluated
        assert backend.events == [("submit", 1), ("submit", 3), ("evaluate", 1), ("evaluate", 3)]

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

    def test_exec_needs_a_command_line(self, tiny_space):
        with pytest.raises(ValueError, match="exec evaluator needs a command line"):
            make_evaluator("exec:", tiny_space)

    def test_unknown_kind(self, tiny_space):
        with pytest.raises(ValueError, match="unknown evaluator spec"):
            make_evaluator("random", tiny_space)
