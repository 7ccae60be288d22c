import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import (
    UnknownParameterError,
    cardinality,
    enumerate_configs,
    load_shipped_space,
    load_space,
    make_space,
    validate,
)
from dsekit.design_space import (
    save_space,
    shipped_space_path,
    space_from_dict,
    space_to_dict,
    validation_warnings,
)


def small_spaces():
    """Strategy: spaces with 1-4 parameters of 1-4 distinct settings each."""
    param = st.lists(st.integers(0, 50), min_size=1, max_size=4, unique=True)
    return st.lists(param, min_size=1, max_size=4).map(
        lambda cols: make_space(
            [(f"p{i}", col) for i, col in enumerate(cols)], ["b"]
        )
    )


class TestSpaceBasics:
    def test_names_and_lookup(self, tiny_space):
        assert tiny_space.names == ("A", "B")
        assert tiny_space.parameter("A").settings == (1, 2, 4)
        assert tiny_space.parameter("B").first == 100
        assert tiny_space.parameter("B").last == 200
        with pytest.raises(UnknownParameterError):
            tiny_space.parameter("C")

    def test_multi_setting_names_skips_singletons(self):
        space = make_space([("A", [1, 2]), ("S", [7]), ("B", [3, 4])], ["b"])
        assert space.multi_setting_names() == ("A", "B")

    def test_config_key_is_declaration_ordered(self, tiny_space):
        assert tiny_space.config_key({"B": 200, "A": 1}) == (1, 200)


class TestValidate:
    def test_valid_space(self, tiny_space):
        assert validate(tiny_space) == []

    def test_empty_space(self):
        violations = validate(make_space([], []))
        assert any("no parameters" in v for v in violations)
        assert any("no benchmarks" in v for v in violations)

    def test_duplicate_names_and_settings(self):
        space = make_space([("A", [1, 1]), ("A", [2])], ["b"])
        violations = validate(space)
        assert any("duplicate parameter name" in v for v in violations)
        assert any("duplicate setting values" in v for v in violations)

    def test_empty_settings(self):
        violations = validate(make_space([("A", [])], ["b"]))
        assert any("empty settings list" in v for v in violations)

    def test_descending_numeric_settings_warn_only(self):
        space = make_space([("A", [4, 2, 1])], ["b"])
        assert validate(space) == []
        assert len(validation_warnings(space)) == 1

    def test_string_settings_do_not_warn(self):
        space = make_space([("A", ["z", "a"])], ["b"])
        assert validation_warnings(space) == []


class TestCardinality:
    def test_full_and_subset(self, tiny_space):
        assert cardinality(tiny_space) == 6
        assert cardinality(tiny_space, ["A"]) == 3
        assert cardinality(tiny_space, []) == 1


class TestEnumerate:
    def test_full_enumeration_order(self, tiny_space):
        configs = list(enumerate_configs(tiny_space))
        # last parameter varies fastest
        assert [tuple(c.values()) for c in configs] == [
            (1, 100), (1, 200), (2, 100), (2, 200), (4, 100), (4, 200),
        ]
        assert all(list(c) == ["A", "B"] for c in configs)

    def test_free_order_controls_enumeration(self, tiny_space):
        configs = list(enumerate_configs(tiny_space, free=["B", "A"]))
        assert [tuple(c.values()) for c in configs] == [
            (1, 100), (2, 100), (4, 100), (1, 200), (2, 200), (4, 200),
        ]
        # dict key order stays declaration order regardless of free order
        assert all(list(c) == ["A", "B"] for c in configs)

    def test_fixed_values(self, tiny_space):
        configs = list(enumerate_configs(tiny_space, fixed={"A": 2}))
        assert configs == [{"A": 2, "B": 100}, {"A": 2, "B": 200}]

    def test_rejects_bad_free_fixed_split(self, tiny_space):
        with pytest.raises(ValueError, match="both free and fixed"):
            list(enumerate_configs(tiny_space, free=["A", "B"], fixed={"A": 1}))
        with pytest.raises(ValueError, match="neither free nor fixed"):
            list(enumerate_configs(tiny_space, free=["A"]))
        with pytest.raises(ValueError, match="duplicate"):
            list(enumerate_configs(tiny_space, free=["A", "A"], fixed={"B": 100}))
        with pytest.raises(ValueError, match="not a setting"):
            list(enumerate_configs(tiny_space, fixed={"A": 3}))
        with pytest.raises(UnknownParameterError):
            list(enumerate_configs(tiny_space, free=["A", "B", "C"]))

    @given(small_spaces())
    @settings(max_examples=60, deadline=None)
    def test_enumeration_is_complete_and_distinct(self, space):
        configs = list(enumerate_configs(space))
        assert len(configs) == cardinality(space)
        keys = {space.config_key(c) for c in configs}
        assert len(keys) == len(configs)
        for config in configs:
            assert tuple(config) == space.names
            assert all(config[name] in space.parameter(name).settings for name in config)

    @given(small_spaces())
    @settings(max_examples=30, deadline=None)
    def test_enumeration_is_deterministic(self, space):
        first = [space.config_key(c) for c in enumerate_configs(space)]
        second = [space.config_key(c) for c in enumerate_configs(space)]
        assert first == second

    @given(small_spaces())
    @settings(max_examples=30, deadline=None)
    def test_enumeration_matches_itertools_product(self, space):
        got = [tuple(c.values()) for c in enumerate_configs(space)]
        want = list(itertools.product(*(p.settings for p in space.parameters)))
        assert got == want

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_free_order_and_fixed_settings_match_product(self, data):
        space = data.draw(small_spaces())
        names = list(space.names)
        order = data.draw(st.permutations(names))
        free = order[: data.draw(st.integers(0, len(order)))]
        fixed = {
            name: data.draw(st.sampled_from(space.parameter(name).settings))
            for name in names
            if name not in free
        }
        got = list(enumerate_configs(space, free=free, fixed=fixed))
        combos = list(itertools.product(*(space.parameter(n).settings for n in free)))
        want = []
        for combo in combos:
            assignment = {**fixed, **dict(zip(free, combo))}
            want.append({name: assignment[name] for name in names})
        assert got == want
        # lexicographic in free order, with the last free parameter fastest
        assert [tuple(c[n] for n in free) for c in got] == combos
        assert all(list(c) == names for c in got)


class TestSerialization:
    def test_round_trip_dict(self, tiny_space):
        assert space_from_dict(space_to_dict(tiny_space)) == tiny_space

    def test_round_trip_file(self, tiny_space, tmp_path):
        path = tmp_path / "space.json"
        save_space(tiny_space, path)
        assert load_space(path) == tiny_space

    def test_malformed_definitions(self, tmp_path):
        with pytest.raises(ValueError, match="malformed"):
            space_from_dict({"parameters": [{"name": "A"}], "benchmarks": []})
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_space(path)

    def test_mixed_setting_types_survive_round_trip(self, tmp_path):
        space = make_space([("bpred", ["BPredX", "BPredX2"]), ("f", [1.5, 2.5])], ["b"])
        path = tmp_path / "space.json"
        save_space(space, path)
        assert load_space(path) == space


class TestShippedSpaces:
    @pytest.mark.parametrize(
        "name", ["parsec-small", "parsec-large", "splash2-small", "splash2-large"]
    )
    def test_loads_and_validates(self, name):
        space = load_shipped_space(name)
        assert validate(space) == []
        assert validation_warnings(space) == []

    def test_unknown_name(self):
        with pytest.raises(FileNotFoundError):
            shipped_space_path("nonexistent")

    def test_files_are_plain_json(self):
        data = json.loads(shipped_space_path("parsec-small").read_text(encoding="utf-8"))
        assert set(data) == {"parameters", "benchmarks"}
