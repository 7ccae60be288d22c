import ast
import itertools
import json
import re
from pathlib import Path

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

    def test_config_key_on_one_parameter_space(self):
        space = make_space([("A", [1, 2])], ["b"])
        assert [space.config_key(c) for c in enumerate_configs(space)] == [(1,), (2,)]


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

    def test_settings_that_share_a_text(self):
        # a CSV cell "1" cannot tell 1 from "1"; 1 and 1.0 read "1" and "1.0"
        space = make_space([("A", [1, "1", 2]), ("B", [1, 1.0, "x"])], ["b"])
        assert validate(space) == [
            "parameter 'A' has settings 1 and '1' with the same text '1'",
            "parameter 'B' has duplicate setting values",
        ]

    def test_duplicate_benchmark_names(self):
        space = make_space([("A", [1, 2])], ["b", "c", "b", "c", "b"])
        assert validate(space) == ["duplicate benchmark name 'b'", "duplicate benchmark name 'c'"]

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
    def test_full_space(self, tiny_space):
        assert cardinality(tiny_space) == 6
        assert cardinality(make_space([("A", [1, 2, 4])], ["b"])) == 3


class TestEnumerate:
    def test_full_enumeration_order(self, tiny_space):
        configs = list(enumerate_configs(tiny_space))
        # last parameter varies fastest
        assert [tuple(c.values()) for c in configs] == [
            (1, 100), (1, 200), (2, 100), (2, 200), (4, 100), (4, 200),
        ]
        assert all(list(c) == ["A", "B"] for c in configs)

    def test_fixed_values(self, tiny_space):
        configs = list(enumerate_configs(tiny_space, fixed={"A": 2}))
        assert configs == [{"A": 2, "B": 100}, {"A": 2, "B": 200}]

    def test_rejects_bad_fixed(self, tiny_space):
        with pytest.raises(ValueError, match="not a setting"):
            list(enumerate_configs(tiny_space, fixed={"A": 3}))
        with pytest.raises(UnknownParameterError):
            list(enumerate_configs(tiny_space, fixed={"C": 1}))

    @pytest.mark.parametrize("value", [True, 1.0], ids=["true", "float"])
    def test_rejects_fixed_value_equal_to_a_setting_of_another_type(self, tiny_space, value):
        # a setting is matched by type as well as value: True == 1.0 == 1, but only 1 is A's setting
        with pytest.raises(ValueError, match="not a setting of 'A'"):
            list(enumerate_configs(tiny_space, fixed={"A": value}))

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
    def test_fixed_settings_match_product(self, data):
        space = data.draw(small_spaces())
        names = list(space.names)
        fixed = {
            name: data.draw(st.sampled_from(space.parameter(name).settings))
            for name in data.draw(st.lists(st.sampled_from(names), unique=True))
        }
        got = list(enumerate_configs(space, fixed))
        product = itertools.product(*(p.settings for p in space.parameters))
        full = [dict(zip(names, combo)) for combo in product]
        want = [c for c in full if all(c[name] == value for name, value in fixed.items())]
        assert got == want
        assert all(list(c) == names for c in got)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_bounds_slice_the_enumeration(self, data):
        space = data.draw(small_spaces())
        fixed = {
            name: data.draw(st.sampled_from(space.parameter(name).settings))
            for name in data.draw(st.lists(st.sampled_from(space.names), unique=True))
        }
        # past the end and start > stop included
        start = data.draw(st.integers(0, cardinality(space) + 2))
        stop = data.draw(st.none() | st.integers(0, cardinality(space) + 2))
        got = [list(c.items()) for c in enumerate_configs(space, fixed, start, stop)]
        want = [list(c.items()) for c in enumerate_configs(space, fixed)][start:stop]
        assert got == want


class TestSerialization:
    def test_round_trip_file(self, tiny_space, tmp_path):
        path = tmp_path / "space.json"
        save_space(tiny_space, path)
        assert load_space(path) == tiny_space

    def test_malformed_definitions(self, tmp_path):
        path = tmp_path / "bad.json"

        def refused(data, message):  # bytes are written as they stand
            path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
            with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
                load_space(path)

        refused({"parameters": [{"name": "A"}], "benchmarks": []}, "missing key 'settings'")
        for settings in ("abc", [[1], [2]], [None, 2], [True, 2], {"a": 1}):
            refused(
                {"parameters": [{"name": "A", "settings": settings}], "benchmarks": ["b"]},
                "malformed: parameter 'A': settings must be a JSON array of numbers and strings",
            )
        refused(
            {"parameters": [{"name": None, "settings": [1, 2]}], "benchmarks": ["b"]},
            "malformed: parameter name None must be a string",
        )
        for benchmarks in ("abc", [1, "b"], None):
            refused(
                {"parameters": [{"name": "A", "settings": [1, 2]}], "benchmarks": benchmarks},
                "malformed: benchmarks must be a JSON array of strings",
            )
        refused({"parameters": 5, "benchmarks": ["b"]}, "malformed: 'int' object is not iterable")
        refused(b"{not json", "malformed: Expecting property name enclosed in double quotes")
        refused(b"[1, 2]", "not a JSON object")
        refused(b'{"benchmarks": ["\xff"]}', "malformed: 'utf-8' codec can't decode byte 0xff")

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


#: The functions that may parse JSON text: the one file reader, and the two
#: ends of the exec: protocol (a response line, a request line).
JSON_PARSERS = {("design_space", "load_json"), ("evaluators", "_parse_response"), ("mock_worker", "main")}


def parse_sites(node, function=None):
    """The innermost function around each use of ``json.load``/``json.loads``
    under ``node`` (None at module level); an import from ``json`` counts."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.ImportFrom) and node.module == "json":
        yield "from json import"
    if isinstance(node, ast.Attribute) and node.attr in ("load", "loads"):
        if isinstance(node.value, ast.Name) and node.value.id == "json":
            yield function
    for child in ast.iter_child_nodes(node):
        yield from parse_sites(child, function)


def test_json_is_parsed_only_by_the_one_reader_and_the_protocol():
    """Every file dsekit reads goes through ``design_space.load_json``, so
    one rule refuses a malformed one; the protocol lines have their own."""
    found = set()
    for source in (Path(__file__).parents[1] / "src" / "dsekit").glob("*.py"):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        found.update((source.stem, function) for function in parse_sites(tree))
    assert found == JSON_PARSERS
