"""Start-up cost and the public API: a dsekit process loads only the modules
it runs, and every public name is still the object its home module defines."""

import json
import subprocess
import sys
from importlib import import_module

import pytest

import dsekit

#: The modules ``import dsekit.cli`` loads: none that searches.
CLI_FRONT = ["dsekit", "dsekit.cli", "dsekit.errors", "dsekit.objective"]

#: The public API, in its order.
PUBLIC = [
    "__version__",
    "Config", "DesignSpace", "Parameter", "cardinality", "enumerate_configs",
    "load_shipped_space", "load_space", "make_space", "validate",
    "DseError", "DegenerateMetricError", "EvaluationError", "EvaluationTimeoutError",
    "EvaluatorTerminatedError", "GuardExceededError", "MissingTableRowError",
    "ProtocolError", "TableLoadError", "UnknownBenchmarkError", "UnknownParameterError",
    "CachedEvaluator", "ExternalEvaluator", "SepMonoEvaluator", "SyntheticEvaluator",
    "TableEvaluator", "make_evaluator",
    "BenchmarkResult", "EvalRecord", "Partition", "RunResult", "partition", "run",
    "WEIGHT_PROFILES", "NormalizationContext", "build_context", "objective",
    "parse_weights", "validate_weights",
    "ComparisonReport", "OracleResult", "compare", "oracle_search",
    "pareto_front", "select_tradeoff",
]


def fresh(code: str):
    """Run `code` in a fresh interpreter; the JSON its last stdout line holds."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code: str) -> list[str]:
    """The dsekit modules a fresh interpreter holds after running `code`."""
    return fresh(
        code + "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'dsekit')))"
    )


class TestStartUp:
    @pytest.mark.parametrize(
        "code, loaded",
        [
            ("import dsekit", ["dsekit", "dsekit.errors", "dsekit.objective"]),
            ("import dsekit.cli", CLI_FRONT),
            ("from dsekit.cli import main\nmain.main(['--version'], standalone_mode=False)", CLI_FRONT),
            ("from dsekit.cli import main\nmain.main(['run', '--help'], standalone_mode=False)", CLI_FRONT),
            (
                "import dsekit.mock_worker",
                ["dsekit", "dsekit.design_space", "dsekit.errors", "dsekit.evaluators",
                 "dsekit.mock_worker", "dsekit.objective"],
            ),
        ],
        ids=["package", "cli", "version", "run-help", "mock-worker"],
    )
    def test_only_the_modules_it_runs_are_loaded(self, code, loaded):
        assert loaded_after(code) == loaded

    def test_each_name_perfbench_patches_on_cli_resolves_in_a_fresh_process(self):
        # the names perfbench/tracing.py wraps; each must name its home's function
        names = ["run_search", "oracle_search", "compare_runs", "pareto_front", "select_tradeoff"]
        resolved = fresh(
            "import json\nfrom dsekit import cli\n"
            f"print(json.dumps({{n: (f := getattr(cli, n)).__module__ + '.' + f.__name__ for n in {names!r}}}))"
        )
        assert resolved == {
            "run_search": "dsekit.explorer.run",
            "oracle_search": "dsekit.oracle_compare.oracle_search",
            "compare_runs": "dsekit.oracle_compare.compare",
            "pareto_front": "dsekit.pareto.pareto_front",
            "select_tradeoff": "dsekit.pareto.select_tradeoff",
        }

    def test_an_unknown_cli_name_is_an_attribute_error(self):
        from dsekit import cli

        with pytest.raises(AttributeError, match="'dsekit.cli' has no attribute 'nope'"):
            cli.nope


class TestPublicApi:
    def test_all_keeps_its_names_and_order(self):
        assert dsekit.__all__ == PUBLIC

    def test_each_name_is_the_object_its_home_module_defines(self):
        homes = {name: module for module, names in dsekit._HOMES.items() for name in names}
        assert sorted(homes) == sorted(PUBLIC[1:])
        for name in PUBLIC[1:]:
            assert getattr(dsekit, name) is getattr(import_module(f"dsekit.{homes[name]}"), name), name

    def test_objective_stays_the_function_once_its_module_is_imported(self):
        kinds = fresh(
            "import json, dsekit.objective\nimport dsekit\nfrom dsekit import objective\n"
            "print(json.dumps([type(dsekit.objective).__name__, type(objective).__name__]))"
        )
        assert kinds == ["function", "function"]

    def test_dir_covers_all(self):
        assert set(PUBLIC) <= set(dir(dsekit))

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="'dsekit' has no attribute 'nope'"):
            dsekit.nope
        with pytest.raises(ImportError):
            from dsekit import nope  # noqa: F401
