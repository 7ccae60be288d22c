"""dsekit — design-space exploration for discrete black-box parameter tuning.

Finds near-optimal configurations of discrete parameter spaces (the shipped
examples model multicore processors) against expensive black-box evaluators,
using a four-phase search: one-shot significance analysis, significance-
ordered set partitioning under an exhaustive-search budget, bounded
exhaustive search, and directional greedy search. Includes Pareto-front
analysis, a brute-force oracle for gap/speedup reporting, pluggable
evaluation backends, and a CLI harness producing reproducible run artifacts.

``import dsekit`` is cheap: each public name imports its home module on
first access (``_HOMES``, PEP 562), so a process loads only the modules it
uses. ``objective`` is bound eagerly: it also names its module, which the
first import of ``dsekit.objective`` would otherwise leave bound here.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name by its home module; ``__all__`` keeps this order.
_HOMES = {
    "design_space": (
        "Config", "DesignSpace", "Parameter", "cardinality", "enumerate_configs",
        "load_shipped_space", "load_space", "make_space", "validate",
    ),
    "errors": (
        "DseError", "DegenerateMetricError", "EvaluationError", "EvaluationTimeoutError",
        "EvaluatorTerminatedError", "GuardExceededError", "MissingTableRowError",
        "ProtocolError", "TableLoadError", "UnknownBenchmarkError", "UnknownParameterError",
    ),
    "evaluators": (
        "CachedEvaluator", "ExternalEvaluator", "SepMonoEvaluator", "SyntheticEvaluator",
        "TableEvaluator", "make_evaluator",
    ),
    "explorer": ("BenchmarkResult", "EvalRecord", "Partition", "RunResult", "partition", "run"),
    "objective": (
        "WEIGHT_PROFILES", "NormalizationContext", "build_context", "objective",
        "parse_weights", "validate_weights",
    ),
    "oracle_compare": ("ComparisonReport", "OracleResult", "compare", "oracle_search"),
    "pareto": ("pareto_front", "select_tradeoff"),
}

__all__ = ["__version__", *(name for names in _HOMES.values() for name in names)]


def _bind_on_first_use(namespace: dict, homes: dict):
    """A module ``__getattr__`` for `namespace`: a name of `homes` imports its
    home, (module, name there or None for the module), and is stored."""

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module, attr = homes[name]
        value = import_module(f"{__name__}.{module}")
        namespace[name] = value if attr is None else getattr(value, attr)
        return namespace[name]

    return __getattr__


__getattr__ = _bind_on_first_use(
    globals(), {name: (module, name) for module, names in _HOMES.items() for name in names}
)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


from .objective import objective  # noqa: E402 -- eager: see the module docstring
