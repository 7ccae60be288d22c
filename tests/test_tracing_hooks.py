"""The benchmark's tracer patches dsekit names; renaming one must fail here.

``perfbench/tracing.py`` replaces functions and methods of several modules
by name while a traced benchmark pass runs. It is loaded from its file, so
the benchmark stays a standalone script, and it is used exactly as the
benchmark uses it.
"""

import importlib.util
from pathlib import Path

from dsekit import CachedEvaluator, run
from dsekit.objective import NormalizationContext

from .conftest import TINY_WEIGHTS, TinyEvaluator

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_run_records_layer_spans_and_restores_names(tiny_space):
    tracing = load_tracing()
    original = NormalizationContext.normalize

    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert NormalizationContext.normalize is not original
        result = run(tiny_space, CachedEvaluator(TinyEvaluator()), TINY_WEIGHTS, 3)

    assert NormalizationContext.normalize is original
    bench = result.benchmarks["t"]
    assert bench.error is None
    spans = tracer.spans()
    assert len(spans.of("evaluators.cache")) == bench.total_requests == 8
    assert len(spans.of("objective.normalize")) == bench.unique_evaluations == 5
    assert spans.counters["design_space.enumerate.configs"] == 3
