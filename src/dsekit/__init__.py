"""dsekit — design-space exploration for discrete black-box parameter tuning.

Finds near-optimal configurations of discrete parameter spaces (the shipped
examples model multicore processors) against expensive black-box evaluators,
using a four-phase search: one-shot significance analysis, significance-
ordered set partitioning under an exhaustive-search budget, bounded
exhaustive search, and directional greedy search. Includes Pareto-front
analysis, a brute-force oracle for gap/speedup reporting, pluggable
evaluation backends, and a CLI harness producing reproducible run artifacts.
"""

__version__ = "0.1.0"

from .design_space import (  # noqa: E402
    Config,
    DesignSpace,
    Parameter,
    cardinality,
    enumerate_configs,
    load_shipped_space,
    load_space,
    make_space,
    validate,
)
from .errors import (  # noqa: E402
    DegenerateMetricError,
    DseError,
    EvaluationError,
    EvaluationTimeoutError,
    EvaluatorTerminatedError,
    GuardExceededError,
    MissingTableRowError,
    ProtocolError,
    TableLoadError,
    UnknownBenchmarkError,
    UnknownParameterError,
)
from .evaluators import (  # noqa: E402
    CachedEvaluator,
    ExternalEvaluator,
    SepMonoEvaluator,
    SyntheticEvaluator,
    TableEvaluator,
    make_evaluator,
)
from .explorer import (  # noqa: E402
    BenchmarkResult,
    EvalRecord,
    Partition,
    RunResult,
    partition,
    run,
)
from .objective import (  # noqa: E402
    WEIGHT_PROFILES,
    NormalizationContext,
    build_context,
    objective,
    parse_weights,
    validate_weights,
)
from .oracle_compare import ComparisonReport, OracleResult, compare, oracle_search  # noqa: E402
from .pareto import pareto_front, select_tradeoff  # noqa: E402

__all__ = [
    "__version__",
    "Config",
    "DesignSpace",
    "Parameter",
    "cardinality",
    "enumerate_configs",
    "load_shipped_space",
    "load_space",
    "make_space",
    "validate",
    "DseError",
    "DegenerateMetricError",
    "EvaluationError",
    "EvaluationTimeoutError",
    "EvaluatorTerminatedError",
    "GuardExceededError",
    "MissingTableRowError",
    "ProtocolError",
    "TableLoadError",
    "UnknownBenchmarkError",
    "UnknownParameterError",
    "CachedEvaluator",
    "ExternalEvaluator",
    "SepMonoEvaluator",
    "SyntheticEvaluator",
    "TableEvaluator",
    "make_evaluator",
    "BenchmarkResult",
    "EvalRecord",
    "Partition",
    "RunResult",
    "partition",
    "run",
    "WEIGHT_PROFILES",
    "NormalizationContext",
    "build_context",
    "objective",
    "parse_weights",
    "validate_weights",
    "ComparisonReport",
    "OracleResult",
    "compare",
    "oracle_search",
    "pareto_front",
    "select_tradeoff",
]
