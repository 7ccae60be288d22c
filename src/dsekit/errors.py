"""Exception types shared across the package."""


class DseError(Exception):
    """Base class for all package-specific failures."""


class UnknownParameterError(DseError):
    """A parameter name does not exist in the design space."""


class DegenerateMetricError(DseError):
    """A metric whose phase-1 maximum is zero was given nonzero weight."""


class EvaluationError(DseError):
    """An evaluator backend failed to produce metrics for a configuration."""


class UnknownBenchmarkError(EvaluationError):
    """The benchmark identifier is not known to the evaluator backend."""


class MissingTableRowError(EvaluationError):
    """A replay table has no row for the requested (benchmark, config)."""


class TableLoadError(DseError):
    """A replay table file is malformed (bad header, duplicate rows, ...)."""


class ProtocolError(EvaluationError):
    """The external worker sent a malformed or mismatched response."""


class EvaluatorTerminatedError(EvaluationError):
    """The external worker process could not start, exited or closed its pipe."""


class EvaluationTimeoutError(EvaluationError):
    """The external worker did not answer within the configured timeout."""


class GuardExceededError(DseError):
    """Full enumeration refused: space cardinality exceeds the guard."""
