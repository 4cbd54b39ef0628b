"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish frontend, elaboration and verification failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all exceptions raised by the repro library."""


class VerilogSyntaxError(ReproError):
    """Raised by the Verilog frontend on malformed source text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + location)


class ElaborationError(ReproError):
    """Raised when an AST cannot be elaborated into the RTL IR.

    Typical causes: unknown module instantiated, port width mismatch,
    combinational loops, or inferred latches.
    """


class UnsupportedFeatureError(ReproError):
    """Raised for Verilog constructs outside the supported synthesisable subset."""


class BitblastError(ReproError):
    """Raised when a word-level expression cannot be lowered to the AIG."""


class SolverError(ReproError):
    """Raised on internal SAT-solver failures (inconsistent clause database, ...)."""


class ConflictLimitExceeded(SolverError):
    """Raised when a budgeted SAT call exhausts its conflict limit.

    The persistent solver is left backtracked to level 0 and fully reusable;
    the caller decides how to proceed.  The fraig sweep budgets each
    equivalence proof this way and leaves a candidate pair unmerged when its
    proof runs out of conflicts (see :mod:`repro.aig.fraig`).
    """


class CheckDeadlineExceeded(SolverError):
    """Raised when a budgeted SAT call exceeds its wall-clock deadline.

    The persistent solver is left backtracked to level 0 and fully reusable;
    the caller settles the affected property class as an inconclusive
    ``timeout`` outcome carrying whatever telemetry the aborted call gathered
    (see ``DetectionConfig.check_timeout_s``).
    """


class PropertyError(ReproError):
    """Raised when an interval property is malformed (e.g. empty prove part)."""


class SimulationError(ReproError):
    """Raised by the RTL simulator on missing stimuli or X-propagation issues."""


class ConfigError(ReproError):
    """Raised when a :class:`repro.core.config.DetectionConfig` is invalid.

    Misconfiguration (unknown field or mode, negative class bound, malformed
    input lists) fails at construction time so that a bad config never makes
    it into the middle of a long verification run.
    """


class DesignError(ReproError):
    """Raised when a benchmark design cannot be generated or validated."""
