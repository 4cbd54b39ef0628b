"""Incremental SAT solving: the CDCL solver and its shared context."""

from repro.sat.solver import SatSolver, SatResult
from repro.sat.context import ContextSolveOutcome, SolverContext

__all__ = [
    "SatSolver",
    "SatResult",
    "ContextSolveOutcome",
    "SolverContext",
]
