"""A persistent CNF/SAT context shared by every check of a verification run.

:class:`SolverContext` couples one :class:`repro.aig.cnf.CnfBuilder` (the
node→variable cache and Tseitin clauses of the shared AIG) with one
:class:`repro.sat.solver.SatSolver`.  Both live for the whole run:

* encoding a cone that overlaps an earlier check reuses its CNF variables and
  clauses instead of re-running Tseitin conversion;
* only clauses emitted since the previous solve call are fed to the solver,
  so the solver keeps its clause database, learned clauses, VSIDS activities
  and saved phases across calls;
* per-call goals (property miters, non-merged assumptions) are passed as
  solver assumptions, never asserted permanently — one failed or vacuous
  check cannot constrain the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.aig.aig import AIG
from repro.aig.cnf import CnfBuilder
from repro.obs.trace import span as _span
from repro.sat.solver import SatResult, SatSolver


@dataclass
class ContextSolveOutcome:
    """Result of one context solve call plus clause-reuse accounting."""

    result: SatResult
    #: Clauses newly encoded and fed to the solver by this call.
    new_clauses: int
    #: Clauses that were already in the solver before this call.
    reused_clauses: int

    @property
    def satisfiable(self) -> bool:
        return self.result.satisfiable


class SolverContext:
    """Incremental CNF encoding and SAT solving over one shared AIG."""

    def __init__(self, aig: AIG) -> None:
        self._builder = CnfBuilder(aig)
        self._solver = SatSolver()
        self._clauses_fed = 0

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #

    @property
    def builder(self) -> CnfBuilder:
        return self._builder

    def literal_of(self, aig_literal: int) -> int:
        """Encode the cone of ``aig_literal``; unchanged cones are cache hits."""
        return self._builder.literal_of(aig_literal)

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #

    def flush(self) -> int:
        """Feed clauses emitted since the last flush to the solver."""
        clauses = self._builder.cnf.clauses
        new_clauses = clauses[self._clauses_fed :]
        for clause in new_clauses:
            self._solver.add_clause(clause)
        self._solver.ensure_vars(self._builder.cnf.num_vars)
        self._clauses_fed = len(clauses)
        return len(new_clauses)

    def solve(
        self,
        assumptions: Optional[Iterable[int]] = None,
        conflict_limit: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> ContextSolveOutcome:
        """Flush newly encoded clauses and solve under ``assumptions``."""
        reused = self._clauses_fed
        new_clauses = self.flush()
        with _span("solve", new_clauses=new_clauses):
            result = self._solver.solve(
                assumptions=assumptions,
                conflict_limit=conflict_limit,
                deadline_s=deadline_s,
            )
        return ContextSolveOutcome(
            result=result,
            new_clauses=new_clauses,
            reused_clauses=reused,
        )

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    @property
    def num_vars(self) -> int:
        return self._builder.cnf.num_vars

    @property
    def num_clauses(self) -> int:
        return self._builder.cnf.num_clauses

    @property
    def clauses_fed(self) -> int:
        return self._clauses_fed

    @property
    def solve_calls(self) -> int:
        return self._solver.solve_calls

    @property
    def cumulative_conflicts(self) -> int:
        return self._solver.total_conflicts

    @property
    def cumulative_restarts(self) -> int:
        return self._solver.total_restarts

    @property
    def cumulative_learned_clauses(self) -> int:
        return self._solver.total_learned_clauses

    @property
    def cumulative_deleted_clauses(self) -> int:
        return self._solver.total_deleted_clauses

    def reuse_summary(self) -> str:
        """One-line human-readable account of the context's clause reuse."""
        return (
            f"{self.solve_calls} solver calls, "
            f"{self.num_clauses} CNF clauses over {self.num_vars} variables, "
            f"{self.cumulative_conflicts} conflicts"
        )
