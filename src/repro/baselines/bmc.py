"""Bounded-model-checking baseline (golden-model equivalence within a bound).

Representative of the BMC-based detection methods of Sec. II ([8], [17]): the
design under test is unrolled for ``k`` cycles from its reset state next to a
*golden* (known Trojan-free) RTL model, both fed the same — fully symbolic —
input sequence, and a SAT solver searches for an input sequence that makes
any common output differ within the bound.

Since the sequential detection mode landed, the actual unrolling engine lives
in :class:`repro.core.unroll.SequentialUnroller`; this baseline is a thin
wrapper that checks *all* common outputs in one miter and reports the classic
``BmcResult``.  The incremental behaviour is unchanged: the unrolled frames,
the Tseitin encoding and the SAT solver state persist across
:meth:`BoundedTrojanChecker.check` calls, so checking bound ``k+1`` after
bound ``k`` only encodes the one new transition frame and reuses every clause
(and everything the solver learned) from the earlier bounds.

This baseline exposes the two limitations the paper addresses:

* it needs a golden model (the paper's method does not), and
* it is only as strong as the bound: a Trojan triggered by a long counter or
  by an event sequence longer than ``k`` cycles is invisible, whereas the
  symbolic starting state of IPC covers arbitrarily long trigger histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.unroll import SequentialUnroller
from repro.rtl.ir import Module
from repro.sat.context import SolverContext


@dataclass
class BmcResult:
    """Outcome of a bounded golden-model equivalence check."""

    bound: int
    trojan_detected: bool
    failing_cycle: Optional[int] = None
    failing_signals: List[str] = field(default_factory=list)
    runtime_seconds: float = 0.0
    sat_conflicts: int = 0
    # Incremental-reuse accounting of this check against the shared context.
    cnf_new_clauses: int = 0
    cnf_reused_clauses: int = 0

    def summary(self) -> str:
        if self.trojan_detected:
            return (
                f"BMC (bound {self.bound}): divergence from the golden model at cycle "
                f"{self.failing_cycle} on {', '.join(self.failing_signals[:4])}"
            )
        return f"BMC (bound {self.bound}): no divergence found within the bound"


class BoundedTrojanChecker:
    """Bounded equivalence of a design against a golden RTL model.

    One checker instance owns a persistent unrolling and solver context;
    repeated :meth:`check` calls with growing bounds reuse all earlier work.
    """

    def __init__(
        self,
        design: Module,
        golden: Module,
        reset_values: Optional[Dict[str, int]] = None,
    ) -> None:
        self._unroller = SequentialUnroller(design, golden, reset_values=reset_values)

    @property
    def unroller(self) -> SequentialUnroller:
        return self._unroller

    @property
    def solver_context(self) -> SolverContext:
        return self._unroller.solver_context

    def check(self, bound: int, checked_outputs: Optional[List[str]] = None) -> BmcResult:
        """Search for an input sequence of length ``bound`` that separates the
        design from the golden model on any common output.

        Degenerate checks keep their classic vacuous semantics: a bound of 0
        compares no cycles and a design sharing no output with the golden
        model compares no signals — both return "no divergence found" (the
        sequential *mode* treats the latter as a configuration error, but
        this baseline's contract predates it).
        """
        if not checked_outputs:
            # Classic fallback (`checked_outputs or [...]`): None *and* an
            # empty list both mean "every common output".
            checked_outputs = [
                name
                for name in self._unroller.design.outputs
                if name in self._unroller.golden.outputs
            ]
        if bound < 1 or not checked_outputs:
            return BmcResult(bound=bound, trojan_detected=False)
        sequential = self._unroller.check_outputs(checked_outputs, bound)
        return BmcResult(
            bound=bound,
            trojan_detected=not sequential.holds,
            failing_cycle=sequential.first_divergence_cycle,
            failing_signals=list(sequential.failing_outputs),
            runtime_seconds=sequential.runtime_seconds,
            sat_conflicts=sequential.sat_conflicts,
            cnf_new_clauses=sequential.cnf_new_clauses,
            cnf_reused_clauses=sequential.cnf_reused_clauses,
        )
