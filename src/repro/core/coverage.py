"""Signal coverage check (Sec. IV-D, case 2 / Algorithm 1, line 17).

A hardware Trojan whose trigger does not depend on the IP inputs (for example
a cycle counter started by reset) and whose payload stays outside the input
fanout cone is invisible to the init/fanout properties: none of its signals
ever appears in a prove part.  The coverage check closes that gap by a purely
structural argument — every state or output signal of the IP must occur in
the prove part of some property; the remaining signals form the *uncovered
signal set* (UCS) that the verification engineer must inspect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.rtl.fanout import FanoutAnalysis
from repro.rtl.ir import Module
from repro.rtl.netlist import DependencyGraph


@dataclass
class CoverageResult:
    """Outcome of the coverage check."""

    covered: Set[str] = field(default_factory=set)
    uncovered: Set[str] = field(default_factory=set)
    # For every uncovered signal: the state/output signals it can influence
    # (one clock cycle of structural fanout), to help locate a payload.
    influence: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when every state and output signal is covered by a property."""
        return not self.uncovered

    def summary(self) -> str:
        if self.complete:
            return "coverage check passed: all state and output signals are covered"
        lines = [f"coverage check failed: {len(self.uncovered)} uncovered signal(s)"]
        for signal in sorted(self.uncovered):
            influenced = ", ".join(sorted(self.influence.get(signal, set()))) or "-"
            lines.append(f"  {signal} (influences: {influenced})")
        return "\n".join(lines)


def check_signal_coverage(
    module: Module,
    analysis: FanoutAnalysis,
    scheduled: int,
    graph: Optional[DependencyGraph] = None,
) -> CoverageResult:
    """Check that the checked properties cover all state and output signals.

    ``scheduled`` is the number of properties the run checked: the init
    property proves placement class 1 and fanout property ``k`` class
    ``k + 1``, so a run truncated below ``analysis.placement_depth``
    covers only the classes it proved.
    """
    graph = graph or DependencyGraph(module)
    covered = {signal for signal, placed in analysis.placement.items() if placed <= scheduled}
    universe = set(module.state_and_output_signals())
    uncovered = universe - covered
    influence: Dict[str, Set[str]] = {}
    for signal in uncovered:
        influence[signal] = graph.signals_depending_on({signal}) - {signal}
    return CoverageResult(covered=covered, uncovered=uncovered, influence=influence)
