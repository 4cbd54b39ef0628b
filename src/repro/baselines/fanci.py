"""FANCI-style control-value analysis baseline.

Waksman et al. ([14] in the paper) flag wires with *nearly-unused* inputs:
if, over many random input assignments, toggling a particular fanin almost
never changes a signal's value, the pair is suspicious — Trojan trigger logic
typically has exactly this shape (a wide comparator that is almost never
true).

This implementation samples the next-state function of every register in the
flat RTL IR: for each (register, fanin-leaf) pair it estimates the *control
value* — the fraction of random assignments for which flipping one bit of the
fanin changes the register's next value — and flags pairs whose control value
falls below a threshold.  It is a heuristic (neither sound nor complete),
which is precisely its role in the comparison benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.rtl import exprs
from repro.rtl.ir import Module
from repro.rtl.netlist import DependencyGraph


@dataclass
class SuspiciousSignal:
    """One flagged (signal, controlling fanin) pair."""

    signal: str
    fanin: str
    control_value: float


@dataclass
class FanciResult:
    """Outcome of the control-value analysis."""

    suspicious: List[SuspiciousSignal] = field(default_factory=list)
    samples: int = 0
    threshold: float = 0.0

    @property
    def trojan_suspected(self) -> bool:
        return bool(self.suspicious)

    def flagged_signals(self) -> List[str]:
        return sorted({entry.signal for entry in self.suspicious})

    def summary(self) -> str:
        return (
            f"FANCI: {len(self.suspicious)} suspicious (signal, fanin) pairs below "
            f"control value {self.threshold} ({self.samples} samples each)"
        )


class FanciAnalysis:
    """Approximate control-value analysis over register next-state functions."""

    def __init__(self, module: Module, seed: int = 0) -> None:
        self._module = module
        self._graph = DependencyGraph(module)
        self._random = random.Random(seed)

    def _evaluate_next(self, register: str, assignment: Dict[str, int]) -> int:
        module = self._module

        def lookup(name: str) -> int:
            if name in assignment:
                return assignment[name]
            driver = module.comb.get(name)
            if driver is not None:
                return exprs.evaluate(driver, lookup)
            return 0

        return exprs.evaluate(module.registers[register].next, lookup)

    def analyze(
        self,
        samples: int = 64,
        threshold: float = 0.01,
        registers: Optional[List[str]] = None,
    ) -> FanciResult:
        """Estimate control values and flag pairs below ``threshold``."""
        result = FanciResult(samples=samples, threshold=threshold)
        for register in registers or list(self._module.registers):
            leaves = sorted(self._graph.next_state_leaf_support(register))
            if not leaves:
                continue
            for fanin in leaves:
                control = self._control_value(register, fanin, leaves, samples)
                if control <= threshold:
                    result.suspicious.append(
                        SuspiciousSignal(signal=register, fanin=fanin, control_value=control)
                    )
        return result

    def _control_value(
        self, register: str, fanin: str, leaves: List[str], samples: int
    ) -> float:
        module = self._module
        fanin_width = module.width_of(fanin)
        influencing = 0
        for _ in range(samples):
            assignment = {
                leaf: self._random.getrandbits(module.width_of(leaf)) for leaf in leaves
            }
            baseline = self._evaluate_next(register, assignment)
            flipped = dict(assignment)
            flipped[fanin] = assignment[fanin] ^ (1 << self._random.randrange(fanin_width))
            if self._evaluate_next(register, flipped) != baseline:
                influencing += 1
        return influencing / samples if samples else 0.0
