"""Two-valued cycle-accurate simulator over the flat RTL IR.

The simulator serves three purposes in this repository:

* validating that the generated accelerator cores really implement their
  algorithm (the AES/RSA cores are checked against the reference models of
  :mod:`repro.crypto`),
* replaying formal counterexamples (:mod:`repro.ipc.cex`) so a verification
  engineer can inspect the concrete behaviour the property checker found,
* providing the dynamic-testing baseline (:mod:`repro.baselines.random_sim`).
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import Dict, Iterable, List, Optional

from repro.errors import SimulationError
from repro.rtl import exprs
from repro.rtl.ir import Module
from repro.sim.trace import Trace


class Simulator:
    """Evaluates a flat module cycle by cycle.

    The simulator is two-valued: uninitialised registers start at their reset
    value (or zero when none is known) rather than ``X``.  That is sufficient
    for validating the data paths of non-interfering accelerators and for
    replaying counterexamples, both of which supply explicit values.
    """

    def __init__(self, module: Module, initial_state: Optional[Dict[str, int]] = None) -> None:
        self._module = module
        self._eval_order = self._combinational_order()
        self._state: Dict[str, int] = {}
        for name, register in module.registers.items():
            self._state[name] = register.reset_value if register.reset_value is not None else 0
        if initial_state:
            for name, value in initial_state.items():
                if name not in module.registers:
                    raise SimulationError(f"{name!r} is not a register and cannot be part of the initial state")
                self._state[name] = value & ((1 << module.width_of(name)) - 1)
        self._values: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Setup helpers
    # ------------------------------------------------------------------ #

    def _combinational_order(self) -> List[str]:
        comb = self._module.comb
        predecessors = {
            name: [dependency for dependency in exprs.support(expr) if dependency in comb]
            for name, expr in comb.items()
        }
        sorter = TopologicalSorter(predecessors)
        try:
            return list(sorter.static_order())
        except CycleError as error:
            raise SimulationError("combinational loop detected during simulation setup") from error

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #

    @property
    def module(self) -> Module:
        return self._module

    def state(self) -> Dict[str, int]:
        """Current register values."""
        return dict(self._state)

    def set_state(self, values: Dict[str, int]) -> None:
        for name, value in values.items():
            if name not in self._module.registers:
                raise SimulationError(f"{name!r} is not a register")
            self._state[name] = value & ((1 << self._module.width_of(name)) - 1)

    def reset(self) -> None:
        """Load every register with its reset value (zero when unknown)."""
        for name, register in self._module.registers.items():
            self._state[name] = register.reset_value if register.reset_value is not None else 0

    def peek(self, name: str) -> int:
        """Value of any signal after the last :meth:`step` (or current state)."""
        if name in self._values:
            return self._values[name]
        if name in self._state:
            return self._state[name]
        raise SimulationError(f"signal {name!r} has no value yet; run step() first")

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def evaluate_combinational(self, inputs: Dict[str, int]) -> Dict[str, int]:
        """Settle combinational logic for the given inputs and current state."""
        values: Dict[str, int] = {}
        for name, width in self._module.inputs.items():
            values[name] = inputs.get(name, 0) & ((1 << width) - 1)
        values.update(self._state)

        def lookup(name: str) -> int:
            if name in values:
                return values[name]
            raise SimulationError(f"signal {name!r} read before being driven")

        for name in self._eval_order:
            values[name] = exprs.evaluate(self._module.comb[name], lookup)
        self._values = values
        return values

    def step(self, inputs: Optional[Dict[str, int]] = None) -> Dict[str, int]:
        """Advance one clock cycle; returns the settled signal values of the cycle."""
        values = self.evaluate_combinational(inputs or {})
        next_state: Dict[str, int] = {}

        def lookup(name: str) -> int:
            if name in values:
                return values[name]
            raise SimulationError(f"signal {name!r} read before being driven")

        for name, register in self._module.registers.items():
            next_state[name] = exprs.evaluate(register.next, lookup)
        self._state = next_state
        return values

    def run(self, stimuli: Iterable[Dict[str, int]], watch: Optional[Iterable[str]] = None) -> Trace:
        """Apply a sequence of input maps, one per cycle, and record a trace."""
        watch_list = list(watch) if watch is not None else None
        trace = Trace()
        for cycle_inputs in stimuli:
            values = self.step(cycle_inputs)
            if watch_list is None:
                trace.record(values)
            else:
                trace.record({name: self._lookup_watch(name, values) for name in watch_list})
        return trace

    def _lookup_watch(self, name: str, values: Dict[str, int]) -> int:
        if name in values:
            return values[name]
        if name in self._state:
            return self._state[name]
        raise SimulationError(f"cannot watch unknown signal {name!r}")

    def run_cycles(self, count: int, inputs: Optional[Dict[str, int]] = None) -> Trace:
        """Run ``count`` cycles with constant inputs."""
        return self.run([dict(inputs or {}) for _ in range(count)])
