"""Structural netlist views of a flat RTL module.

The detection method of the paper relies on a purely *structural* analysis
(``Get_Fanout`` in Algorithm 1): syntactic dependencies of state-holding
elements and outputs on other signals, traced through combinational logic.
This module provides those views on top of :class:`repro.rtl.ir.Module`:

* the combinational dependency graph (and cycle detection),
* the *leaf support* of any signal — the primary inputs and registers its
  value combinationally depends on,
* the one-clock-cycle register-level dependency graph used by
  :mod:`repro.rtl.fanout`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set

from repro.errors import ElaborationError
from repro.rtl import exprs
from repro.rtl.ir import Module
from repro.utils.graphs import find_cycle


class DependencyGraph:
    """Structural dependency analysis over a flat module.

    Construction computes the support of every combinational driver once
    and rejects combinational loops.  Support queries are cached, so one
    graph per design should be built and shared by the fanout analysis, the
    flow and the coverage check.
    """

    def __init__(self, module: Module) -> None:
        self._module = module
        # Driver map: each combinational signal -> the signals its driver reads.
        self._drivers: Dict[str, FrozenSet[str]] = {
            name: frozenset(exprs.support(expr)) for name, expr in module.comb.items()
        }
        self._check_comb_cycles()
        self._leaf_support_cache: Dict[str, FrozenSet[str]] = {}
        self._next_state_cache: Dict[str, FrozenSet[str]] = {}

    @property
    def module(self) -> Module:
        return self._module

    def _check_comb_cycles(self) -> None:
        # A cycle of the driver map runs against the data flow; report it
        # along the data flow, each signal feeding the next.
        cycle = find_cycle(self._drivers)
        if cycle:
            cycle.reverse()
            raise ElaborationError(
                "combinational loop detected through signals: " + " -> ".join(cycle[:8])
            )

    # ------------------------------------------------------------------ #
    # Support queries
    # ------------------------------------------------------------------ #

    def is_leaf(self, name: str) -> bool:
        """Leaves of combinational cones: primary inputs and registers."""
        return self._module.is_input(name) or self._module.is_register(name)

    def leaf_support_of_expr(self, expr: exprs.Expr) -> Set[str]:
        """Primary inputs and registers the expression transitively depends on."""
        result: Set[str] = set()
        for name in exprs.support(expr):
            result |= self._leaf_support(name)
        return result

    def leaf_support(self, name: str) -> Set[str]:
        """Primary inputs and registers signal ``name`` combinationally depends on.

        For a register or input, this is the signal itself (its *value* at a
        time point is a leaf); combinational wires and outputs are expanded
        through their drivers.
        """
        return set(self._leaf_support(name))

    def _leaf_support(self, name: str) -> FrozenSet[str]:
        cached = self._leaf_support_cache.get(name)
        if cached is None:
            cached = frozenset(self._compute_leaf_support(name))
            self._leaf_support_cache[name] = cached
        return cached

    def _compute_leaf_support(self, name: str) -> Set[str]:
        if self.is_leaf(name) or name not in self._drivers:
            # Leaves stand for themselves; so does an undriven wire, so that
            # problems stay visible.
            return {name}
        result: Set[str] = set()
        stack: List[str] = [name]
        visited: Set[str] = set()
        while stack:
            current = stack.pop()
            if current in visited:
                continue
            visited.add(current)
            if current != name and self.is_leaf(current):
                result.add(current)
                continue
            dependencies = self._drivers.get(current)
            if dependencies is None:
                if current != name:
                    result.add(current)
                continue
            stack.extend(dependencies)
        return result

    def next_state_leaf_support(self, register: str) -> Set[str]:
        """Leaf support of the next-state function of ``register``."""
        return set(self._next_state_support(register))

    def _next_state_support(self, register: str) -> FrozenSet[str]:
        cached = self._next_state_cache.get(register)
        if cached is None:
            cached = frozenset(self.leaf_support_of_expr(self._module.registers[register].next))
            self._next_state_cache[register] = cached
        return cached

    # ------------------------------------------------------------------ #
    # One-clock-cycle register-level graph
    # ------------------------------------------------------------------ #

    def cycle_graph(self, data_inputs: Iterable[str] | None = None) -> Dict[str, Set[str]]:
        """Successor map whose edge ``a -> b`` means: the value of leaf ``a``
        at cycle t can affect the value of state/output signal ``b`` at cycle
        t+1 (for registers) or the combinational value of output ``b`` (for
        outputs).

        Every primary data input, register and primary output is a key.
        """
        module = self._module
        inputs = set(data_inputs) if data_inputs is not None else set(module.data_inputs())
        graph: Dict[str, Set[str]] = {
            node: set() for node in (*inputs, *module.registers, *module.outputs)
        }
        for register in module.registers:
            for leaf in self._next_state_support(register):
                if leaf in inputs or leaf in module.registers:
                    graph[leaf].add(register)
        for output in module.outputs:
            if output in module.registers:
                continue
            for leaf in self._leaf_support(output):
                if leaf in inputs or leaf in module.registers:
                    graph[leaf].add(output)
        return graph

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #

    def signals_depending_on(self, sources: Iterable[str]) -> Set[str]:
        """State/output signals whose next value depends on any of ``sources``.

        This is the paper's ``Get_Fanout(IP, sources)``: one clock cycle of
        structural reachability.
        """
        sources = set(sources)
        module = self._module
        result: Set[str] = set()
        for register in module.registers:
            if not sources.isdisjoint(self._next_state_support(register)):
                result.add(register)
        for output in module.outputs:
            if output in module.registers:
                continue
            if not sources.isdisjoint(self._leaf_support(output)):
                result.add(output)
        return result
