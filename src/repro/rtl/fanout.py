"""Fanout-cone partitioning (the paper's ``fanouts_CCk`` sets).

The detection method partitions all state and output signals by the *smallest
number of clock cycles* it takes the primary data inputs to affect their
value (Sec. IV-C).  ``fanouts_CC1`` are the signals reached after one cycle,
``fanouts_CC2`` after two, and so on.  Signals never reached belong to the
*uncovered signal set* and are reported by the coverage check
(Sec. IV-D, case 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.rtl.ir import Module
from repro.rtl.netlist import DependencyGraph
from repro.utils.graphs import bfs_distances


def get_fanout(module_or_graph, sources: Iterable[str]) -> Set[str]:
    """One-clock-cycle structural fanout — the paper's ``Get_Fanout``.

    Returns every state or output signal whose value one clock cycle later
    can be affected by a signal in ``sources``.
    """
    graph = module_or_graph if isinstance(module_or_graph, DependencyGraph) else DependencyGraph(module_or_graph)
    return graph.signals_depending_on(sources)


@dataclass
class FanoutAnalysis:
    """Result of partitioning state/output signals into ``fanouts_CCk`` classes.

    Attributes
    ----------
    classes:
        ``classes[k]`` is the set of signals first reached ``k`` clock cycles
        after the inputs (``k >= 1``).
    distance:
        per-signal distance (only covered signals appear).
    uncovered:
        state/output signals never reached from the data inputs — candidates
        for the coverage check.
    inputs:
        the data inputs the analysis started from.
    """

    classes: Dict[int, Set[str]] = field(default_factory=dict)
    distance: Dict[str, int] = field(default_factory=dict)
    uncovered: Set[str] = field(default_factory=set)
    inputs: List[str] = field(default_factory=list)
    # Class used to *place* each covered signal into a property's prove part.
    # For registers this equals ``distance``; for non-registered outputs it is
    # the latest class of the registers feeding them, so that by the time the
    # output is proven all of its supporting registers are provable from the
    # property's assumptions.
    placement: Dict[str, int] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        """Largest class index (the structural depth of the design)."""
        return max(self.classes) if self.classes else 0

    @property
    def placement_depth(self) -> int:
        """Largest placement class (>= depth; differs only for late outputs)."""
        return max(self.placement.values()) if self.placement else 0

    def signals_in_class(self, k: int) -> Set[str]:
        return set(self.classes.get(k, set()))

    def proved_in_class(self, k: int) -> Set[str]:
        """Signals whose equality is proven by the property of class ``k``."""
        return {name for name, placed in self.placement.items() if placed == k}

    def signals_up_to(self, k: int) -> Set[str]:
        """Union of ``fanouts_CC1 .. fanouts_CCk`` (the flow's ``fanouts_all``)."""
        result: Set[str] = set()
        for index in range(1, k + 1):
            result |= self.classes.get(index, set())
        return result


def compute_fanout_classes(
    module: Module,
    inputs: Optional[Iterable[str]] = None,
    graph: Optional[DependencyGraph] = None,
) -> FanoutAnalysis:
    """Partition state and output signals into ``fanouts_CCk`` classes.

    ``inputs`` defaults to the module's data inputs (all primary inputs except
    clocks and resets), matching how the paper treats accelerator IP inputs.

    The distance of a *register* is one plus the minimum distance of the
    leaves (inputs or registers) its next-state function depends on.  The
    distance of a non-registered *output* is the minimum distance of the
    registers in its combinational support; an output depending only on
    primary inputs gets distance 1 (it is checked together with the first
    register layer, with input equality assumed at the evaluation time point).
    """
    graph = graph or DependencyGraph(module)
    data_inputs = list(inputs) if inputs is not None else module.data_inputs()
    cycle_graph = graph.cycle_graph(data_inputs)
    distances = bfs_distances(cycle_graph, data_inputs)

    analysis = FanoutAnalysis(inputs=list(data_inputs))
    universe = module.state_and_output_signals()
    for name in universe:
        distance = distances.get(name)
        placement = distance
        if name in module.outputs and name not in module.registers:
            # Non-registered outputs: the *distance* (paper definition) is the
            # earliest class among the registers feeding them, the *placement*
            # is the latest such class; a direct input-to-output path yields 1.
            register_leaves = {
                leaf for leaf in graph.leaf_support(name) if leaf in module.registers
            }
            register_distances = [distances[leaf] for leaf in register_leaves if leaf in distances]
            if register_distances:
                distance = min(register_distances)
                placement = max(register_distances)
            elif graph.leaf_support(name) & set(data_inputs):
                distance = 1
                placement = 1
            else:
                distance = None
                placement = None
        if distance is None or distance == 0:
            if distance == 0:
                # A data input that is also listed as an output; nothing to prove.
                continue
            analysis.uncovered.add(name)
            continue
        analysis.distance[name] = distance
        analysis.placement[name] = placement if placement is not None else distance
        analysis.classes.setdefault(distance, set()).add(name)
    return analysis
