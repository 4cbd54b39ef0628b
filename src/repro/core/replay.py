"""Counterexample replay: confirm a formal finding by simulation.

A failed init/fanout property returns a :class:`repro.ipc.cex.CounterExample`
with the starting state and inputs of both miter instances.  Replaying that
counterexample on the RTL simulator serves two purposes:

* it double-checks the formal engine (the divergence predicted by the SAT
  model must also appear in plain RTL simulation), and
* it gives the verification engineer a concrete waveform of the malicious
  behaviour, which is how the paper describes counterexamples being used to
  locate the Trojan payload.

The replay builds one simulator per miter instance, loads the registers with
the counterexample's starting state, applies the counterexample's input
values for the property window and compares the signals the property proved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.ipc.cex import CounterExample
from repro.ipc.prop import IntervalProperty, Term
from repro.rtl.ir import Module
from repro.sim.simulator import Simulator
from repro.sim.trace import Trace


@dataclass
class ReplayResult:
    """Outcome of replaying a counterexample on the RTL simulator."""

    confirmed: bool
    divergent_signals: List[Tuple[str, int, int, int]] = field(default_factory=list)
    traces: Dict[int, Trace] = field(default_factory=dict)

    def summary(self) -> str:
        if not self.confirmed:
            return "counterexample replay: no divergence observed (formal result not confirmed)"
        lines = ["counterexample replay confirmed the divergence:"]
        for signal, time, left, right in self.divergent_signals[:8]:
            lines.append(f"  {signal}@t+{time}: instance1 = 0x{left:x}, instance2 = 0x{right:x}")
        return "\n".join(lines)


def _starting_state(cex: CounterExample, module: Module, instance: int) -> Dict[str, int]:
    state = {}
    for (cex_instance, time, signal), value in cex.values.items():
        if cex_instance == instance and time == 0 and module.is_register(signal):
            state[signal] = value
    return state


def _inputs_at(cex: CounterExample, module: Module, instance: int, time: int) -> Dict[str, int]:
    stimulus = {}
    for name in module.inputs:
        value = cex.values.get((instance, time, name))
        if value is None:
            # Inputs merged between the instances are stored under instance 0.
            value = cex.values.get((0, time, name), 0)
        stimulus[name] = value
    return stimulus


def replay_counterexample(
    module: Module,
    prop: IntervalProperty,
    cex: CounterExample,
    extra_cycles: int = 0,
) -> ReplayResult:
    """Replay ``cex`` for ``prop`` on two simulator instances of ``module``.

    Returns which of the property's proven signals indeed diverge in
    simulation.  ``extra_cycles`` extends the replay window past the property
    window, which can make the payload's downstream effect visible as well.
    """
    window = prop.window()
    simulators = {
        instance: Simulator(module, initial_state=_starting_state(cex, module, instance))
        for instance in (0, 1)
    }
    traces = {0: Trace(), 1: Trace()}
    values_by_time: Dict[int, Dict[int, Dict[str, int]]] = {0: {}, 1: {}}

    for instance, simulator in simulators.items():
        # Record the starting state (time 0) before any clock edge.
        settled = simulator.evaluate_combinational(_inputs_at(cex, module, instance, 0))
        values_by_time[instance][0] = dict(settled)
        traces[instance].record(settled)
        for time in range(1, window + 1 + extra_cycles):
            stimulus = _inputs_at(cex, module, instance, min(time - 1, window))
            simulator.step(stimulus)
            settled = simulator.evaluate_combinational(_inputs_at(cex, module, instance, min(time, window)))
            values_by_time[instance][time] = dict(settled)
            traces[instance].record(settled)

    result = ReplayResult(confirmed=False, traces=traces)
    for commitment in prop.commitments:
        if not isinstance(commitment.right, Term):
            continue
        left_term, right_term = commitment.left, commitment.right
        left_value = values_by_time[left_term.instance][left_term.time].get(left_term.signal)
        right_value = values_by_time[right_term.instance][right_term.time].get(right_term.signal)
        if left_value is None or right_value is None:
            continue
        if left_value != right_value:
            result.divergent_signals.append(
                (left_term.signal, left_term.time, left_value, right_value)
            )
    result.confirmed = bool(result.divergent_signals)
    return result
