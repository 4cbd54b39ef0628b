"""Bounded design-vs-golden unrolling: the sequential detection mode's core.

The combinational detection flow (:mod:`repro.core.properties`, settled by
:mod:`repro.exec.worker`) proves 2-safety equality of one design against
*itself* over a one-cycle window with a symbolic starting state — it needs
no golden model, but a payload hidden behind a waived (or
cross-instance-equal) trigger never shows up in its properties.  The
sequential mode closes that gap with the complementary classic check: unroll
the design next to a known-good *golden* model for ``depth`` cycles from the
reset state, feed both the same fully symbolic input sequence, and ask the
SAT solver for an input sequence that makes a common output diverge within
the bound.

:class:`SequentialUnroller` is that check as a persistent, incremental
engine, shared by the detection flow's sequential mode (one *property class
per common output*) and by the standalone BMC baseline
(:mod:`repro.baselines.bmc`, which checks all outputs in one miter):

* both models' transition relations are encoded onto **one** structurally
  hashed AIG, so logic that is identical in design and golden collapses to
  identical literals — untampered outputs discharge *structurally*, without
  a single SAT call;
* the unrolled frames, the Tseitin encoding and the solver state persist
  across :meth:`check_output` / :meth:`check_outputs` calls: checking output
  class ``k+1`` (or extending the bound from ``k`` to ``k+1`` cycles) only
  encodes the new cones and reuses every clause — and everything the solver
  learned — from earlier checks;
* per-check miters are passed as solver *assumptions*, never asserted, so
  one output's counterexample cannot constrain the next output's check;
* before the solver sees a miter, random simulation tries to falsify it and
  fraig sweeping shrinks it (:mod:`repro.aig.preprocess`, shared with the
  IPC engine).

A divergence witness is returned as a multi-cycle
:class:`repro.ipc.cex.CounterExample`: instance 0 is the design, instance 1
the golden model, and the time axis is the clock cycle — rendered as a
waveform via :func:`repro.sim.trace.trace_from_counterexample` and the VCD
writer.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aig.aig import AIG, FALSE
from repro.aig.preprocess import Preprocessor
from repro.errors import ConfigError, DesignError
from repro.ipc.cex import CounterExample
from repro.ipc.transition import SymbolicFrame, TransitionEncoder
from repro.obs.trace import span as _obs_span
from repro.rtl.ir import Module
from repro.sat.context import SolverContext

#: Instance indices used in sequential counterexamples.
DESIGN_INSTANCE = 0
GOLDEN_INSTANCE = 1


def sequential_output_classes(design: Module, golden: Module) -> List[str]:
    """The sequential mode's property classes: one per common output.

    Outputs are kept in the design's declaration order, so class indices are
    stable across runs and across the cache/worker boundary.  A design that
    shares no output with its golden model cannot be checked at all — that
    is a configuration error, not an empty (vacuously secure) schedule.
    """
    common = [name for name in design.outputs if name in golden.outputs]
    if not common:
        raise DesignError(
            f"design {design.name!r} and golden model {golden.name!r} share no "
            f"output signal; sequential equivalence has nothing to compare"
        )
    return common


def validate_reset_values(
    reset_values: Dict[str, int], design: Module, golden: Module
) -> None:
    """Reject reset overrides that name no register of either model.

    Per-entry validation is shared with :class:`DetectionConfig` (one rule
    set, whichever entry path the override takes); only the
    register-existence check is unroller-specific, because it needs the
    elaborated modules.
    """
    from repro.core.config import validate_reset_entry

    for name, value in reset_values.items():
        validate_reset_entry(name, value)
        if name not in design.registers and name not in golden.registers:
            raise ConfigError(
                f"reset_values names {name!r}, which is a register of neither "
                f"the design nor the golden model"
            )
        for module in (design, golden):
            # An oversized value would be silently truncated by the bit
            # blaster — the run would start from a different reset state
            # than the user asked for and could report SECURE wrongly.
            if name in module.registers and value >= (1 << module.width_of(name)):
                raise ConfigError(
                    f"reset value of {name!r} ({value}) does not fit the "
                    f"{module.width_of(name)}-bit register in {module.name!r}"
                )


@dataclass
class SequentialCheckResult:
    """Outcome of one bounded design-vs-golden equivalence check."""

    outputs: List[str]
    depth: int
    holds: bool
    #: True when every compared cycle collapsed structurally on the shared
    #: AIG — the check never touched the SAT solver.
    structurally_proven: bool = False
    #: Earliest cycle (1-based) at which some checked output diverges.
    first_divergence_cycle: Optional[int] = None
    #: Outputs that differ at the first divergence cycle.
    failing_outputs: List[str] = field(default_factory=list)
    cex: Optional[CounterExample] = None
    runtime_seconds: float = 0.0
    sat_conflicts: int = 0
    sat_decisions: int = 0
    # Incremental-reuse accounting against the shared solver context.
    cnf_new_clauses: int = 0
    cnf_reused_clauses: int = 0
    solver_calls: int = 0
    # Preprocessing telemetry (see PropertyCheckResult in repro.ipc.engine).
    sim_falsified: bool = False
    nodes_before: int = 0
    nodes_after: int = 0
    merged_nodes: int = 0
    sweep_seconds: float = 0.0


class SequentialUnroller:
    """Persistent bounded unrolling of a design against a golden model.

    One unroller owns the shared AIG, both models' frames, and one
    incremental solver context; every check against it reuses all earlier
    encoding and learning.  The reset state is taken from the modules'
    declared register reset values (default 0), overridable per register via
    ``reset_values`` — the sequential counterpart of the combinational
    flow's symbolic starting state, except here it is *concrete*, which is
    what makes counter-triggered divergence reachable at a known depth.
    """

    def __init__(
        self,
        design: Module,
        golden: Module,
        reset_values: Optional[Dict[str, int]] = None,
    ) -> None:
        missing = [name for name in golden.inputs if name not in design.inputs]
        if missing:
            raise DesignError(f"golden model inputs missing from the design: {missing}")
        self._design = design
        self._golden = golden
        self._reset_values = dict(reset_values or {})
        validate_reset_values(self._reset_values, design, golden)
        self._aig = AIG()
        self._design_encoder = TransitionEncoder(design, self._aig)
        self._golden_encoder = TransitionEncoder(golden, self._aig)
        self._context = SolverContext(self._aig)
        self._design_frames: List[SymbolicFrame] = []
        self._golden_frames: List[SymbolicFrame] = []
        # Per-cycle difference literals, cached by (cycle, output name) so a
        # deeper bound or a later output class re-encodes nothing.
        self._differences: Dict[Tuple[int, str], int] = {}
        # Preprocessing state shares the unroller's lifetime: a random
        # pattern assigns *every* unrolled input (i.e. it is a whole input
        # sequence), and merges proved while sweeping frame k keep shrinking
        # the cones of every deeper frame and later output class.
        self._preprocessor: Optional[Preprocessor] = None

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def design(self) -> Module:
        return self._design

    @property
    def golden(self) -> Module:
        return self._golden

    @property
    def solver_context(self) -> SolverContext:
        return self._context

    @property
    def common_outputs(self) -> List[str]:
        return sequential_output_classes(self._design, self._golden)

    # ------------------------------------------------------------------ #
    # Unrolling
    # ------------------------------------------------------------------ #

    def _reset_value(self, module: Module, register: str) -> int:
        if register in self._reset_values:
            return self._reset_values[register]
        reset = module.registers[register].reset_value
        return reset if reset is not None else 0

    def _initial_frame(
        self, encoder: TransitionEncoder, module: Module, label: str
    ) -> SymbolicFrame:
        frame = encoder.new_frame(label)
        for register in module.registers:
            frame.bind_leaf(
                register,
                encoder.blaster.constant(
                    self._reset_value(module, register), module.width_of(register)
                ),
            )
        return frame

    def _share_inputs_at(self, frame_index: int) -> None:
        """Feed both models the same symbolic inputs at one time point."""
        for name in self._golden.inputs:
            if name in self._golden.clocks:
                continue
            shared = self._design_frames[frame_index].leaf_vector(name)
            if not self._golden_frames[frame_index].is_bound(name):
                self._golden_frames[frame_index].bind_leaf(name, shared)

    def unroll_to(self, depth: int) -> None:
        """Extend the persistent unrolling of both models to ``depth`` cycles."""
        if not self._design_frames:
            self._design_frames.append(
                self._initial_frame(self._design_encoder, self._design, "dut@0")
            )
            self._golden_frames.append(
                self._initial_frame(self._golden_encoder, self._golden, "gold@0")
            )
        for cycle in range(len(self._design_frames), depth + 1):
            self._share_inputs_at(cycle - 1)
            self._design_frames.append(
                self._design_encoder.step(self._design_frames[-1], f"dut@{cycle}")
            )
            self._golden_frames.append(
                self._golden_encoder.step(self._golden_frames[-1], f"gold@{cycle}")
            )

    def _difference_literal(self, cycle: int, name: str) -> int:
        key = (cycle, name)
        literal = self._differences.get(key)
        if literal is None:
            blaster = self._design_encoder.blaster
            left = self._design_frames[cycle].vector_of(name)
            right = self._golden_frames[cycle].vector_of(name)
            literal = self._aig.not_(blaster.equal_vectors(left, right))
            self._differences[key] = literal
        return literal

    # ------------------------------------------------------------------ #
    # Checking
    # ------------------------------------------------------------------ #

    def check_output(
        self, name: str, depth: int, deadline_s: Optional[float] = None
    ) -> SequentialCheckResult:
        """Bounded divergence check of one common output (one property class)."""
        return self.check_outputs([name], depth, deadline_s=deadline_s)

    def check_outputs(
        self, names: Sequence[str], depth: int, deadline_s: Optional[float] = None
    ) -> SequentialCheckResult:
        """Search for an input sequence of length ``depth`` that separates the
        design from the golden model on any output in ``names``.

        ``deadline_s`` budgets the preprocessing proofs and the CDCL call in
        wall-clock terms (absolute ``time.monotonic()`` deadline): past it
        the solver raises :class:`repro.errors.CheckDeadlineExceeded` with
        the persistent context backtracked and reusable.
        """
        started = _time.perf_counter()
        if depth < 1:
            raise ConfigError(f"sequential checks need a depth >= 1, got {depth}")
        unknown = [name for name in names if name not in self._golden.outputs
                   or name not in self._design.outputs]
        if unknown:
            raise DesignError(
                f"not common outputs of design and golden model: {unknown}"
            )
        outputs = list(names)
        result = SequentialCheckResult(outputs=outputs, depth=depth, holds=True)

        with _obs_span("unroll", depth=depth, outputs=len(outputs)):
            self.unroll_to(depth)
            # Outputs with a combinational input path sample the input at the
            # compared cycle itself, so the topmost frame must be shared too —
            # and before any difference cone materialises an unshared leaf.
            self._share_inputs_at(depth)
            difference_by_cycle: List[List[Tuple[str, int]]] = [
                [(name, self._difference_literal(cycle, name)) for name in outputs]
                for cycle in range(1, depth + 1)
            ]

            miter = self._aig.or_many(
                [literal for cycle in difference_by_cycle for _, literal in cycle]
            )
        if miter == FALSE:
            # Both cones hashed to the same literals at every compared cycle:
            # equivalence holds structurally, no solver involved.
            result.structurally_proven = True
            result.runtime_seconds = _time.perf_counter() - started
            return result

        sim_model, goal_root = self._preprocess(result, miter, deadline_s)
        if sim_model is not None:
            # A random input sequence already separates the two models:
            # divergence is witnessed with zero CDCL calls.
            result.holds = False
            self._locate_divergence(result, difference_by_cycle, sim_model)
            result.cex = self._build_counterexample(result, sim_model)
            result.runtime_seconds = _time.perf_counter() - started
            return result

        goal = self._context.literal_of(goal_root)
        outcome = self._context.solve([goal], deadline_s=deadline_s)
        result.solver_calls = 1
        result.sat_conflicts = outcome.result.conflicts
        result.sat_decisions = outcome.result.decisions
        result.cnf_new_clauses = outcome.new_clauses
        result.cnf_reused_clauses = outcome.reused_clauses
        if outcome.satisfiable:
            result.holds = False
            input_values = self._model_input_values(miter, outcome.result.model)
            self._locate_divergence(result, difference_by_cycle, input_values)
            result.cex = self._build_counterexample(result, input_values)
        result.runtime_seconds = _time.perf_counter() - started
        return result

    # ------------------------------------------------------------------ #
    # Preprocessing (sim-first falsification + fraig sweeping)
    # ------------------------------------------------------------------ #

    def _get_preprocessor(self) -> Preprocessor:
        if self._preprocessor is None:
            self._preprocessor = Preprocessor(self._aig, self._context)
        return self._preprocessor

    def _preprocess(
        self, result: SequentialCheckResult, miter: int, deadline_s: Optional[float]
    ) -> Tuple[Optional[Dict[int, int]], int]:
        """Sequential counterpart of the IPC engine's miter preprocessing.

        Returns ``(sim_model, goal_root)``: a concrete falsifying input
        sequence when random simulation flips the unrolled miter (the SAT
        solver is then skipped entirely), otherwise ``None`` plus the
        fraig-swept miter literal the solver should check instead.  The
        pipeline itself is :class:`repro.aig.preprocess.Preprocessor`,
        shared with the IPC engine.
        """
        outcome = self._get_preprocessor().run([miter], deadline_s=deadline_s)
        result.nodes_before = outcome.nodes_before
        result.nodes_after = outcome.nodes_after
        result.merged_nodes = outcome.merged_nodes
        result.sweep_seconds = outcome.elapsed_seconds
        if outcome.sim_model is not None:
            result.sim_falsified = True
            return outcome.sim_model, miter
        return None, outcome.roots[0]

    # ------------------------------------------------------------------ #
    # Witness reconstruction
    # ------------------------------------------------------------------ #

    def _model_input_values(self, miter: int, model: Dict[int, int]) -> Dict[int, int]:
        """AIG-input assignment of the satisfying model, restricted to the
        miter's cone (variables of other checks carry arbitrary values)."""
        input_values: Dict[int, int] = {}
        for node in self._aig.cone_nodes([miter]):
            if not self._aig.is_input(node):
                continue
            literal = self._context.literal_of(node << 1)
            value = model.get(abs(literal))
            if value is None:
                continue
            input_values[node] = int(value if literal > 0 else not value)
        return input_values

    def _locate_divergence(
        self,
        result: SequentialCheckResult,
        difference_by_cycle: List[List[Tuple[str, int]]],
        input_values: Dict[int, int],
    ) -> None:
        # One AIG traversal for every difference literal: per-literal
        # evaluate() calls would each re-walk the shared unrolled cone.
        flat = [
            literal for differences in difference_by_cycle for _, literal in differences
        ]
        bits = self._aig.evaluate(flat, input_values)
        position = 0
        for cycle_index, differences in enumerate(difference_by_cycle, start=1):
            for signal, literal in differences:
                if literal != FALSE and bits[position]:
                    result.failing_outputs.append(signal)
                    if result.first_divergence_cycle is None:
                        result.first_divergence_cycle = cycle_index
                position += 1
            if result.first_divergence_cycle is not None:
                break

    def _evaluate_vectors(
        self, vectors: List, input_values: Dict[int, int]
    ) -> List[int]:
        """Word values of many literal vectors from ONE cone traversal.

        Witness reconstruction touches every materialised vector of every
        cycle; evaluating each with its own :meth:`AIG.evaluate` call would
        re-traverse the unrolled cone per vector (quadratic in the depth).
        """
        flat = [literal for vector in vectors for literal in vector]
        bits = self._aig.evaluate(flat, input_values)
        values: List[int] = []
        position = 0
        for vector in vectors:
            value = 0
            for offset in range(len(vector)):
                value |= (bits[position + offset] & 1) << offset
            values.append(value)
            position += len(vector)
        return values

    def _build_counterexample(
        self, result: SequentialCheckResult, input_values: Dict[int, int]
    ) -> CounterExample:
        """Multi-cycle witness: instance 0 = design, instance 1 = golden.

        Records every materialised leaf (inputs and registers) of both
        models at every unrolled cycle plus the checked outputs at every
        compared cycle, so the counterexample replays as a complete
        waveform without re-running the solver.
        """
        property_name = f"sequential_equivalence[{', '.join(result.outputs)}]"
        cex = CounterExample(property_name=property_name)
        divergence = result.first_divergence_cycle
        instances = (
            (DESIGN_INSTANCE, self._design_frames),
            (GOLDEN_INSTANCE, self._golden_frames),
        )
        keys: List[Tuple[int, int, str]] = []
        vectors: List = []
        for instance, frames in instances:
            for cycle, frame in enumerate(frames[: result.depth + 1]):
                for signal, vector in frame.leaves.items():
                    keys.append((instance, cycle, signal))
                    vectors.append(vector)
        for cycle in range(1, result.depth + 1):
            for name in result.outputs:
                keys.append((DESIGN_INSTANCE, cycle, name))
                vectors.append(self._design_frames[cycle].vector_of(name))
                keys.append((GOLDEN_INSTANCE, cycle, name))
                vectors.append(self._golden_frames[cycle].vector_of(name))
        for key, value in zip(keys, self._evaluate_vectors(vectors, input_values)):
            cex.values[key] = value
        if divergence is not None:
            for name in result.outputs:
                left = cex.values[(DESIGN_INSTANCE, divergence, name)]
                right = cex.values[(GOLDEN_INSTANCE, divergence, name)]
                if left != right:
                    cex.failing_signals.append((name, divergence, left, right))
        return cex
