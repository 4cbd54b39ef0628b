"""The IPC engine: checks interval properties over symbolic starting states.

The check of an interval property proceeds in four stages:

1. *Assumption merging.*  Equality assumptions between free leaves (primary
   inputs at any time point, registers at the first time point) are applied
   by construction: the right-hand instance's leaf simply reuses the literal
   vector of the left-hand instance.  This is sound — it restricts the model
   exactly as the assumption does — and it is what lets structurally identical
   logic collapse in the next stages.
2. *RTL settle.*  Before any frame or AIG node is built, the merges are
   planned on the RTL alone.  When the second instance's side of every
   commitment reads, through its whole cone, only leaves merged with the
   first instance's own, both sides would bit-blast to the same literals:
   every commitment is proven with no AIG node built for it.  An
   assumption that could not be merged but passes the same walk would
   blast to TRUE and is dropped; only the other leftovers are bit-blasted,
   to count them as clause constraints, and the check needs no SAT call.
   In an untampered design this settles most proof obligations.
3. *Structural discharge.*  Anything else is bit-blasted: both sides of
   every commitment go onto one shared, structurally hashed AIG.  A
   commitment whose two sides reduce to the same literal vector is proven
   without touching the SAT solver.
4. *SAT search.*  Remaining commitments form a miter (OR of bit differences)
   which is checked together with the non-merged assumptions: first by
   random simulation, which may falsify it outright, then by fraig sweeping
   and the CDCL solver (:mod:`repro.aig.preprocess`).  A satisfying
   assignment is turned into a readable
   :class:`repro.ipc.cex.CounterExample`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.aig.aig import FALSE, TRUE, negate
from repro.aig.bitblast import Vector
from repro.aig.preprocess import Preprocessor
from repro.errors import PropertyError
from repro.ipc.cex import CounterExample
from repro.ipc.prop import Equality, IntervalProperty, Term
from repro.obs.trace import span as _obs_span
from repro.ipc.transition import SymbolicFrame, TransitionEncoder
from repro.rtl import exprs
from repro.rtl.ir import Module
from repro.sat.context import SolverContext
from repro.utils.bitvec import from_bits

#: Marks a signal whose reads the RTL settle has not looked up yet.
_UNREAD = object()


def _blastable_support(expr: exprs.Expr) -> Optional[Tuple[str, ...]]:
    """The signals ``expr`` reads, or None if the bit-blaster rejects it.

    The bit-blaster rejects a node it does not know, and a modulo whose
    divisor is not a constant power of two (Verilog ``a % b`` elaborates
    to one).
    """
    names: Set[str] = set()
    seen: Set[int] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, exprs.Ref):
            names.add(node.name)
        elif isinstance(node, exprs.Binop):
            divisor = node.right
            if node.op == exprs.BinaryOp.MOD and not (
                isinstance(divisor, exprs.Const)
                and divisor.value
                and not divisor.value & (divisor.value - 1)
            ):
                return None
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, exprs.Unop):
            stack.append(node.operand)
        elif isinstance(node, exprs.Mux):
            stack.extend((node.cond, node.then, node.otherwise))
        elif isinstance(node, exprs.Concat):
            stack.extend(node.parts)
        elif isinstance(node, exprs.Slice):
            stack.append(node.base)
        elif isinstance(node, exprs.Lut):
            stack.append(node.index)
        elif not isinstance(node, exprs.Const):
            return None
    return tuple(names)


@dataclass
class PropertyCheckResult:
    """Outcome of one property check."""

    prop: IntervalProperty
    holds: bool
    cex: Optional[CounterExample] = None
    structurally_proven: bool = False
    runtime_seconds: float = 0.0
    sat_conflicts: int = 0
    sat_decisions: int = 0
    merged_assumptions: int = 0
    clause_assumptions: int = 0
    # Incremental-solving statistics: clauses newly encoded for this check vs.
    # clauses already present in the persistent solver context, and the
    # number of SAT calls this check issued (0 when discharged without the
    # solver).
    cnf_new_clauses: int = 0
    cnf_reused_clauses: int = 0
    solver_calls: int = 0
    # Preprocessing telemetry (:mod:`repro.aig` simvec/simplify/fraig):
    # whether bit-parallel random simulation falsified the miter without any
    # CDCL call, the miter-cone size before and after the fraig sweep, the
    # number of proven node merges substituted, and the preprocessing wall
    # time.  All zero/False when the check needed no SAT obligation.
    sim_falsified: bool = False
    nodes_before: int = 0
    nodes_after: int = 0
    merged_nodes: int = 0
    sweep_seconds: float = 0.0

    @property
    def name(self) -> str:
        return self.prop.name

    def __bool__(self) -> bool:  # truthiness == "property holds"
        return self.holds


@dataclass
class PreparedCheck:
    """A property after the cheap structural stage, before any SAT work.

    Produced by :meth:`IpcEngine.begin_check`; finished (SAT search, model
    extraction, counterexample construction) by :meth:`IpcEngine.finish_check`.
    The split lets a scheduler first discharge *every* property structurally
    on the shared AIG and only then run the remaining SAT obligations against
    the shared incremental solver context.
    """

    prop: IntervalProperty
    result: PropertyCheckResult
    frames: Dict[int, List[SymbolicFrame]]
    obligations: List[Tuple[Equality, Vector, Vector, int]]
    clause_assumptions: List[int]
    window: int
    miter: int = FALSE
    needs_sat: bool = False
    prepare_seconds: float = 0.0
    #: A concrete falsifying input assignment found by sim-first
    #: falsification (AIG input node -> bit); when set, finish_check builds
    #: the counterexample from it and never calls the SAT solver.
    sim_model: Optional[Dict[int, int]] = None

    @property
    def discharged(self) -> bool:
        """True when the property was settled without any SAT obligation."""
        return not self.needs_sat


class IpcEngine:
    """Checks interval properties of one module, reusing work across checks.

    The engine keeps the frames of instance 0 (and the shared AIG) alive
    between calls, because the iterative detection flow checks one property
    per fanout class over the *same* one-cycle window.  Frames of further
    instances are rebuilt per property since their leaf merging depends on the
    property's assumptions.
    """

    def __init__(self, module: Module) -> None:
        self._module = module
        self._encoder = TransitionEncoder(module)
        # Instance 0's frames are kept across check() calls; their leaves
        # must never be rebound by assumption merging (a clause constraint is
        # used instead), otherwise one property could constrain the next.
        self._base_frames: List[SymbolicFrame] = []
        # One CNF builder + one incremental solver for the engine's lifetime:
        # the node→var cache and all emitted clauses persist, so overlapping
        # cones of later checks are never re-encoded or re-learned.
        self._context = SolverContext(self._encoder.aig)
        # Preprocessing state shares the engine's lifetime too: patterns
        # (plus every refinement pattern fraig learned) and proven merges
        # keep helping across all checks of the run.
        self._preprocessor: Optional[Preprocessor] = None
        # The RTL settle's signal reads (None: the bit-blaster rejects the
        # driver), looked up once per signal for the engine's lifetime.
        self._comb_reads: Dict[str, Optional[Tuple[str, ...]]] = {}
        self._next_reads: Dict[str, Optional[Tuple[str, ...]]] = {}

    @property
    def module(self) -> Module:
        return self._module

    @property
    def encoder(self) -> TransitionEncoder:
        return self._encoder

    @property
    def solver_context(self) -> SolverContext:
        return self._context

    @property
    def pristine(self) -> bool:
        """True while the engine has built nothing that could steer a check.

        No AIG node beyond the constant, no persistent frame, no solver
        call and no preprocessor: a check now runs exactly as on a new
        engine.  Checks settled on the RTL with no assumption left to
        bit-blast keep an engine pristine.
        """
        return (
            self._encoder.aig.num_nodes == 1
            and not self._base_frames
            and self._preprocessor is None
            and self._context.solve_calls == 0
        )

    # ------------------------------------------------------------------ #
    # Frame management
    # ------------------------------------------------------------------ #

    def _frames_for_instance(self, instance: int, window: int) -> List[SymbolicFrame]:
        frames = self._base_frames if instance == 0 else []
        if not frames:
            frames.append(self._encoder.new_frame(f"i{instance}@0"))
        while len(frames) <= window:
            time_index = len(frames)
            frames.append(self._encoder.step(frames[-1], f"i{instance}@{time_index}"))
        return frames

    # ------------------------------------------------------------------ #
    # Property checking
    # ------------------------------------------------------------------ #

    def check(self, prop: IntervalProperty) -> PropertyCheckResult:
        """Check one interval property; returns the result with optional CEX."""
        return self.finish_check(self.begin_check(prop))

    def begin_check(
        self, prop: IntervalProperty, deadline_s: Optional[float] = None
    ) -> PreparedCheck:
        """Structural stage: merge assumptions, settle on the RTL or the AIG.

        Cheap (no SAT): a check whose commitment cones read only merged
        leaves is discharged on the RTL (see :meth:`_settle_on_rtl`), and
        only the assumptions it leaves over are bit-blasted; otherwise both
        sides are bit-blasted and a commitment whose sides hash to the same
        literal vector is proven structurally.  The returned
        :class:`PreparedCheck` records whether SAT obligations remain; if
        so, :meth:`finish_check` settles them against the shared incremental
        solver context.  ``deadline_s`` (absolute ``time.monotonic()``)
        bounds the SAT proofs of preprocessing; past it they raise
        :class:`repro.errors.CheckDeadlineExceeded`.
        """
        started = _time.perf_counter()
        prop.validate()
        window = prop.window()
        settled = self._settle_on_rtl(prop, window)
        if settled is not None and not settled[1]:
            result = PropertyCheckResult(
                prop=prop,
                holds=True,
                structurally_proven=True,
                merged_assumptions=settled[0],
            )
            prepared = PreparedCheck(
                prop=prop, result=result, frames={}, obligations=[],
                clause_assumptions=[], window=window,
            )
            prepared.prepare_seconds = _time.perf_counter() - started
            result.runtime_seconds = prepared.prepare_seconds
            return prepared
        instances = prop.instances()

        with _obs_span("bitblast", prop=prop.name):
            frames: Dict[int, List[SymbolicFrame]] = {}
            for instance in instances:
                # Instance 0's frames survive across properties; the leaves
                # of the other instances depend on the property's merge set,
                # so they are rebuilt for every check.
                frames[instance] = self._frames_for_instance(instance, window)

            merged, deferred = self._apply_assumption_merging(prop, frames, window)
            # A check settled on the RTL blasts only its leftover assumptions.
            clause_assumptions = self._clause_literals(
                deferred if settled is None else settled[1], frames
            )

            # Bit-blast both sides of every commitment.
            obligations: List[Tuple[Equality, Vector, Vector, int]] = []
            for commitment in prop.commitments if settled is None else ():
                left_vector = self._term_vector(commitment.left, frames)
                right_vector = self._constraint_rhs_vector(commitment, frames, left_vector)
                difference = self._difference_literal(left_vector, right_vector)
                obligations.append((commitment, left_vector, right_vector, difference))

        pending = [entry for entry in obligations if entry[3] != FALSE]
        result = PropertyCheckResult(
            prop=prop,
            holds=True,
            structurally_proven=not pending and not clause_assumptions,
            merged_assumptions=merged,
            clause_assumptions=len(clause_assumptions),
        )
        prepared = PreparedCheck(
            prop=prop,
            result=result,
            frames=frames,
            obligations=obligations,
            clause_assumptions=clause_assumptions,
            window=window,
        )
        if pending:
            if any(literal == FALSE for literal in clause_assumptions):
                # An assumption is structurally false: holds vacuously.
                pass
            else:
                miter = self._encoder.aig.or_many([entry[3] for entry in pending])
                if miter != FALSE:
                    prepared.miter = miter
                    prepared.needs_sat = True
                    self._preprocess(prepared, deadline_s)
        prepared.prepare_seconds = _time.perf_counter() - started
        result.runtime_seconds = prepared.prepare_seconds
        return prepared

    # ------------------------------------------------------------------ #
    # Preprocessing (sim-first falsification + fraig sweeping)
    # ------------------------------------------------------------------ #

    def _get_preprocessor(self) -> Preprocessor:
        if self._preprocessor is None:
            self._preprocessor = Preprocessor(self._encoder.aig, self._context)
        return self._preprocessor

    def _preprocess(self, prepared: PreparedCheck, deadline_s: Optional[float]) -> None:
        """Shrink a prepared check's SAT obligation before the solver sees it.

        Stage 1 — *sim-first falsification*: evaluate the miter together
        with the clause assumptions over a batch of random patterns; any
        pattern satisfying all of them is a genuine counterexample, recorded
        (after deterministic zero-minimization) as ``prepared.sim_model`` —
        :meth:`finish_check` then never touches the CDCL solver.

        Stage 2 — *fraig sweeping* (only when simulation could not falsify):
        merge simulation-equivalent nodes by bounded SAT proof and rebuild
        the miter/assumption cones with the merges substituted, constants
        folded and the 2-AND rewriting rules applied.  The rebuilt literals
        are equivalence-preserving, so the check's verdict is unchanged —
        only the CNF the solver receives is smaller.

        Both stages live in :class:`repro.aig.preprocess.Preprocessor`,
        shared with the sequential unroller.
        """
        result = prepared.result
        roots = [prepared.miter] + list(prepared.clause_assumptions)
        outcome = self._get_preprocessor().run(roots, deadline_s=deadline_s)
        result.nodes_before = outcome.nodes_before
        result.nodes_after = outcome.nodes_after
        result.merged_nodes = outcome.merged_nodes
        result.sweep_seconds = outcome.elapsed_seconds
        if outcome.sim_model is not None:
            prepared.sim_model = outcome.sim_model
            result.sim_falsified = True
        else:
            prepared.miter = outcome.roots[0]
            prepared.clause_assumptions = [
                literal for literal in outcome.roots[1:] if literal != TRUE
            ]

    def finish_check(
        self,
        prepared: PreparedCheck,
        deadline_s: Optional[float] = None,
    ) -> PropertyCheckResult:
        """SAT stage: settle a prepared check's remaining obligations.

        ``deadline_s`` budgets the CDCL call in wall-clock terms (absolute
        ``time.monotonic()`` deadline): past it the solver raises
        :class:`repro.errors.CheckDeadlineExceeded` with the persistent
        context backtracked and fully reusable.
        """
        result = prepared.result
        if not prepared.needs_sat:
            return result
        started = _time.perf_counter()
        if prepared.sim_model is not None:
            # Sim-first falsification already produced a concrete model; the
            # counterexample is built from it with zero CDCL calls.
            result.holds = False
            result.cex = self._build_counterexample(
                prepared.prop,
                prepared.frames,
                prepared.obligations,
                prepared.sim_model,
                prepared.window,
            )
        else:
            holds, model_values = self._solve(prepared, deadline_s=deadline_s)
            result.holds = holds
            if not holds:
                result.cex = self._build_counterexample(
                    prepared.prop, prepared.frames, prepared.obligations, model_values, prepared.window
                )
        result.runtime_seconds = prepared.prepare_seconds + (_time.perf_counter() - started)
        return result

    # ------------------------------------------------------------------ #
    # Assumptions
    # ------------------------------------------------------------------ #

    def _is_free_leaf(self, term: Term) -> bool:
        module = self._module
        if module.is_input(term.signal):
            return True
        return module.is_register(term.signal) and term.time == 0

    def _merge_assumptions(
        self,
        prop: IntervalProperty,
        window: int,
        bind: Callable[[Term, Union[Term, int]], bool],
    ) -> Tuple[int, List[Tuple[Term, Union[Term, int]]]]:
        """Decide, in assumption order, which assumptions merge by binding.

        ``bind(target, source)`` binds the free leaf ``target`` to the value
        of the term or constant ``source`` and says whether it did.  Returns
        the merge count and the assumptions left for clause constraints.
        """
        module = self._module
        merged = 0
        deferred: List[Tuple[Term, Union[Term, int]]] = []
        bound: Set[Tuple[int, int, str]] = set()
        for assumption in prop.assumptions:
            left, right = assumption.left, assumption.right
            if isinstance(right, Term):
                target, source = right, left
                mergeable = (
                    self._is_free_leaf(right)
                    and right.instance != 0
                    and right.time <= window
                    and (right.instance, right.time, right.signal) not in bound
                    and module.width_of(left.signal) == module.width_of(right.signal)
                    and (right.instance, right.signal) != (left.instance, left.signal)
                )
            else:
                target, source = left, int(right)
                mergeable = (
                    self._is_free_leaf(left)
                    and left.instance != 0
                    and (left.instance, left.time, left.signal) not in bound
                )
            if mergeable and bind(target, source):
                bound.add((target.instance, target.time, target.signal))
                merged += 1
            else:
                deferred.append((left, right))
        return merged, deferred

    def _apply_assumption_merging(
        self,
        prop: IntervalProperty,
        frames: Dict[int, List[SymbolicFrame]],
        window: int,
    ) -> Tuple[int, List[Tuple[Term, Union[Term, int]]]]:
        """Bind mergeable equalities directly; return (merge count, the others).

        Merging is a first pass over *all* assumptions; only then may
        :meth:`_clause_literals` turn the remaining ones into clause
        constraints.  Those bit-blast combinational cones of the
        non-persistent instance, which must not happen before every bindable
        leaf has been bound — otherwise a cone cached early would keep
        referring to stale free variables of a leaf that a later assumption
        merges.
        """
        def bind(target: Term, source: Union[Term, int]) -> bool:
            if isinstance(source, Term):
                vector = self._term_vector(source, frames)
            else:
                vector = self._encoder.blaster.constant(source, self._module.width_of(target.signal))
            frame = frames[target.instance][target.time]
            if frame.is_bound(target.signal):
                return False
            frame.bind_leaf(target.signal, vector)
            return True

        return self._merge_assumptions(prop, window, bind)

    def _clause_literals(
        self,
        deferred: List[Tuple[Term, Union[Term, int]]],
        frames: Dict[int, List[SymbolicFrame]],
    ) -> List[int]:
        """The clause constraints of unmerged assumptions, TRUE ones dropped."""
        clause_literals: List[int] = []
        for left, right in deferred:
            left_vector = self._term_vector(left, frames)
            if isinstance(right, Term):
                right_vector = self._term_vector(right, frames)
            else:
                right_vector = self._encoder.blaster.constant(int(right), len(left_vector))
            clause_literals.append(self._equality_literal(left_vector, right_vector))
        return [literal for literal in clause_literals if literal != TRUE]

    # ------------------------------------------------------------------ #
    # RTL settle
    # ------------------------------------------------------------------ #

    def _settle_on_rtl(
        self, prop: IntervalProperty, window: int
    ) -> Optional[Tuple[int, List[Tuple[Term, Union[Term, int]]]]]:
        """Prove ``prop``'s commitments before any frame or AIG node is built.

        The assumptions are merged exactly as the bit-blast path merges
        them.  Then every commitment must pass :meth:`_reads_merged_leaves`:
        equal cones over equal leaf vectors blast to equal literal vectors,
        so the bit-blast path would prove every commitment structurally.
        Extra assumptions only shrink the checked state space, so whatever
        could not be merged cannot undo that.  An unmerged assumption that
        passes the same walk would blast to TRUE and is dropped; the others
        are left over, for the caller to bit-blast into clause constraints
        (so the bit-blaster's errors on them still show).

        Returns the merge count and the leftover assumptions, or None when
        the check must be bit-blasted: when some commitment's cone reads
        another leaf, and for anything the bit-blast path would reject, so
        that its errors still show.
        """
        module = self._module
        for constraint in (*prop.assumptions, *prop.commitments):
            terms = (constraint.left, constraint.right)
            if any(isinstance(term, Term) and term.signal not in module.signals for term in terms):
                return None
        if any(
            isinstance(assumption.right, Term) and assumption.left.instance != 0
            for assumption in prop.assumptions
        ):
            # Binding to a term of a rebuilt instance builds part of its
            # frames first, which can keep a later merge from binding.
            return None

        # Merged leaf (instance, time, signal) -> the term (as the same kind
        # of key) or the constant it was bound to.
        sources: Dict[Tuple[int, int, str], object] = {}

        def bind(target: Term, source: Union[Term, int]) -> bool:
            if isinstance(source, Term):
                source = (source.instance, source.time, source.signal)
            sources[(target.instance, target.time, target.signal)] = source
            return True

        merged, deferred = self._merge_assumptions(prop, window, bind)
        finished: Set[Tuple[int, int, str]] = set()
        for commitment in prop.commitments:
            if not self._reads_merged_leaves(commitment.left, commitment.right, sources, finished):
                return None
        leftovers = [
            (left, right)
            for left, right in deferred
            if not self._reads_merged_leaves(left, right, sources, finished)
        ]
        return merged, leftovers

    def _reads_merged_leaves(
        self,
        left: Term,
        right: Union[Term, int],
        sources: Dict[Tuple[int, int, str], object],
        finished: Set[Tuple[int, int, str]],
    ) -> bool:
        """True when ``left == right`` equates two cones over the same merged leaves.

        ``left`` must be a signal of instance 0 and ``right`` the same
        signal and time point of a rebuilt instance, whose cone reads only
        leaves merged with instance 0's own.  Nodes are (instance, time,
        signal); ``finished`` holds the nodes already known to pass, shared
        by the walks of one check.  The depth-first search keeps an
        explicit stack, so a deep chain cannot exhaust the recursion limit,
        and fails on a combinational loop, which the bit-blast path cannot
        lower.
        """
        if not (
            isinstance(right, Term)
            and left.instance == 0
            and right.instance != 0
            and (right.signal, right.time) == (left.signal, left.time)
        ):
            return False
        root = (right.instance, right.time, right.signal)
        if root in finished:
            return True
        reads = self._rtl_reads(root, sources)
        if reads is None:
            return False
        path = {root}
        stack: List[Tuple[Tuple[int, int, str], Iterator[Tuple[int, int, str]]]] = [
            (root, iter(reads))
        ]
        while stack:
            node, pending = stack[-1]
            for successor in pending:
                if successor in path:
                    return False
                if successor in finished:
                    continue
                reads = self._rtl_reads(successor, sources)
                if reads is None:
                    return False
                path.add(successor)
                stack.append((successor, iter(reads)))
                break
            else:
                stack.pop()
                path.discard(node)
                finished.add(node)
        return True

    def _rtl_reads(
        self, node: Tuple[int, int, str], sources: Dict[Tuple[int, int, str], object]
    ) -> Optional[List[Tuple[int, int, str]]]:
        """The nodes ``node``'s value is computed from.

        A leaf reads nothing, and is accepted only when merged with instance
        0's same leaf.  None rejects the node.
        """
        instance, time, name = node
        module = self._module
        if name in module.inputs or (time == 0 and name in module.registers):
            return [] if sources.get(node) == (0, time, name) else None
        if name in module.registers:
            reads = self._next_reads.get(name, _UNREAD)
            if reads is _UNREAD:
                reads = self._next_reads[name] = _blastable_support(module.registers[name].next)
            time -= 1
        else:
            reads = self._comb_reads.get(name, _UNREAD)
            if reads is _UNREAD:
                driver = module.comb.get(name)
                reads = None if driver is None else _blastable_support(driver)
                self._comb_reads[name] = reads
        if reads is None:
            return None
        return [(instance, time, read) for read in reads]

    # ------------------------------------------------------------------ #
    # Term evaluation
    # ------------------------------------------------------------------ #

    def _term_vector(self, term: Term, frames: Dict[int, List[SymbolicFrame]]) -> Vector:
        if term.signal not in self._module.signals:
            raise PropertyError(f"property references unknown signal {term.signal!r}")
        return frames[term.instance][term.time].vector_of(term.signal)

    def _constraint_rhs_vector(
        self,
        constraint: Equality,
        frames: Dict[int, List[SymbolicFrame]],
        left_vector: Vector,
    ) -> Vector:
        if isinstance(constraint.right, Term):
            return self._term_vector(constraint.right, frames)
        return self._encoder.blaster.constant(int(constraint.right), len(left_vector))

    def _difference_literal(self, left: Vector, right: Vector) -> int:
        return negate(self._encoder.blaster.equal_vectors(left, right))

    def _equality_literal(self, left: Vector, right: Vector) -> int:
        return self._encoder.blaster.equal_vectors(left, right)

    # ------------------------------------------------------------------ #
    # SAT interaction
    # ------------------------------------------------------------------ #

    def _solve(
        self,
        prepared: PreparedCheck,
        deadline_s: Optional[float] = None,
    ) -> Tuple[bool, Dict[int, int]]:
        """Settle a prepared check's miter against the shared solver context.

        The miter goal and the non-merged assumptions are passed as solver
        *assumptions*, never as permanent unit clauses: the solver keeps its
        clause database (and everything it learned) valid for the next check.
        """
        aig = self._encoder.aig
        context = self._context

        goal_literal = context.literal_of(prepared.miter)
        assumption_literals = [
            context.literal_of(literal) for literal in prepared.clause_assumptions
        ]
        result = prepared.result
        outcome = context.solve(assumption_literals + [goal_literal], deadline_s=deadline_s)
        result.cnf_new_clauses = outcome.new_clauses
        result.cnf_reused_clauses = outcome.reused_clauses
        result.solver_calls = 1
        result.sat_conflicts = outcome.result.conflicts
        result.sat_decisions = outcome.result.decisions
        if not outcome.satisfiable:
            return True, {}

        # Map the CNF model back to AIG input-node values.  Only inputs in the
        # support of *this* check's constraints are extracted; variables that
        # earlier checks encoded into the persistent context carry arbitrary
        # model values and must not leak into the counterexample.
        support_roots = [prepared.miter] + list(prepared.clause_assumptions)
        model = outcome.result.model
        input_values: Dict[int, int] = {}
        for node in aig.cone_nodes(support_roots):
            if not aig.is_input(node):
                continue
            cnf_literal = context.literal_of(node << 1)
            value = model.get(abs(cnf_literal))
            if value is None:
                continue
            input_values[node] = int(value if cnf_literal > 0 else not value)
        return False, input_values

    # ------------------------------------------------------------------ #
    # Counterexample reconstruction
    # ------------------------------------------------------------------ #

    def _vector_value(self, vector: Vector, input_values: Dict[int, int]) -> int:
        bits = self._encoder.aig.evaluate(vector, input_values)
        return from_bits(bits)

    def _build_counterexample(
        self,
        prop: IntervalProperty,
        frames: Dict[int, List[SymbolicFrame]],
        obligations: List[Tuple[Equality, Vector, Vector, int]],
        input_values: Dict[int, int],
        window: int,
    ) -> CounterExample:
        cex = CounterExample(property_name=prop.name)
        for commitment, left_vector, right_vector, difference in obligations:
            if difference == FALSE:
                continue
            left_value = self._vector_value(left_vector, input_values)
            right_value = self._vector_value(right_vector, input_values)
            if left_value != right_value:
                cex.failing_signals.append(
                    (commitment.left.signal, commitment.left.time, left_value, right_value)
                )
        # Record the starting-state and input valuation of both instances for
        # every leaf that participated in the check.
        for instance, instance_frames in frames.items():
            for time_index, frame in enumerate(instance_frames[: window + 1]):
                for signal, vector in frame.leaves.items():
                    cex.values[(instance, time_index, signal)] = self._vector_value(vector, input_values)
        # Also record the values that appear explicitly in the property.
        for constraint in list(prop.assumptions) + list(prop.commitments):
            terms = [constraint.left]
            if isinstance(constraint.right, Term):
                terms.append(constraint.right)
            for term in terms:
                key = (term.instance, term.time, term.signal)
                if key not in cex.values:
                    vector = self._term_vector(term, frames)
                    cex.values[key] = self._vector_value(vector, input_values)
        return cex
