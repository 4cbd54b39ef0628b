"""A CDCL SAT solver in pure Python.

The solver implements the standard modern architecture: two-watched-literal
propagation with blocking literals, first-UIP conflict analysis with
recursive clause minimization, LBD-tiered clause learning with periodic
reduction of the learned tier, VSIDS-style activity-based branching with
phase saving, and Luby restarts.  Literals use the DIMACS convention
(non-zero signed integers, variable indices start at 1).

Clause storage uses *stable handles*: watch lists and reason pointers hold
:class:`Clause` objects, never positional indices, so deleting learned
clauses cannot invalidate any other reference — deletion just marks the
clause and watch lists drop it lazily on their next visit.

The property checker only hands the solver comparatively small formulas —
structural hashing discharges identical logic cones before CNF generation —
so a clean Python implementation is entirely sufficient for the workloads of
the paper's evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import CheckDeadlineExceeded, ConflictLimitExceeded, SolverError
from repro.obs.progress import active_heartbeat

#: How often (in conflicts) the solve loop polls the wall clock against its
#: deadline.  Coarse on purpose: a ``time.monotonic()`` call per conflict
#: would be measurable, one per 256 conflicts is noise while still bounding
#: deadline overshoot to a fraction of a second on realistic formulas.
DEADLINE_POLL_CONFLICTS = 256


@dataclass
class SatResult:
    """Outcome of a solver call.

    The ``conflicts``/``decisions``/``propagations``/``restarts``/
    ``learned_clauses``/``deleted_clauses`` counters cover *this* call only —
    a persistent solver accumulates totals across calls, exposed via
    :attr:`SatSolver.total_conflicts` and friends.
    """

    satisfiable: bool
    model: Dict[int, bool] = field(default_factory=dict)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0

    def value(self, variable: int) -> bool:
        return self.model.get(variable, False)


class Clause:
    """One clause of the solver's database — the *stable handle*.

    Watch lists and reason pointers reference the object itself, so learned
    clause deletion never invalidates anything: a deleted clause keeps its
    identity, is skipped (and dropped) by propagation, and is garbage
    collected once the last watch entry naming it is purged.
    """

    __slots__ = ("lits", "learned", "lbd", "deleted")

    def __init__(self, lits: List[int], learned: bool = False, lbd: int = 0) -> None:
        self.lits = lits
        self.learned = learned
        self.lbd = lbd
        self.deleted = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "learned" if self.learned else "original"
        return f"Clause({self.lits}, {kind}, lbd={self.lbd})"


def _luby(index: int) -> int:
    """Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...), 0-based index."""
    size, exponent = 1, 0
    while size < index + 1:
        exponent += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        exponent -= 1
        index %= size
    return 1 << exponent


#: Learned clauses with an LBD at or below this are "glue" clauses: they
#: connect few decision levels, propagate often, and are never deleted.
GLUE_LBD = 2


class SatSolver:
    """CDCL solver with incremental clause addition and assumption support."""

    _UNASSIGNED = -1

    def __init__(
        self,
        minimize: bool = True,
        reduce_base: int = 2000,
        reduce_increment: int = 300,
    ) -> None:
        self._num_vars = 0
        #: Original (problem) clause tier.
        self._clauses: List[Clause] = []
        #: Learned clause tier (live clauses only; reduction compacts it).
        self._learned: List[Clause] = []
        #: watch entry = (clause, blocker): when the blocker literal is
        #: already true the clause is satisfied and never touched.
        self._watches: Dict[int, List[Tuple[Clause, int]]] = {}
        self._assigns: List[int] = [self._UNASSIGNED]  # index 0 unused
        self._levels: List[int] = [0]
        self._reasons: List[Optional[Clause]] = [None]
        self._phases: List[bool] = [False]
        self._activity: List[float] = [0.0]
        self._activity_increment = 1.0
        self._activity_decay = 0.95
        # Activity-ordered max-heap of branching candidates.  With one solver
        # persisting across every check of a run, a linear scan over all
        # variables ever created would make each decision O(total run vars).
        self._heap: List[int] = []
        self._heap_index: List[int] = [-1]
        self._trail: List[int] = []
        self._trail_limits: List[int] = []
        self._propagation_head = 0
        self._conflicts = 0
        self._decisions = 0
        self._propagations = 0
        self._restarts = 0
        self._learned_total = 0
        self._deleted_total = 0
        self._solve_calls = 0
        self._call_base = (0, 0, 0, 0, 0, 0)  # counter snapshot at solve() entry
        self._unsat = False
        # Conflict-clause minimization (recursive self-subsumption).
        self._minimize = minimize
        # Learned-tier reduction: fires when the live learned count reaches
        # reduce_base + reductions * reduce_increment, so the DB stays
        # bounded across a long assumption-check sequence while slowly
        # granting a busier formula more room.
        self._reduce_base = reduce_base
        self._reduce_increment = reduce_increment
        self._reductions = 0

    # ------------------------------------------------------------------ #
    # Problem construction
    # ------------------------------------------------------------------ #

    def new_var(self) -> int:
        self._num_vars += 1
        self._assigns.append(self._UNASSIGNED)
        self._levels.append(0)
        self._reasons.append(None)
        self._phases.append(False)
        self._activity.append(0.0)
        self._heap_index.append(-1)
        self._heap_insert(self._num_vars)
        return self._num_vars

    def ensure_vars(self, count: int) -> None:
        while self._num_vars < count:
            self.new_var()

    def add_clause(self, literals: Iterable[int]) -> None:
        clause = sorted(set(literals), key=abs)
        if not clause:
            self._unsat = True
            return
        for literal in clause:
            if literal == 0:
                raise SolverError("literal 0 is not allowed")
            self.ensure_vars(abs(literal))
        # Tautology check.
        for first, second in zip(clause, clause[1:]):
            if first == -second:
                return
        if self._decision_level() == 0:
            # The persistent solver accumulates permanent level-0 assignments
            # (unit clauses, learned units) across solve() calls.  Clauses
            # added later must be simplified against them: a watch placed on
            # an already-falsified literal would never fire again, letting
            # the solver return models that violate the new clause.
            if any(self._literal_value(literal) == 1 for literal in clause):
                return
            clause = [literal for literal in clause if self._literal_value(literal) != 0]
            if not clause:
                self._unsat = True
                return
        if len(clause) == 1:
            literal = clause[0]
            value = self._literal_value(literal)
            if value == 0:
                self._unsat = True
            elif value == self._UNASSIGNED:
                if self._decision_level() != 0:
                    raise SolverError("unit clauses must be added at decision level 0")
                self._enqueue(literal, reason=None)
            return
        self._attach_new(clause, learned=False)

    def _attach_new(self, lits: List[int], learned: bool, lbd: int = 0) -> Clause:
        clause = Clause(lits, learned=learned, lbd=lbd)
        if learned:
            self._learned.append(clause)
        else:
            self._clauses.append(clause)
        self._watch(lits[0], clause, lits[1])
        self._watch(lits[1], clause, lits[0])
        return clause

    def _watch(self, literal: int, clause: Clause, blocker: int) -> None:
        self._watches.setdefault(-literal, []).append((clause, blocker))

    # ------------------------------------------------------------------ #
    # Assignment helpers
    # ------------------------------------------------------------------ #

    def _decision_level(self) -> int:
        return len(self._trail_limits)

    def _literal_value(self, literal: int) -> int:
        assigned = self._assigns[abs(literal)]
        if assigned == self._UNASSIGNED:
            return self._UNASSIGNED
        value = assigned
        return value if literal > 0 else 1 - value

    def _enqueue(self, literal: int, reason: Optional[Clause]) -> bool:
        value = self._literal_value(literal)
        if value != self._UNASSIGNED:
            return value == 1
        variable = abs(literal)
        self._assigns[variable] = 1 if literal > 0 else 0
        self._levels[variable] = self._decision_level()
        self._reasons[variable] = reason
        self._phases[variable] = literal > 0
        self._trail.append(literal)
        return True

    # ------------------------------------------------------------------ #
    # Boolean constraint propagation
    # ------------------------------------------------------------------ #

    def _propagate(self) -> Optional[Clause]:
        """Propagate pending assignments; return a conflicting clause or None.

        This is the solver's innermost loop, so attribute lookups are
        hoisted into locals and the per-literal watch list is rebuilt
        *lazily*: as long as no watch moves (and no deleted clause is
        purged), the existing list object is kept as-is instead of being
        copied element by element on every propagation.  Every watch entry
        carries a *blocking literal* — a clause literal that was true when
        the watch was placed; while it is still true the clause is
        satisfied and the entry is skipped without touching the clause at
        all, which is the common case on long watch lists.
        """
        watches = self._watches
        trail = self._trail
        literal_value = self._literal_value
        enqueue = self._enqueue
        while self._propagation_head < len(trail):
            literal = trail[self._propagation_head]
            self._propagation_head += 1
            self._propagations += 1
            watch_list = watches.get(literal)
            if not watch_list:
                continue
            # Created on the first moved watch; None means "list unchanged".
            new_watch_list: Optional[List[Tuple[Clause, int]]] = None
            conflict: Optional[Clause] = None
            false_literal = -literal
            for position, entry in enumerate(watch_list):
                clause, blocker = entry
                if clause.deleted:
                    # Lazy purge of a reduced clause.
                    if new_watch_list is None:
                        new_watch_list = watch_list[:position]
                    continue
                if literal_value(blocker) == 1:
                    if new_watch_list is not None:
                        new_watch_list.append(entry)
                    continue
                lits = clause.lits
                # Ensure the false literal is at position 1.
                if lits[0] == false_literal:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if first != blocker and literal_value(first) == 1:
                    entry = (clause, first)
                    if new_watch_list is None:
                        watch_list[position] = entry
                    else:
                        new_watch_list.append(entry)
                    continue
                # Look for a replacement watch.
                replaced = False
                for k in range(2, len(lits)):
                    if literal_value(lits[k]) != 0:
                        lits[1], lits[k] = lits[k], lits[1]
                        watches.setdefault(-lits[1], []).append((clause, first))
                        replaced = True
                        break
                if replaced:
                    if new_watch_list is None:
                        new_watch_list = watch_list[:position]
                    continue
                entry = (clause, first)
                if new_watch_list is None:
                    watch_list[position] = entry
                else:
                    new_watch_list.append(entry)
                if not enqueue(first, reason=clause):
                    conflict = clause
                    if new_watch_list is not None:
                        new_watch_list.extend(watch_list[position + 1 :])
                    break
            if new_watch_list is not None:
                watches[literal] = new_watch_list
            if conflict is not None:
                return conflict
        return None

    # ------------------------------------------------------------------ #
    # Conflict analysis
    # ------------------------------------------------------------------ #

    def _bump_activity(self, variable: int) -> None:
        self._activity[variable] += self._activity_increment
        if self._activity[variable] > 1e100:
            # Rescaling preserves the relative order, so the heap stays valid.
            for index in range(1, self._num_vars + 1):
                self._activity[index] *= 1e-100
            self._activity_increment *= 1e-100
        if self._heap_index[variable] >= 0:
            self._heap_sift_up(self._heap_index[variable])

    def _decay_activities(self) -> None:
        self._activity_increment /= self._activity_decay

    # ------------------------------------------------------------------ #
    # Branching-order heap (max activity, ties broken by lower index)
    # ------------------------------------------------------------------ #

    def _heap_prec(self, first: int, second: int) -> bool:
        activity = self._activity
        if activity[first] != activity[second]:
            return activity[first] > activity[second]
        return first < second

    def _heap_swap(self, i: int, j: int) -> None:
        heap = self._heap
        heap[i], heap[j] = heap[j], heap[i]
        self._heap_index[heap[i]] = i
        self._heap_index[heap[j]] = j

    def _heap_sift_up(self, position: int) -> None:
        heap = self._heap
        while position > 0:
            parent = (position - 1) >> 1
            if not self._heap_prec(heap[position], heap[parent]):
                break
            self._heap_swap(position, parent)
            position = parent

    def _heap_sift_down(self, position: int) -> None:
        heap = self._heap
        size = len(heap)
        while True:
            left = 2 * position + 1
            best = position
            if left < size and self._heap_prec(heap[left], heap[best]):
                best = left
            right = left + 1
            if right < size and self._heap_prec(heap[right], heap[best]):
                best = right
            if best == position:
                break
            self._heap_swap(position, best)
            position = best

    def _heap_insert(self, variable: int) -> None:
        if self._heap_index[variable] >= 0:
            return
        self._heap.append(variable)
        self._heap_index[variable] = len(self._heap) - 1
        self._heap_sift_up(len(self._heap) - 1)

    def _heap_pop(self) -> int:
        heap = self._heap
        top = heap[0]
        last = heap.pop()
        self._heap_index[top] = -1
        if heap:
            heap[0] = last
            self._heap_index[last] = 0
            self._heap_sift_down(0)
        return top

    def _analyze(self, conflict: Clause) -> Tuple[List[int], int, int]:
        """First-UIP conflict analysis; returns (clause, backtrack level, LBD).

        The learned clause is minimized by recursive self-subsumption
        (MiniSat-style): a literal whose reason antecedents are all already
        in the clause (or recursively redundant at already-present decision
        levels) contributes nothing and is dropped.  Smaller learned clauses
        propagate earlier and subsume more — the direct mechanism behind the
        lower conflict counts the benchmark floor tracks.

        The LBD (literal block distance — number of distinct decision levels
        in the clause) is computed here, *before* backtracking invalidates
        the level array, and tags the learned clause for tier reduction.
        """
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        literal = 0
        index = len(self._trail) - 1
        clause: Optional[Clause] = conflict
        current_level = self._decision_level()

        while True:
            if clause is None:
                raise SolverError("conflict analysis reached a decision without reason")
            lits = clause.lits
            for clause_literal in lits[1:] if literal != 0 else lits:
                variable = abs(clause_literal)
                if clause_literal == literal:
                    continue
                if not seen[variable] and self._levels[variable] > 0:
                    seen[variable] = True
                    self._bump_activity(variable)
                    if self._levels[variable] >= current_level:
                        counter += 1
                    else:
                        learned.append(clause_literal)
            # Find the next literal to resolve on.
            while True:
                literal = self._trail[index]
                index -= 1
                if seen[abs(literal)]:
                    break
            counter -= 1
            seen[abs(literal)] = False
            if counter == 0:
                break
            clause = self._reasons[abs(literal)]
        learned[0] = -literal

        if self._minimize and len(learned) > 1:
            learned = self._minimize_learned(learned, seen)

        levels = self._levels
        lbd = len({levels[abs(lit)] for lit in learned})

        if len(learned) == 1:
            return learned, 0, lbd
        # Backtrack level: second highest level in the learned clause.
        backtrack_level = 0
        swap_index = 1
        for position in range(1, len(learned)):
            level = levels[abs(learned[position])]
            if level > backtrack_level:
                backtrack_level = level
                swap_index = position
        learned[1], learned[swap_index] = learned[swap_index], learned[1]
        return learned, backtrack_level, lbd

    def _minimize_learned(self, learned: List[int], seen: List[bool]) -> List[int]:
        """Drop recursively redundant literals from a first-UIP clause.

        ``seen`` is the analysis marking: True exactly for the variables of
        ``learned[1:]``.  Redundancy exploration marks further variables;
        marks from failed explorations are undone, successful ones are kept
        (they prove later literals redundant faster).  ``seen`` is local to
        this conflict, so no global cleanup pass is needed.
        """
        levels = self._levels
        abstract_levels = 0
        for lit in learned[1:]:
            abstract_levels |= 1 << (levels[abs(lit)] & 31)
        toclear: List[int] = []
        kept = [learned[0]]
        for lit in learned[1:]:
            if self._reasons[abs(lit)] is None or not self._lit_redundant(
                lit, seen, abstract_levels, toclear
            ):
                kept.append(lit)
        return kept

    def _lit_redundant(
        self, literal: int, seen: List[bool], abstract_levels: int, toclear: List[int]
    ) -> bool:
        levels = self._levels
        reasons = self._reasons
        stack = [literal]
        top = len(toclear)
        while stack:
            reason = reasons[abs(stack.pop())]
            assert reason is not None
            for antecedent in reason.lits[1:]:
                variable = abs(antecedent)
                if seen[variable] or levels[variable] == 0:
                    continue
                if (
                    reasons[variable] is None
                    or not (1 << (levels[variable] & 31)) & abstract_levels
                ):
                    # Reaches a decision/assumption, or a level no clause
                    # literal lives on: not redundant.  Undo this
                    # exploration's marks.
                    for undone in toclear[top:]:
                        seen[undone] = False
                    del toclear[top:]
                    return False
                seen[variable] = True
                stack.append(antecedent)
                toclear.append(variable)
        return True

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_limits[level]
        for literal in reversed(self._trail[limit:]):
            variable = abs(literal)
            self._assigns[variable] = self._UNASSIGNED
            self._reasons[variable] = None
            self._heap_insert(variable)
        del self._trail[limit:]
        del self._trail_limits[level:]
        self._propagation_head = len(self._trail)

    def _learn(self, clause: List[int], lbd: int) -> None:
        self._learned_total += 1
        if len(clause) == 1:
            self._enqueue(clause[0], reason=None)
            return
        handle = self._attach_new(clause, learned=True, lbd=lbd)
        self._enqueue(clause[0], reason=handle)

    # ------------------------------------------------------------------ #
    # Learned-tier reduction
    # ------------------------------------------------------------------ #

    def _reduce_limit(self) -> int:
        return self._reduce_base + self._reductions * self._reduce_increment

    def reduce_learned(self) -> int:
        """Delete the worst half of the deletable learned clauses.

        Kept unconditionally: *glue* clauses (LBD <= ``GLUE_LBD``), binary
        clauses, and *locked* clauses (currently the reason of an assigned
        variable — identified through the stable handle itself, so no index
        bookkeeping can go stale).  The deletable rest is ranked by
        (LBD, size, age) and the worse half is marked deleted; watch lists
        purge the marks lazily.  Returns the number of clauses deleted.
        """
        reasons = self._reasons
        keep: List[Clause] = []
        deletable: List[Clause] = []
        for clause in self._learned:
            if clause.deleted:
                continue
            lits = clause.lits
            locked = reasons[abs(lits[0])] is clause
            if locked or clause.lbd <= GLUE_LBD or len(lits) <= 2:
                keep.append(clause)
            else:
                deletable.append(clause)
        # Stable sort: among equal (lbd, size) the *older* clause sorts
        # first and survives — deterministic without tracking timestamps.
        deletable.sort(key=lambda clause: (clause.lbd, len(clause.lits)))
        cut = len(deletable) // 2
        for clause in deletable[cut:]:
            clause.deleted = True
        deleted = len(deletable) - cut
        self._deleted_total += deleted
        self._learned = keep + deletable[:cut]
        self._reductions += 1
        return deleted

    # ------------------------------------------------------------------ #
    # Branching
    # ------------------------------------------------------------------ #

    def _pick_branch_variable(self) -> Optional[int]:
        # Assigned variables are discarded lazily; _backtrack re-inserts them.
        while self._heap:
            variable = self._heap_pop()
            if self._assigns[variable] == self._UNASSIGNED:
                return variable
        return None

    # ------------------------------------------------------------------ #
    # Main solve loop
    # ------------------------------------------------------------------ #

    def solve(
        self,
        assumptions: Optional[Iterable[int]] = None,
        conflict_limit: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> SatResult:
        """Solve the current formula under optional assumptions.

        Assumptions are applied as pseudo-decisions below every real decision
        level and are fully retracted before the call returns: the clause
        database (including clauses learned during this call), the VSIDS
        activities and the saved phases all persist, so subsequent calls —
        with different assumptions or none — resume from the accumulated
        state instead of starting over.

        ``deadline_s`` is an absolute ``time.monotonic()`` deadline, polled
        at the conflict-loop seam alongside ``conflict_limit`` (every
        :data:`DEADLINE_POLL_CONFLICTS` conflicts); running past it raises
        :class:`CheckDeadlineExceeded` with the solver backtracked to level
        0 and fully reusable.
        """
        assumptions = list(assumptions or [])
        for literal in assumptions:
            if literal == 0:
                raise SolverError("literal 0 is not allowed")
            self.ensure_vars(abs(literal))
        self._solve_calls += 1
        self._call_base = (
            self._conflicts,
            self._decisions,
            self._propagations,
            self._restarts,
            self._learned_total,
            self._deleted_total,
        )
        # Progress heartbeats (repro.obs.progress): resolved once per call,
        # so with no sink installed the conflict loop pays nothing.
        heartbeat = active_heartbeat()
        # Fault seam (repro.exec.faults, imported lazily to keep the sat
        # layer free of exec imports at module load): a planned solver_stall
        # sleeps this call past its deadline so the check_timeout_s path is
        # testable without crafting a genuinely hard formula.  Without a
        # deadline the stall is bounded so a stray plan cannot hang a run.
        from repro.exec.faults import fire as _fire_fault

        if _fire_fault("solver_stall"):
            if deadline_s is not None:
                time.sleep(max(0.0, min(deadline_s - time.monotonic(), 5.0)) + 0.01)
            else:
                time.sleep(0.25)
        if deadline_s is not None and time.monotonic() >= deadline_s:
            raise CheckDeadlineExceeded("check deadline exceeded")
        if self._unsat:
            return self._result(False)
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._unsat = True
            return self._result(False)

        restart_index = 0
        restart_budget = 64 * _luby(restart_index)
        conflicts_at_restart = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self._conflicts += 1
                conflicts_at_restart += 1
                if (
                    heartbeat is not None
                    and (self._conflicts - self._call_base[0]) % heartbeat.interval == 0
                ):
                    heartbeat.emit(
                        conflicts=self._conflicts - self._call_base[0],
                        restarts=self._restarts - self._call_base[3],
                        learned_clauses=self._learned_total - self._call_base[4],
                        decision_level=self._decision_level(),
                    )
                if conflict_limit is not None and self._conflicts - self._call_base[0] >= conflict_limit:
                    # Leave the persistent solver in a reusable state.
                    self._backtrack(0)
                    raise ConflictLimitExceeded("conflict limit exceeded")
                if (
                    deadline_s is not None
                    and (self._conflicts - self._call_base[0]) % DEADLINE_POLL_CONFLICTS == 0
                    and time.monotonic() >= deadline_s
                ):
                    self._backtrack(0)
                    raise CheckDeadlineExceeded("check deadline exceeded")
                if self._decision_level() <= len(assumptions):
                    # Conflict under assumptions only: UNSAT under assumptions.
                    self._backtrack(0)
                    return self._result(False)
                learned, backtrack_level, lbd = self._analyze(conflict)
                self._backtrack(max(backtrack_level, len(assumptions)))
                if backtrack_level < len(assumptions):
                    # The learned clause forces a flip below the assumption levels.
                    self._backtrack(0)
                    if len(learned) == 1:
                        self._learned_total += 1
                        self.add_clause(learned)
                        if self._unsat:
                            return self._result(False)
                        continue
                    self._learned_total += 1
                    self._attach_new(learned, learned=True, lbd=lbd)
                    continue
                self._learn(learned, lbd)
                self._decay_activities()
                if len(self._learned) >= self._reduce_limit():
                    self.reduce_learned()
                continue

            if conflicts_at_restart >= restart_budget:
                restart_index += 1
                restart_budget = 64 * _luby(restart_index)
                conflicts_at_restart = 0
                self._restarts += 1
                self._backtrack(len(assumptions))

            # Apply pending assumptions as pseudo-decisions.
            level = self._decision_level()
            if level < len(assumptions):
                literal = assumptions[level]
                value = self._literal_value(literal)
                if value == 0:
                    self._backtrack(0)
                    return self._result(False)
                self._trail_limits.append(len(self._trail))
                if value == self._UNASSIGNED:
                    self._enqueue(literal, reason=None)
                continue

            variable = self._pick_branch_variable()
            if variable is None:
                result = self._result(True)
                self._backtrack(0)
                return result
            self._decisions += 1
            self._trail_limits.append(len(self._trail))
            literal = variable if self._phases[variable] else -variable
            self._enqueue(literal, reason=None)

    def _result(self, satisfiable: bool) -> SatResult:
        model: Dict[int, bool] = {}
        if satisfiable:
            for variable in range(1, self._num_vars + 1):
                value = self._assigns[variable]
                model[variable] = (value == 1) if value != self._UNASSIGNED else self._phases[variable]
        base = self._call_base
        return SatResult(
            satisfiable=satisfiable,
            model=model,
            conflicts=self._conflicts - base[0],
            decisions=self._decisions - base[1],
            propagations=self._propagations - base[2],
            restarts=self._restarts - base[3],
            learned_clauses=self._learned_total - base[4],
            deleted_clauses=self._deleted_total - base[5],
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Size of the working clause database (originals + live learned)."""
        return len(self._clauses) + len(self._learned)

    @property
    def live_learned_clauses(self) -> int:
        """Learned clauses currently alive (the reduction-bounded tier)."""
        return len(self._learned)

    @property
    def solve_calls(self) -> int:
        return self._solve_calls

    @property
    def total_conflicts(self) -> int:
        return self._conflicts

    @property
    def total_restarts(self) -> int:
        return self._restarts

    @property
    def total_learned_clauses(self) -> int:
        return self._learned_total

    @property
    def total_deleted_clauses(self) -> int:
        return self._deleted_total
