"""Tests for the CDCL SAT solver and the incremental context over it."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.aig import AIG
from repro.errors import ConflictLimitExceeded, SolverError
from repro.sat.context import SolverContext
from repro.sat.solver import SatSolver, _luby


def brute_force_satisfiable(num_vars, clauses, assumptions=()):
    constrained = list(clauses) + [[literal] for literal in assumptions]
    for bits in itertools.product((False, True), repeat=num_vars):
        assignment = {i + 1: bits[i] for i in range(num_vars)}
        if all(
            any((assignment[abs(l)] if l > 0 else not assignment[abs(l)]) for l in clause)
            for clause in constrained
        ):
            return True
    return False


def check_model(clauses, model):
    for clause in clauses:
        if not any((model[abs(l)] if l > 0 else not model[abs(l)]) for l in clause):
            return False
    return True


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert SatSolver().solve().satisfiable

    def test_single_unit_clause(self):
        solver = SatSolver()
        solver.add_clause([1])
        result = solver.solve()
        assert result.satisfiable and result.value(1) is True

    def test_conflicting_units_unsat(self):
        solver = SatSolver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert not solver.solve().satisfiable

    def test_empty_clause_unsat(self):
        solver = SatSolver()
        solver.add_clause([])
        assert not solver.solve().satisfiable

    def test_tautological_clause_ignored(self):
        solver = SatSolver()
        solver.add_clause([1, -1])
        assert solver.solve().satisfiable

    def test_zero_literal_rejected(self):
        with pytest.raises(SolverError):
            SatSolver().add_clause([0])

    def test_simple_implication_chain(self):
        solver = SatSolver()
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        result = solver.solve()
        assert result.satisfiable
        assert result.value(3) is True

    def test_xor_constraint_model(self):
        # x1 XOR x2 encoded as CNF, plus x1 = True forces x2 = False.
        clauses = [[1, 2], [-1, -2], [1]]
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        assert result.satisfiable
        assert check_model(clauses, result.model)
        assert result.value(2) is False

    def test_unsat_core_style_problem(self):
        # (a or b) and (a or -b) and (-a or b) and (-a or -b) is UNSAT.
        solver = SatSolver()
        for clause in ([1, 2], [1, -2], [-1, 2], [-1, -2]):
            solver.add_clause(clause)
        assert not solver.solve().satisfiable

    def test_num_vars_and_clauses_tracking(self):
        solver = SatSolver()
        solver.add_clause([1, -3])
        assert solver.num_vars == 3
        assert solver.num_clauses == 1


class TestPigeonhole:
    def _pigeonhole(self, holes):
        """holes+1 pigeons into `holes` holes — classic small UNSAT family."""
        pigeons = holes + 1
        var = lambda p, h: p * holes + h + 1
        clauses = []
        for p in range(pigeons):
            clauses.append([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append([-var(p1, h), -var(p2, h)])
        return clauses

    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_pigeonhole_unsat(self, holes):
        solver = SatSolver()
        for clause in self._pigeonhole(holes):
            solver.add_clause(clause)
        assert not solver.solve().satisfiable


class TestAssumptions:
    def _solver(self):
        solver = SatSolver()
        solver.add_clause([-1, 2])   # 1 -> 2
        solver.add_clause([-2, -3])  # 2 -> not 3
        return solver

    def test_sat_under_assumptions(self):
        result = self._solver().solve(assumptions=[1])
        assert result.satisfiable
        assert result.value(2) is True and result.value(3) is False

    def test_unsat_under_assumptions(self):
        assert not self._solver().solve(assumptions=[1, 3]).satisfiable

    def test_solver_reusable_after_assumption_unsat(self):
        solver = self._solver()
        assert not solver.solve(assumptions=[1, 3]).satisfiable
        assert solver.solve(assumptions=[1]).satisfiable
        assert solver.solve().satisfiable

    def test_contradicting_assumption_with_unit(self):
        solver = SatSolver()
        solver.add_clause([5])
        assert not solver.solve(assumptions=[-5]).satisfiable


class TestRandomised:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_3sat_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 8)
        num_clauses = rng.randint(3, 24)
        clauses = []
        for _ in range(num_clauses):
            size = rng.randint(1, 3)
            variables = rng.sample(range(1, num_vars + 1), min(size, num_vars))
            clauses.append([v if rng.random() < 0.5 else -v for v in variables])
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        assert result.satisfiable == brute_force_satisfiable(num_vars, clauses)
        if result.satisfiable:
            assert check_model(clauses, result.model)

    def test_larger_random_satisfiable_instance(self):
        rng = random.Random(99)
        num_vars = 60
        clauses = []
        planted = {v: rng.random() < 0.5 for v in range(1, num_vars + 1)}
        for _ in range(250):
            variables = rng.sample(range(1, num_vars + 1), 3)
            clause = [v if rng.random() < 0.5 else -v for v in variables]
            # Ensure the planted assignment satisfies the clause.
            if not any((planted[abs(l)] if l > 0 else not planted[abs(l)]) for l in clause):
                flip = rng.choice(range(3))
                clause[flip] = -clause[flip]
            clauses.append(clause)
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        assert result.satisfiable
        assert check_model(clauses, result.model)


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(10)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2]


class TestPropagationCounterRegression:
    """Pin the watched-literal scheme's exact behaviour on a fixed formula.

    The `_propagate` hot loop hoists attribute lookups into locals and only
    rebuilds a watch list when a watch actually moved; none of that may
    change *what* is propagated.  The counters below were recorded on the
    straightforward always-rebuild implementation — any drift means the
    optimisation changed semantics, not just speed.
    """

    def _fixed_formula(self):
        rng = random.Random(42)
        clauses = []
        for _ in range(126):
            clause = sorted(rng.sample(range(1, 31), 3))
            clauses.append([v if rng.random() < 0.5 else -v for v in clause])
        return clauses

    def test_counters_unchanged_on_fixed_formula(self):
        clauses = self._fixed_formula()
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        assert result.satisfiable
        assert check_model(clauses, result.model)
        assert (result.propagations, result.decisions, result.conflicts) == (52, 15, 5)

    def test_counters_unchanged_under_assumptions(self):
        clauses = self._fixed_formula()
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        solver.solve()
        result = solver.solve(assumptions=[1, -2])
        assert result.satisfiable
        assert (result.propagations, result.decisions, result.conflicts) == (30, 9, 0)

    def test_unmoved_watch_lists_keep_their_contents(self):
        # A solve that moves no watches must leave every clause still
        # watched by exactly two literals (the invariant the lazy rebuild
        # relies on); re-solving after backtracking exercises the same
        # lists again and must reach the same model.
        solver = SatSolver()
        solver.add_clause([1, 2, 3])
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        first = solver.solve()
        second = solver.solve()
        assert first.satisfiable and second.satisfiable
        assert first.model == second.model


def pigeonhole_clauses(holes):
    """PHP(holes+1, holes): UNSAT and expensive for resolution."""
    pigeons = holes + 1

    def var(pigeon, hole):
        return pigeon * holes + hole + 1

    clauses = [
        [var(pigeon, hole) for hole in range(holes)] for pigeon in range(pigeons)
    ]
    for hole in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, hole), -var(p2, hole)])
    return clauses


class TestConflictLimit:
    def test_limit_raises_and_is_a_solver_error(self):
        solver = SatSolver()
        for clause in pigeonhole_clauses(5):
            solver.add_clause(clause)
        with pytest.raises(ConflictLimitExceeded):
            solver.solve(conflict_limit=3)
        assert issubclass(ConflictLimitExceeded, SolverError)

    def test_solver_stays_usable_after_an_aborted_call(self):
        solver = SatSolver()
        for clause in pigeonhole_clauses(4):
            solver.add_clause(clause)
        with pytest.raises(ConflictLimitExceeded):
            solver.solve(conflict_limit=2)
        # The aborted call backtracked to level 0: the same persistent
        # context finishes the proof (keeping its learned clauses).
        assert not solver.solve().satisfiable

    def test_unlimited_call_never_raises(self):
        solver = SatSolver()
        for clause in pigeonhole_clauses(3):
            solver.add_clause(clause)
        assert not solver.solve().satisfiable

    def test_limit_counts_only_the_current_calls_conflicts(self):
        solver = SatSolver()
        for clause in pigeonhole_clauses(4):
            solver.add_clause(clause)
        with pytest.raises(ConflictLimitExceeded):
            solver.solve(conflict_limit=2)
        spent = solver.total_conflicts
        assert spent == 2
        # A second call gets its own budget: the conflicts of the aborted
        # call do not count against it.
        with pytest.raises(ConflictLimitExceeded):
            solver.solve(conflict_limit=2)
        assert solver.total_conflicts == spent + 2

    def test_solver_context_forwards_the_limit(self):
        from repro.aig.aig import FALSE

        # Two OR-of-XOR trees over the same 6-bit words, folded in opposite
        # orders: equal functions the structural hash cannot identify, so
        # the miter's UNSAT proof needs real search.
        aig = AIG()
        xs = [aig.add_input(f"x{k}") for k in range(6)]
        ys = [aig.add_input(f"y{k}") for k in range(6)]
        left = aig.or_many(aig.xor(a, b) for a, b in zip(xs, ys))
        right = aig.or_many(aig.xor(b, a) for a, b in zip(reversed(xs), reversed(ys)))
        miter = aig.xor(left, right)
        assert miter != FALSE
        context = SolverContext(aig)
        goal = context.literal_of(miter)
        with pytest.raises(ConflictLimitExceeded):
            context.solve([goal], conflict_limit=1)
        # The aborted call leaves the context usable: an unlimited call
        # settles the miter as UNSAT.
        outcome = context.solve([goal])
        assert not outcome.satisfiable
        assert outcome.result.conflicts > 1


class TestAssumptionBasedSolving:
    def test_unsat_under_assumptions_stays_solvable_without_them(self):
        solver = SatSolver()
        guard = 13
        for clause in pigeonhole_clauses(3):
            solver.add_clause(clause + [-guard])
        assert not solver.solve(assumptions=[guard]).satisfiable
        # The same formula must remain solvable once the guard is dropped …
        assert solver.solve().satisfiable
        # … and even re-checkable under the opposite guard.
        assert solver.solve(assumptions=[-guard]).satisfiable

    def test_learned_clauses_persist_across_solve_calls(self):
        solver = SatSolver()
        guard = 13
        clauses = pigeonhole_clauses(3)
        for clause in clauses:
            solver.add_clause(clause + [-guard])
        problem_clauses = solver.num_clauses
        first = solver.solve(assumptions=[guard])
        assert not first.satisfiable and first.conflicts > 0
        # Conflict analysis appended learned clauses to the database.
        assert solver.num_clauses > problem_clauses
        learned_after_first = solver.num_clauses
        # A repeat of the same query keeps the learned clauses and resolves
        # with no more conflicts than the cold call.
        second = solver.solve(assumptions=[guard])
        assert not second.satisfiable
        assert second.conflicts <= first.conflicts
        assert solver.num_clauses >= learned_after_first

    def test_per_call_statistics_reset(self):
        solver = SatSolver()
        for clause in pigeonhole_clauses(3):
            solver.add_clause(clause)
        first = solver.solve()
        assert not first.satisfiable and first.conflicts > 0
        assert solver.total_conflicts >= first.conflicts
        assert solver.solve_calls == 1
        # A permanently UNSAT formula answers immediately on the next call.
        second = solver.solve()
        assert not second.satisfiable and second.conflicts == 0
        assert solver.solve_calls == 2

    def test_phase_and_activity_state_survive(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 3])
        first = solver.solve(assumptions=[1])
        assert first.satisfiable and first.model[3] is True
        second = solver.solve()
        assert second.satisfiable


class TestSolverConformance:
    """The solver agrees with brute force on small instances."""

    def _random_instances(self, count=8):
        rng = random.Random(7)
        instances = []
        for _ in range(count):
            num_vars = rng.randint(3, 7)
            clauses = []
            for _ in range(rng.randint(3, 20)):
                size = rng.randint(1, 3)
                variables = rng.sample(range(1, num_vars + 1), min(size, num_vars))
                clauses.append([v if rng.random() < 0.5 else -v for v in variables])
            instances.append((num_vars, clauses))
        return instances

    def test_agrees_with_brute_force(self):
        for num_vars, clauses in self._random_instances():
            solver = SatSolver()
            for clause in clauses:
                solver.add_clause(clause)
            result = solver.solve()
            assert result.satisfiable == brute_force_satisfiable(num_vars, clauses)

    def test_agrees_under_assumptions(self):
        for num_vars, clauses in self._random_instances():
            solver = SatSolver()
            for clause in clauses:
                solver.add_clause(clause)
            for assumption in ([1], [-1], [1, 2], [-1, -2]):
                result = solver.solve(assumptions=assumption)
                expected = brute_force_satisfiable(num_vars, clauses, assumption)
                assert result.satisfiable == expected
                # UNSAT under assumptions must never poison the formula.
                if not result.satisfiable:
                    follow_up = solver.solve()
                    assert follow_up.satisfiable == brute_force_satisfiable(num_vars, clauses)

    def test_pigeonhole_unsat(self):
        solver = SatSolver()
        for clause in pigeonhole_clauses(3):
            solver.add_clause(clause)
        assert not solver.solve().satisfiable
        assert solver.total_conflicts > 0
        assert solver.solve_calls == 1

    def test_model_satisfies_formula(self):
        clauses = [[1, 2], [-1, -2], [2, 3], [-3, 1]]
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        assert result.satisfiable
        for clause in clauses:
            assert any(
                (result.model.get(abs(l), False) if l > 0 else not result.model.get(abs(l), False))
                for l in clause
            )


class TestSolverContext:
    def _and_chain(self, aig, names):
        literal = None
        for name in names:
            node = aig.add_input(name)
            literal = node if literal is None else aig.and_(literal, node)
        return literal

    def test_only_new_clauses_are_fed(self):
        aig = AIG()
        root = self._and_chain(aig, "abcd")
        context = SolverContext(aig)
        goal = context.literal_of(root)
        first = context.solve([goal])
        assert first.satisfiable
        assert first.new_clauses > 0 and first.reused_clauses == 0
        # Same goal again: the cone is cached, nothing new to feed.
        second = context.solve([context.literal_of(root)])
        assert second.satisfiable
        assert second.new_clauses == 0
        assert second.reused_clauses == first.new_clauses

    def test_overlapping_cone_adds_only_delta(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        shared = aig.and_(a, b)
        context = SolverContext(aig)
        context.solve([context.literal_of(shared)])
        grown = aig.and_(shared, aig.add_input("c"))
        second = context.solve([context.literal_of(grown)])
        assert second.satisfiable
        # Only the new AND gate's three Tseitin clauses are added.
        assert 0 < second.new_clauses <= 3

    def test_assumptions_do_not_poison_the_context(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        both = aig.and_(a, b)
        neither = aig.and_(aig.not_(a), aig.not_(b))
        context = SolverContext(aig)
        conflict = [context.literal_of(both), context.literal_of(neither)]
        assert not context.solve(conflict).satisfiable
        # Each goal alone remains satisfiable in the same context.
        assert context.solve([context.literal_of(both)]).satisfiable
        assert context.solve([context.literal_of(neither)]).satisfiable
        assert context.solve_calls == 3

    def test_statistics_accessors(self):
        aig = AIG()
        root = self._and_chain(aig, "ab")
        context = SolverContext(aig)
        context.solve([context.literal_of(root)])
        assert context.num_clauses == context.clauses_fed > 0
        assert context.num_vars >= 3
        assert context.solve_calls == 1
        assert "1 solver calls" in context.reuse_summary()
