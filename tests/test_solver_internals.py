"""Tests for the CDCL solver internals (repro.sat.solver).

Invariants under test:

* **learned-clause management** — conflict clauses carry LBD tags, the
  learned tier is reduced once it outgrows its budget (glue/binary/locked
  clauses survive), and the deleted/learned counters expose it;
* **stable clause handles** — reducing the database between solve calls
  never corrupts watch lists or reason pointers, so arbitrary
  solve -> reduce -> solve-under-assumptions sequences keep agreeing with
  brute force;
* **conflict-clause minimization** — recursive self-subsumption never
  changes an answer and does not increase the conflict count on the
  pigeonhole family;
* a hypothesis fuzz drives one persistent solver through add/solve/
  assumption sequences against a brute-force oracle.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.sat import SatSolver
from repro.sat.solver import GLUE_LBD

from test_sat import brute_force_satisfiable, pigeonhole_clauses


def _random_clauses(rng, num_vars, num_clauses, max_width=3):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, max_width)
        variables = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


def _satisfies(clauses, model):
    return all(
        any(model.get(abs(l), False) == (l > 0) for l in clause) for clause in clauses
    )


class TestLearnedClauseManagement:
    def test_reduction_deletes_clauses_and_bounds_the_live_tier(self):
        # A tiny budget forces reduction to fire repeatedly on PH(5).
        solver = SatSolver(reduce_base=20, reduce_increment=5)
        for clause in pigeonhole_clauses(5):
            solver.add_clause(clause)
        result = solver.solve()
        assert not result.satisfiable
        assert solver.total_deleted_clauses > 0
        assert result.deleted_clauses == solver.total_deleted_clauses
        assert result.learned_clauses == solver.total_learned_clauses
        # The live tier stays bounded well below everything ever learned.
        assert solver.live_learned_clauses < solver.total_learned_clauses
        assert (
            solver.live_learned_clauses
            <= solver.total_learned_clauses - solver.total_deleted_clauses
        )

    def test_glue_and_binary_clauses_survive_reduction(self):
        solver = SatSolver()
        for clause in pigeonhole_clauses(4):
            solver.add_clause(clause)
        solver.solve()
        protected = [
            clause
            for clause in solver._learned
            if clause.lbd <= GLUE_LBD or len(clause.lits) <= 2
        ]
        solver.reduce_learned()
        assert all(not clause.deleted for clause in protected)

    def test_restart_counter_advances_on_a_hard_instance(self):
        solver = SatSolver()
        for clause in pigeonhole_clauses(5):
            solver.add_clause(clause)
        result = solver.solve()
        # PH(5) needs well over the initial 64-conflict Luby budget.
        assert result.conflicts > 64
        assert result.restarts >= 1
        assert solver.total_restarts == result.restarts

    def test_solver_exposes_the_search_counters(self):
        solver = SatSolver(reduce_base=20, reduce_increment=5)
        for clause in pigeonhole_clauses(5):
            solver.add_clause(clause)
        assert not solver.solve().satisfiable
        assert solver.total_restarts >= 1
        assert solver.total_learned_clauses > 0
        assert solver.total_deleted_clauses > 0


class TestStableClauseHandles:
    """Database reduction must never invalidate watches or reasons."""

    def test_solve_reduce_solve_under_assumptions(self):
        # Regression for index-coupled clause storage: deleting learned
        # clauses while reason/watch references are index-based corrupts
        # later assumption solves.  Stable handles make the sequence safe.
        solver = SatSolver(reduce_base=10, reduce_increment=2)
        guard = 21
        clauses = [c + [-guard] for c in pigeonhole_clauses(4)]
        for clause in clauses:
            solver.add_clause(clause)
        assert not solver.solve(assumptions=[guard]).satisfiable
        deleted = solver.reduce_learned()
        assert deleted >= 0  # explicit mid-sequence reduction
        # The guarded formula stays UNSAT under the guard and SAT without.
        assert not solver.solve(assumptions=[guard]).satisfiable
        assert solver.solve(assumptions=[-guard]).satisfiable
        assert solver.solve().satisfiable

    def test_randomized_solve_reduce_solve_agrees_with_brute_force(self):
        rng = random.Random(0x5EED)
        for _ in range(25):
            num_vars = rng.randint(3, 6)
            solver = SatSolver(reduce_base=5, reduce_increment=1)
            clauses = _random_clauses(rng, num_vars, rng.randint(4, 18))
            for clause in clauses:
                solver.add_clause(clause)
            for _ in range(3):
                expected = brute_force_satisfiable(num_vars, clauses)
                result = solver.solve()
                assert result.satisfiable == expected
                if expected:
                    assert _satisfies(clauses, result.model)
                solver.reduce_learned()
                assumption = rng.randint(1, num_vars) * rng.choice((1, -1))
                expected = brute_force_satisfiable(num_vars, clauses, [assumption])
                assert solver.solve(assumptions=[assumption]).satisfiable == expected


class TestConflictClauseMinimization:
    def test_minimization_never_increases_pigeonhole_conflicts(self):
        for holes in (4, 5):
            clauses = pigeonhole_clauses(holes)
            minimized = SatSolver(minimize=True)
            plain = SatSolver(minimize=False)
            for clause in clauses:
                minimized.add_clause(clause)
                plain.add_clause(clause)
            result_min = minimized.solve()
            result_plain = plain.solve()
            assert not result_min.satisfiable and not result_plain.satisfiable
            assert result_min.conflicts <= result_plain.conflicts

    def test_both_settings_agree_with_brute_force(self):
        rng = random.Random(0xBEEF)
        for _ in range(25):
            num_vars = rng.randint(3, 6)
            clauses = _random_clauses(rng, num_vars, rng.randint(4, 18))
            expected = brute_force_satisfiable(num_vars, clauses)
            for minimize in (True, False):
                solver = SatSolver(minimize=minimize)
                for clause in clauses:
                    solver.add_clause(clause)
                assert solver.solve().satisfiable == expected


class TestSearchCounterTelemetry:
    def test_counters_thread_through_to_the_report(self, sat_trojan_module):
        from repro.api import DetectionSession

        # Random simulation misses this Trojan, so its miter reaches CDCL
        # and the run's solver block must show genuine search work.
        report = DetectionSession(sat_trojan_module).run()
        assert report.solver_calls > 0
        assert report.solver_conflicts > 0
        assert report.solver_learned_clauses > 0
        data = report.to_dict()["solver"]
        assert data["learned_clauses"] == report.solver_learned_clauses
        assert data["restarts"] == report.solver_restarts
        assert data["deleted_clauses"] == report.solver_deleted_clauses
        stats = report.solver_stats()
        assert stats["learned_clauses"] == report.solver_learned_clauses
        assert f"{report.solver_learned_clauses} learned" in report.summary()

    def test_old_report_dicts_default_the_new_counters(self):
        from repro.core.report import DetectionReport
        from test_preprocess import _audit

        data = _audit("RS232-HT-FREE").to_dict()
        # Simulate a v4 report: no search counters in the solver block.
        data["schema_version"] = 4
        for key in ("restarts", "learned_clauses", "deleted_clauses"):
            del data["solver"][key]
        rebuilt = DetectionReport.from_dict(data)
        assert rebuilt.solver_restarts == 0
        assert rebuilt.solver_learned_clauses == 0
        assert rebuilt.solver_deleted_clauses == 0


_clause_strategy = st.lists(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda v: st.sampled_from([v, -v])
    ),
    min_size=1,
    max_size=3,
)


class TestSolverFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        clauses=st.lists(_clause_strategy, min_size=1, max_size=14),
        extra=st.lists(_clause_strategy, min_size=0, max_size=6),
        assumption_vars=st.lists(
            st.integers(min_value=1, max_value=5), min_size=0, max_size=2
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_persistent_solver_agrees_with_brute_force(
        self, clauses, extra, assumption_vars, seed
    ):
        """One persistent solver through add/solve/assume/add rounds."""
        rng = random.Random(seed)
        num_vars = 5
        solver = SatSolver(reduce_base=5, reduce_increment=1)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve().satisfiable == brute_force_satisfiable(num_vars, clauses)
        assumptions = [variable * rng.choice((1, -1)) for variable in assumption_vars]
        assert solver.solve(assumptions=assumptions).satisfiable == (
            brute_force_satisfiable(num_vars, clauses, assumptions)
        )
        # Adding clauses after solving keeps agreeing.
        for clause in extra:
            solver.add_clause(clause)
        combined = clauses + extra
        result = solver.solve()
        assert result.satisfiable == brute_force_satisfiable(num_vars, combined)
        if result.satisfiable:
            assert _satisfies(combined, result.model)
