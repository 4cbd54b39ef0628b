"""Pluggable SAT solver backends behind one incremental interface.

Every backend keeps its clause database (and, where the underlying engine
supports it, learned clauses, branching activities and saved phases) alive
across :meth:`SatBackend.solve` calls, so a long verification run pays the
encoding and learning cost of shared logic exactly once.  Per-call goals are
passed as *assumptions* — temporary decisions retracted after the call — never
as permanent unit clauses, which is what makes the same solver instance
reusable for every property of a detection run.

Backends are looked up through a registry:

* ``"python"`` — the pure-Python CDCL solver of :mod:`repro.sat.solver`;
  always available.
* ``"pysat"`` — a `python-sat <https://pysathq.github.io>`_ solver (Glucose 3
  by default), auto-detected at import time and registered only when the
  package is installed.
* ``"auto"`` — the fastest available backend (``pysat`` when installed,
  ``python`` otherwise).
"""

from __future__ import annotations

import importlib.util
from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import ConflictLimitExceeded, SolverError
from repro.sat.solver import SatResult, SatSolver


class SatBackend(ABC):
    """Incremental, assumption-based SAT solving interface.

    A backend owns one persistent solver instance.  Clauses are only ever
    added, never removed; per-call constraints must be expressed through the
    ``assumptions`` argument of :meth:`solve`.
    """

    #: Registry name of the backend class (set by the concrete classes).
    name: str = ""

    @abstractmethod
    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a permanent clause (DIMACS-style signed integer literals)."""

    @abstractmethod
    def ensure_vars(self, count: int) -> None:
        """Grow the variable space to at least ``count`` variables."""

    @abstractmethod
    def solve(
        self,
        assumptions: Optional[Iterable[int]] = None,
        conflict_limit: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> SatResult:
        """Solve the accumulated formula under temporary assumptions.

        The solver state (clauses, learned clauses, heuristics) survives the
        call; an UNSAT answer under assumptions does not make the formula
        permanently unsatisfiable.  ``deadline_s`` is an absolute
        ``time.monotonic()`` deadline: a backend that supports wall-clock
        interruption raises :class:`repro.errors.CheckDeadlineExceeded`
        (solver left reusable) when the search runs past it; backends
        without that capability treat it as best-effort advice.
        """

    @property
    @abstractmethod
    def num_vars(self) -> int:
        """Number of variables known to the solver."""

    @property
    @abstractmethod
    def num_clauses(self) -> int:
        """Number of problem clauses added so far."""

    @property
    @abstractmethod
    def total_conflicts(self) -> int:
        """Conflicts accumulated over every solve call of this backend."""

    @property
    @abstractmethod
    def solve_calls(self) -> int:
        """Number of solve calls made against this backend."""

    # -------------------------------------------------------------- #
    # Optional capabilities (no-op defaults for engines without them)
    # -------------------------------------------------------------- #

    @property
    def total_restarts(self) -> int:
        """Restarts accumulated over every solve call (0 when untracked)."""
        return 0

    @property
    def total_learned_clauses(self) -> int:
        """Clauses learned over the backend's lifetime (0 when untracked)."""
        return 0

    @property
    def total_deleted_clauses(self) -> int:
        """Learned clauses deleted by reduction (0 when untracked)."""
        return 0


class PythonCdclBackend(SatBackend):
    """The bundled pure-Python CDCL solver (:class:`repro.sat.solver.SatSolver`).

    Learned clauses, VSIDS activities and saved phases all live inside the
    wrapped solver and persist across calls by construction.
    """

    name = "python"

    def __init__(
        self,
        minimize: bool = True,
        reduce_base: int = 2000,
        reduce_increment: int = 300,
    ) -> None:
        self._solver = SatSolver(
            minimize=minimize,
            reduce_base=reduce_base,
            reduce_increment=reduce_increment,
        )

    @property
    def solver(self) -> SatSolver:
        """The wrapped solver (exposed for tests and diagnostics)."""
        return self._solver

    def add_clause(self, literals: Iterable[int]) -> None:
        self._solver.add_clause(literals)

    def ensure_vars(self, count: int) -> None:
        self._solver.ensure_vars(count)

    def solve(
        self,
        assumptions: Optional[Iterable[int]] = None,
        conflict_limit: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> SatResult:
        return self._solver.solve(
            assumptions=assumptions,
            conflict_limit=conflict_limit,
            deadline_s=deadline_s,
        )

    @property
    def num_vars(self) -> int:
        return self._solver.num_vars

    @property
    def num_clauses(self) -> int:
        return self._solver.num_clauses

    @property
    def total_conflicts(self) -> int:
        return self._solver.total_conflicts

    @property
    def solve_calls(self) -> int:
        return self._solver.solve_calls

    @property
    def total_restarts(self) -> int:
        return self._solver.total_restarts

    @property
    def total_learned_clauses(self) -> int:
        return self._solver.total_learned_clauses

    @property
    def total_deleted_clauses(self) -> int:
        return self._solver.total_deleted_clauses


class PySatBackend(SatBackend):
    """Backend over an installed `python-sat` solver (incremental mode).

    Only registered when the ``pysat`` package is importable; the default
    engine is Glucose 3, which supports native incremental solving under
    assumptions.
    """

    name = "pysat"

    def __init__(self, engine: str = "glucose3") -> None:
        try:
            from pysat.solvers import Solver  # type: ignore[import-not-found]
        except ImportError as error:  # pragma: no cover - guarded by registry
            raise SolverError("the 'pysat' backend requires the python-sat package") from error
        try:
            self._solver = Solver(name=engine, incr=True)
        except (TypeError, NotImplementedError):  # pragma: no cover - engine-dependent
            self._solver = Solver(name=engine)
        self._engine = engine
        self._num_vars = 0
        self._num_clauses = 0
        self._solve_calls = 0
        # accum_stats() is cumulative; snapshots make SatResult per-call.
        self._stats_base = {"conflicts": 0, "decisions": 0, "propagations": 0, "restarts": 0}

    def add_clause(self, literals: Iterable[int]) -> None:
        clause = list(literals)
        if any(literal == 0 for literal in clause):
            raise SolverError("literal 0 is not allowed")
        for literal in clause:
            self._num_vars = max(self._num_vars, abs(literal))
        self._solver.add_clause(clause)
        self._num_clauses += 1

    def ensure_vars(self, count: int) -> None:
        self._num_vars = max(self._num_vars, count)

    def solve(
        self,
        assumptions: Optional[Iterable[int]] = None,
        conflict_limit: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> SatResult:
        # deadline_s is best-effort advice only: a native pysat search
        # cannot be interrupted on a wall-clock boundary from Python, so
        # the deadline is enforced one layer up (the worker checks it
        # between solver calls) rather than mid-search.
        del deadline_s
        assumptions = list(assumptions or [])
        base = dict(self._stats_base)
        self._solve_calls += 1
        if conflict_limit is not None:
            self._solver.conf_budget(conflict_limit)
            satisfiable = self._solver.solve_limited(assumptions=assumptions)
            if satisfiable is None:
                stats = self._solver.accum_stats() or {}
                self._stats_base = {key: int(stats.get(key, 0)) for key in base}
                raise ConflictLimitExceeded("conflict limit exceeded")
        else:
            satisfiable = self._solver.solve(assumptions=assumptions)
        stats = self._solver.accum_stats() or {}
        self._stats_base = {key: int(stats.get(key, 0)) for key in base}
        result = SatResult(
            satisfiable=bool(satisfiable),
            conflicts=max(0, self._stats_base["conflicts"] - base["conflicts"]),
            decisions=max(0, self._stats_base["decisions"] - base["decisions"]),
            propagations=max(0, self._stats_base["propagations"] - base["propagations"]),
            restarts=max(0, self._stats_base["restarts"] - base["restarts"]),
        )
        if satisfiable:
            model = self._solver.get_model() or []
            result.model = {abs(literal): literal > 0 for literal in model}
        return result

    @property
    def num_vars(self) -> int:
        return max(self._num_vars, int(self._solver.nof_vars() or 0))

    @property
    def num_clauses(self) -> int:
        return self._num_clauses

    @property
    def total_conflicts(self) -> int:
        stats = self._solver.accum_stats() or {}
        return int(stats.get("conflicts", 0))

    @property
    def solve_calls(self) -> int:
        return self._solve_calls

    @property
    def total_restarts(self) -> int:
        stats = self._solver.accum_stats() or {}
        return int(stats.get("restarts", 0))


# ---------------------------------------------------------------------- #
# Backend registry
# ---------------------------------------------------------------------- #

_REGISTRY: Dict[str, Callable[[], SatBackend]] = {}


def register_backend(name: str, factory: Callable[[], SatBackend]) -> None:
    """Register (or replace) a backend factory under ``name``."""
    _REGISTRY[name] = factory


def pysat_available() -> bool:
    """True when the python-sat package is importable."""
    return importlib.util.find_spec("pysat") is not None


def available_backends() -> List[str]:
    """Names of the registered backends, in deterministic order."""
    return sorted(_REGISTRY)


def default_backend_name() -> str:
    """The backend ``"auto"`` resolves to on this installation."""
    return "pysat" if "pysat" in _REGISTRY else "python"


def create_backend(name: str = "auto") -> SatBackend:
    """Instantiate a backend by registry name (``"auto"`` picks the best)."""
    if name == "auto":
        name = default_backend_name()
    factory = _REGISTRY.get(name)
    if factory is None:
        raise SolverError(
            f"unknown solver backend {name!r}; available: {', '.join(available_backends())}"
        )
    return factory()


register_backend("python", PythonCdclBackend)
if pysat_available():  # pragma: no cover - depends on the installation
    register_backend("pysat", PySatBackend)
