"""Work-counter gate over a cold Table I audit and one hard SAT instance.

Runs ``repro batch --all --jobs 1 --no-cache --json`` in this process,
counting the AIGs built, the ``AIG.and_`` calls made and the CDCL conflicts
the 35 reports sum to, then proves the pigeonhole instance PH(6) with a
stock :class:`repro.sat.SatSolver` and counts its conflicts.  It fails
(exit 1) when any count exceeds its committed ceiling.  All four counts are
deterministic: they are the same under every hash seed and on every host,
so unlike wall time they can gate CI exactly.

Usage::

    PYTHONPATH=src python benchmarks/work_counter_gate.py

A change that lowers a count lowers its ceiling here and quotes old -> new
in its change notes; raising a ceiling is a gate change that must give its
reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from typing import List

from repro.aig.aig import AIG
from repro import cli
from repro.sat import SatSolver

#: Ceilings: the counts of a cold serial Table I audit.  A class whose
#: commitments settle on the RTL bit-blasts only the assumptions it leaves
#: over, and each failing class is bit-blasted once, on its design's own
#: engine.
MAX_AND_CALLS = 140_142
MAX_AIGS = 35

#: Conflict ceilings: today's count plus the larger of 10% and 5, so a
#: small intentional drift in the solver's search does not fail the gate.
#: Table I reads 7: random simulation falsifies the tampered cones before
#: the solver sees them (without it the audit reads 26).  PH(6) reads 776,
#: guarding conflict-clause minimization and learned-clause management.
MAX_TABLE1_CONFLICTS = 12
MAX_PIGEONHOLE_CONFLICTS = 853

PIGEONHOLE_HOLES = 6


def count_cold_table1() -> dict:
    """AIGs built, ``AIG.and_`` calls and CDCL conflicts of one cold serial
    Table I audit."""
    counts = {"aigs": 0, "and_calls": 0}
    original_init, original_and = AIG.__init__, AIG.and_

    def counting_init(self):
        counts["aigs"] += 1
        original_init(self)

    def counting_and(self, a, b):
        counts["and_calls"] += 1
        return original_and(self, a, b)

    AIG.__init__, AIG.and_ = counting_init, counting_and
    output = io.StringIO()
    try:
        with contextlib.redirect_stdout(output):
            status = cli.main(["batch", "--all", "--jobs", "1", "--no-cache", "--json"])
    finally:
        AIG.__init__, AIG.and_ = original_init, original_and
    if status not in (0, 1):
        raise SystemExit(f"the audit failed with exit status {status}")
    reports = json.loads(output.getvalue())["reports"]
    counts["conflicts"] = sum(report["solver"]["conflicts"] for report in reports)
    return counts


def pigeonhole_clauses(holes: int) -> List[List[int]]:
    """PH(holes): holes + 1 pigeons in ``holes`` holes, a hard UNSAT instance."""
    pigeons = holes + 1

    def var(pigeon: int, hole: int) -> int:
        return pigeon * holes + hole + 1

    clauses = [[var(pigeon, hole) for hole in range(holes)] for pigeon in range(pigeons)]
    for hole in range(holes):
        for first in range(pigeons):
            for second in range(first + 1, pigeons):
                clauses.append([-var(first, hole), -var(second, hole)])
    return clauses


def count_pigeonhole_conflicts(holes: int = PIGEONHOLE_HOLES) -> int:
    """Conflicts a stock :class:`SatSolver` spends proving PH(``holes``) UNSAT."""
    solver = SatSolver()
    for clause in pigeonhole_clauses(holes):
        solver.add_clause(clause)
    result = solver.solve()
    if result.satisfiable:
        raise SystemExit(f"PH({holes}) must be UNSAT")
    return result.conflicts


def main() -> int:
    counts = count_cold_table1()
    failures = []
    for label, value, ceiling in (
        ("AIG.and_ calls", counts["and_calls"], MAX_AND_CALLS),
        ("AIGs built", counts["aigs"], MAX_AIGS),
        ("Table I conflicts", counts["conflicts"], MAX_TABLE1_CONFLICTS),
        (f"PH({PIGEONHOLE_HOLES}) conflicts", count_pigeonhole_conflicts(), MAX_PIGEONHOLE_CONFLICTS),
    ):
        verdict = "ok" if value <= ceiling else "REGRESSION"
        print(f"{label:17s} {value:9d}  ceiling {ceiling:9d}  {verdict}")
        if value > ceiling:
            failures.append(f"{label}: {value} > {ceiling}")
    if failures:
        print("work-counter gate FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
