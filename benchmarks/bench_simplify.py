"""Simulation-guided simplification benchmark: simplify-on vs simplify-off.

Audits the RS232/AES trojan benchmarks (plus their HT-free controls) twice —
once with the default preprocessing pipeline (sim-first falsification +
fraig-style SAT sweeping, :mod:`repro.aig`) and once with ``simplify=False``
(every miter goes straight to Tseitin + CDCL) — and emits
``BENCH_simplify.json`` with per-benchmark wall-clock solve time, total CDCL
conflicts, solver calls and sim-falsification counts for both modes.

Two hard assertions make this an acceptance gate, not just a trend line:

* the *normalized* reports (verdicts, counterexamples, coverage — all
  performance telemetry stripped) of the two modes are identical, and equal
  to a ``--jobs 2`` run of the simplify-on configuration;
* over the trojan benchmarks, simplify-on spends strictly fewer total CDCL
  conflicts than simplify-off (the tampered cones are falsified by random
  simulation before the solver ever sees them).

The document also carries a ``solver_internals`` section: one bundled hard
UNSAT check (pigeonhole) solved by the stock CDCL configuration, by a
no-minimization solver, and by a tightly budgeted learned-clause database —
with hard assertions that conflict-clause minimization does not increase the
conflict count and that reduction actually deletes clauses while keeping the
live learned tier below everything ever learned.  ``benchmarks/perf_gate.py``
compares a freshly generated document against the committed one and fails CI
when the trojan conflict floor or the minimized conflict count regresses.

Usage::

    PYTHONPATH=src python benchmarks/bench_simplify.py
    PYTHONPATH=src python benchmarks/bench_simplify.py \
        --benchmark RS232-T2400 --benchmark AES-T100 --output BENCH_simplify.json

This is a standalone artefact script (plain timings, one JSON document), not
a pytest-benchmark suite like its siblings: its output feeds dashboards and
CI trend lines rather than statistical micro-comparisons.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from typing import Dict, List

from repro.api import Design, DetectionConfig, DetectionSession, Waiver
from repro.exec import normalized_report_dict

DEFAULT_BENCHMARKS = (
    "RS232-HT-FREE",
    "RS232-T2400",
    "AES-HT-FREE",
    "AES-T100",
    "AES-T800",
    "AES-T1400",
    "AES-T1800",
)


def _design_config(design: Design, **overrides) -> DetectionConfig:
    """The benchmark's recommended configuration (what the CLI would build)."""
    waivers = [
        Waiver(signal=name, reason=f"recommended for {design.name}")
        for name in design.recommended_waivers
    ]
    config = DetectionConfig(
        inputs=list(design.data_inputs) or None, waivers=waivers
    )
    return replace(config, **overrides)


def _audit(name: str, **overrides) -> Dict[str, object]:
    design = Design.from_benchmark(name)
    session = DetectionSession(design, config=_design_config(design, **overrides))
    started = time.perf_counter()
    report = session.run()
    elapsed = time.perf_counter() - started
    return {
        "wall_s": elapsed,
        "verdict": report.verdict.value,
        "solver_conflicts": report.solver_conflicts,
        "solve_calls": report.solver_calls,
        "restarts": report.solver_restarts,
        "learned_clauses": report.solver_learned_clauses,
        "deleted_clauses": report.solver_deleted_clauses,
        "sim_falsified": report.preprocess_sim_falsified,
        "merged_nodes": report.preprocess_merged_nodes,
        "sweep_s": report.preprocess_sweep_s,
        "normalized": normalized_report_dict(report.to_dict()),
    }


def _pigeonhole_clauses(holes: int) -> List[List[int]]:
    """PH(holes): holes+1 pigeons in ``holes`` holes — classically hard UNSAT."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses: List[List[int]] = [
        [var(p, h) for h in range(holes)] for p in range(pigeons)
    ]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def solver_internals_record(holes: int = 6) -> Dict[str, object]:
    """Minimization / learned-DB-reduction evidence on one hard check.

    Three solver configurations prove the same PH(``holes``) instance; the
    record exposes each one's conflicts, restarts and learned-clause
    economy.  Assertions gate the two claims the CDCL overhaul makes:
    minimization lowers (never raises) the conflict floor, and reduction
    bounds the live learned tier while provably deleting clauses.
    """
    from repro.sat import SatSolver

    clauses = _pigeonhole_clauses(holes)
    configurations = {
        "minimize": SatSolver(),
        "no_minimize": SatSolver(minimize=False),
        "bounded_db": SatSolver(reduce_base=100, reduce_increment=25),
    }
    record: Dict[str, object] = {"instance": f"pigeonhole-{holes}"}
    for label, solver in configurations.items():
        for clause in clauses:
            solver.add_clause(clause)
        started = time.perf_counter()
        result = solver.solve()
        if result.satisfiable:
            raise AssertionError(f"{label}: PH({holes}) must be UNSAT")
        record[label] = {
            "wall_s": time.perf_counter() - started,
            "conflicts": result.conflicts,
            "restarts": result.restarts,
            "learned_clauses": solver.total_learned_clauses,
            "deleted_clauses": solver.total_deleted_clauses,
            "live_learned_clauses": solver.live_learned_clauses,
        }
    minimize, plain = record["minimize"], record["no_minimize"]
    if minimize["conflicts"] > plain["conflicts"]:
        raise AssertionError(
            f"conflict-clause minimization raised the PH({holes}) conflict "
            f"count: {minimize['conflicts']} vs {plain['conflicts']}"
        )
    bounded = record["bounded_db"]
    if bounded["deleted_clauses"] <= 0:
        raise AssertionError("learned-clause reduction never fired on the bounded DB")
    if bounded["live_learned_clauses"] >= bounded["learned_clauses"]:
        raise AssertionError(
            "reduction failed to bound the live learned tier: "
            f"{bounded['live_learned_clauses']} live of "
            f"{bounded['learned_clauses']} learned"
        )
    return record


def run_benchmark(benchmarks: List[str]) -> Dict[str, object]:
    per_benchmark: Dict[str, Dict[str, object]] = {}
    totals = {
        "on": {"wall_s": 0.0, "solver_conflicts": 0, "solve_calls": 0},
        "off": {"wall_s": 0.0, "solver_conflicts": 0, "solve_calls": 0},
    }
    trojan_conflicts = {"on": 0, "off": 0}
    trojan_wall = {"on": 0.0, "off": 0.0}
    for name in benchmarks:
        on = _audit(name)
        off = _audit(name, simplify=False)
        jobs2 = _audit(name, jobs=2)
        normalized = on.pop("normalized")
        if off.pop("normalized") != normalized:
            raise AssertionError(
                f"{name}: simplify-on and simplify-off normalized reports differ"
            )
        if jobs2.pop("normalized") != normalized:
            raise AssertionError(
                f"{name}: --jobs 1 and --jobs 2 normalized reports differ"
            )
        entry: Dict[str, object] = {
            "simplify_on": on,
            "simplify_off": off,
            "jobs2_wall_s": jobs2["wall_s"],
            "conflict_reduction": off["solver_conflicts"] - on["solver_conflicts"],
            "speedup": (off["wall_s"] / on["wall_s"]) if on["wall_s"] > 0 else None,
        }
        per_benchmark[name] = entry
        for mode, run in (("on", on), ("off", off)):
            totals[mode]["wall_s"] += run["wall_s"]
            totals[mode]["solver_conflicts"] += run["solver_conflicts"]
            totals[mode]["solve_calls"] += run["solve_calls"]
        if on["verdict"] != "secure":
            for mode, run in (("on", on), ("off", off)):
                trojan_conflicts[mode] += run["solver_conflicts"]
                trojan_wall[mode] += run["wall_s"]

    if trojan_conflicts["off"] == 0:
        print("note: no trojan-positive benchmark audited; conflict-reduction gate skipped")
    elif trojan_conflicts["on"] >= trojan_conflicts["off"]:
        raise AssertionError(
            f"simplify-on did not reduce CDCL conflicts on the trojan "
            f"benchmarks: {trojan_conflicts['on']} vs {trojan_conflicts['off']}"
        )
    return {
        "benchmark": "simplify",
        "benchmarks_audited": list(benchmarks),
        "per_benchmark": per_benchmark,
        "totals": totals,
        "trojan_conflicts": trojan_conflicts,
        "trojan_wall_s": trojan_wall,
        "trojan_speedup": (
            trojan_wall["off"] / trojan_wall["on"] if trojan_wall["on"] > 0 else None
        ),
        "solver_internals": solver_internals_record(),
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--benchmark",
        action="append",
        default=[],
        metavar="NAME",
        help="benchmark to audit (repeatable; default: RS232/AES set)",
    )
    parser.add_argument(
        "--output", default="BENCH_simplify.json", metavar="FILE",
        help="where to write the JSON document (default: BENCH_simplify.json)",
    )
    args = parser.parse_args(argv)

    benchmarks = args.benchmark or list(DEFAULT_BENCHMARKS)
    document = run_benchmark(benchmarks)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for name, entry in document["per_benchmark"].items():
        on, off = entry["simplify_on"], entry["simplify_off"]
        print(
            f"{name:16s} on: {on['wall_s']:.2f} s / {on['solver_conflicts']} cfl"
            f" ({on['sim_falsified']} sim-falsified)   "
            f"off: {off['wall_s']:.2f} s / {off['solver_conflicts']} cfl"
        )
    internals = document["solver_internals"]
    print(
        f"{internals['instance']}: {internals['minimize']['conflicts']} cfl "
        f"minimized vs {internals['no_minimize']['conflicts']} plain; "
        f"bounded DB kept {internals['bounded_db']['live_learned_clauses']} of "
        f"{internals['bounded_db']['learned_clauses']} learned "
        f"({internals['bounded_db']['deleted_clauses']} deleted)"
    )
    speedup = document["trojan_speedup"]
    print(
        f"trojan totals: {document['trojan_conflicts']['on']} vs "
        f"{document['trojan_conflicts']['off']} conflicts, "
        f"{document['trojan_wall_s']['on']:.2f} s vs "
        f"{document['trojan_wall_s']['off']:.2f} s"
        + (f" (speedup x{speedup:.2f})" if speedup is not None else "")
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
