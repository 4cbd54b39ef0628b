"""Settled property classes as portable, JSON-native *class records*.

The execution subsystem moves settled classes across two boundaries with one
serialization: worker processes send records back over the result queue, and
the :class:`repro.exec.cache.ResultCache` persists the very same records to
disk.  A record fully reproduces what the consumer of a run can observe for
one class — the scheduled-property metadata, every spurious-counterexample
round, the terminal event, and the :class:`PropertyOutcome` — so replaying a
record (from a worker or from the cache) emits the same typed events the
in-process scheduler would have emitted.

``normalized_report_dict`` is the comparison form used by the determinism
tests and the scaling benchmark: a serialized report with the volatile
performance telemetry (wall-clock timings, solver/clause accounting,
executor topology) stripped, leaving only the schedule-independent semantic
content.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.events import (
    CexFound,
    CexWaived,
    ClassProven,
    ClassSimFalsified,
    ConeSimplified,
    PropertyScheduled,
    RunEvent,
    StructurallyDischarged,
    WorkerLost,
)
from repro.core.report import (
    PropertyOutcome,
    cex_from_dict,
    cex_to_dict,
    diagnosis_from_dict,
    diagnosis_to_dict,
    outcome_from_dict,
    outcome_to_dict,
)
from repro.errors import ReproError


@dataclass
class SpuriousRound:
    """One auto-resolved counterexample round of a class's settle loop."""

    cex: Any  # CounterExample
    diagnosis: Any  # CexDiagnosis
    waived_signals: List[str]
    solve_s: float = 0.0


@dataclass
class ClassResult:
    """Everything one settled property class contributes to a run."""

    design: str
    index: int
    kind: str  # "init", "fanout", or "sequential"
    property_name: str
    commitments: int
    # "structural" | "proven" | "cex" are real verdicts; "timeout" (the
    # check exceeded its wall-clock deadline) and "error" (the task's
    # worker was quarantined) are inconclusive — their outcomes carry
    # ``status != "ok"`` and are never written to the result cache.
    terminal: str
    outcome: PropertyOutcome
    rounds: List[SpuriousRound] = field(default_factory=list)
    from_cache: bool = False
    # Retry count behind an "error" terminal (how often the task was
    # requeued before quarantine).  Event-stream telemetry only: not part
    # of the serialized record, because error results are synthesized on
    # the scheduler side and never cross the queue or the cache.
    retries: int = 0

    def events(self) -> List[RunEvent]:
        """The typed event group this class contributes, in emission order."""
        events: List[RunEvent] = [
            PropertyScheduled(
                design=self.design,
                index=self.index,
                kind=self.kind,
                property_name=self.property_name,
                commitments=self.commitments,
            )
        ]
        final = self.outcome.result
        if final.merged_nodes or (
            final.nodes_before and final.nodes_after < final.nodes_before
        ):
            events.append(
                ConeSimplified(
                    design=self.design,
                    index=self.index,
                    nodes_before=final.nodes_before,
                    nodes_after=final.nodes_after,
                    merged_nodes=final.merged_nodes,
                    kind=self.kind,
                )
            )
        if final.sim_falsified and self.terminal == "cex":
            events.append(
                ClassSimFalsified(
                    design=self.design, index=self.index, kind=self.kind
                )
            )
        for round_ in self.rounds:
            events.append(
                CexFound(
                    design=self.design,
                    index=self.index,
                    cex=round_.cex,
                    diagnosis=round_.diagnosis,
                    auto_resolvable=True,
                    solve_s=round_.solve_s,
                    from_cache=self.from_cache,
                    kind=self.kind,
                )
            )
            events.append(
                CexWaived(
                    design=self.design,
                    index=self.index,
                    signals=tuple(round_.waived_signals),
                )
            )
        if self.terminal == "error":
            events.append(
                WorkerLost(
                    design=self.design,
                    index=self.index,
                    kind=self.kind,
                    retries=self.retries,
                    quarantined=True,
                )
            )
        elif self.terminal == "timeout":
            # An inconclusive class has no terminal verdict event: the
            # outcome (status="timeout", partial telemetry) rides in the
            # report, and consumers treat RunFinished as the stream's end.
            pass
        elif self.terminal == "structural":
            events.append(
                StructurallyDischarged(
                    design=self.design,
                    index=self.index,
                    outcome=self.outcome,
                    from_cache=self.from_cache,
                )
            )
        elif self.terminal == "proven":
            events.append(
                ClassProven(
                    design=self.design,
                    index=self.index,
                    outcome=self.outcome,
                    solve_s=self.outcome.result.runtime_seconds,
                    from_cache=self.from_cache,
                )
            )
        else:
            events.append(
                CexFound(
                    design=self.design,
                    index=self.index,
                    cex=self.outcome.result.cex,
                    diagnosis=self.outcome.diagnosis,
                    auto_resolvable=False,
                    solve_s=self.outcome.result.runtime_seconds,
                    from_cache=self.from_cache,
                    kind=self.kind,
                )
            )
        return events


# ---------------------------------------------------------------------- #
# Record round-trip (queue transport and cache persistence)
# ---------------------------------------------------------------------- #


def class_result_to_record(result: ClassResult) -> Dict[str, Any]:
    """Serialize a class result to a JSON-native record."""
    return {
        "index": result.index,
        "kind": result.kind,
        "property_name": result.property_name,
        "commitments": result.commitments,
        "terminal": result.terminal,
        "rounds": [
            {
                "cex": cex_to_dict(round_.cex),
                "diagnosis": diagnosis_to_dict(round_.diagnosis),
                "waived_signals": list(round_.waived_signals),
                "solve_s": round_.solve_s,
            }
            for round_ in result.rounds
        ],
        "outcome": outcome_to_dict(result.outcome),
        "diagnosis": diagnosis_to_dict(result.outcome.diagnosis),
    }


def class_result_from_record(
    design: str, record: Dict[str, Any], from_cache: bool = False
) -> ClassResult:
    """Rebuild a class result from a record (queue message or cache entry).

    Raises :class:`ReproError` on malformed payloads so that the cache layer
    can turn the failure into a plain miss.
    """
    try:
        outcome = outcome_from_dict(record["outcome"])
        outcome.diagnosis = diagnosis_from_dict(record.get("diagnosis"))
        rounds = [
            SpuriousRound(
                cex=cex_from_dict(entry.get("cex")),
                diagnosis=diagnosis_from_dict(entry.get("diagnosis")),
                waived_signals=list(entry.get("waived_signals", [])),
                solve_s=entry.get("solve_s", 0.0),
            )
            for entry in record.get("rounds", [])
        ]
        terminal = record["terminal"]
        if terminal not in ("structural", "proven", "cex", "timeout", "error"):
            raise ReproError(f"unknown terminal kind {terminal!r}")
        return ClassResult(
            design=design,
            index=record["index"],
            kind=record["kind"],
            property_name=record["property_name"],
            commitments=record["commitments"],
            terminal=terminal,
            outcome=outcome,
            rounds=rounds,
            from_cache=from_cache,
        )
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise ReproError(f"malformed class record: {error}") from error


# ---------------------------------------------------------------------- #
# Report normalization (determinism comparisons)
# ---------------------------------------------------------------------- #

#: Per-outcome keys whose values legitimately depend on scheduling: how the
#: classes were sharded over workers decides which clauses each solver
#: context had already encoded and learned.
_VOLATILE_OUTCOME_KEYS = (
    "runtime_seconds",
    "sat_conflicts",
    "sat_decisions",
    "cnf_new_clauses",
    "cnf_reused_clauses",
    "solver_calls",
    # Preprocessing telemetry: whether simulation or the solver produced a
    # result (and how much sweeping shrank a cone) legitimately depends on
    # accumulated per-worker pattern state.
    "sim_falsified",
    "nodes_before",
    "nodes_after",
    "merged_nodes",
    "sweep_s",
)


def normalized_report_dict(data: Dict[str, Any]) -> Dict[str, Any]:
    """A report dict with volatile performance telemetry stripped.

    Two runs of the same audit — any worker count, cold or warm cache —
    must produce equal normalized dicts; everything removed here is timing
    or solver/executor telemetry by construction.
    """
    normalized = copy.deepcopy(data)
    normalized.pop("total_runtime_seconds", None)
    normalized.pop("solver", None)
    normalized.pop("execution", None)
    normalized.pop("preprocess", None)
    # The phase profile is pure observability output: it exists only when
    # tracing was on, and it is timing by definition.
    normalized.pop("profile", None)
    for outcome in normalized.get("outcomes", []):
        for key in _VOLATILE_OUTCOME_KEYS:
            outcome.pop(key, None)
    return normalized


def normalized_batch_report_dict(data: Dict[str, Any]) -> Dict[str, Any]:
    """Batch-report counterpart of :func:`normalized_report_dict`."""
    normalized = copy.deepcopy(data)
    normalized.pop("total_runtime_seconds", None)
    normalized.pop("execution", None)
    normalized["reports"] = [
        normalized_report_dict(report) for report in normalized.get("reports", [])
    ]
    return normalized
