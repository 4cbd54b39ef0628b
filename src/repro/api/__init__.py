"""repro.api — the session-oriented public API of the library.

This package is the supported entry point for programmatic use::

    from repro.api import Design, DetectionSession

    design = Design.from_benchmark("AES-T1400")
    session = DetectionSession(design)

    # Blocking:
    report = session.run()

    # ... or streaming — react per property class while SAT is running:
    from repro.api.events import CexFound, RunFinished
    for event in session.iter_results():
        if isinstance(event, CexFound) and not event.auto_resolvable:
            print(f"{event.label}: counterexample found")

    print(session.report.to_json())

Batch audits over many designs share one configuration template::

    from repro.api import BatchSession

    batch = BatchSession(["AES-HT-FREE", "RS232-HT-FREE"])
    print(batch.run().summary())
"""

from repro.api.design import Design, parse_input_list
from repro.api.events import (
    CexFound,
    CexWaived,
    ClassEvent,
    ClassProven,
    ClassSimFalsified,
    ConeSimplified,
    EventBus,
    PropertyScheduled,
    RunEvent,
    RunFinished,
    RunStarted,
    SolverProgress,
    StructurallyDischarged,
    WorkerLost,
    class_label,
    event_from_dict,
)
from repro.api.session import BatchReport, BatchSession, DetectionSession
from repro.core.config import DetectionConfig, Waiver
from repro.core.report import SCHEMA_VERSION, DetectionReport, Verdict

__all__ = [
    # loaders & sessions
    "Design",
    "DetectionSession",
    "BatchSession",
    "BatchReport",
    "parse_input_list",
    # configuration & results
    "DetectionConfig",
    "Waiver",
    "DetectionReport",
    "Verdict",
    "SCHEMA_VERSION",
    # events
    "RunEvent",
    "ClassEvent",
    "RunStarted",
    "PropertyScheduled",
    "ConeSimplified",
    "ClassSimFalsified",
    "SolverProgress",
    "StructurallyDischarged",
    "ClassProven",
    "CexFound",
    "CexWaived",
    "WorkerLost",
    "RunFinished",
    "EventBus",
    "class_label",
    "event_from_dict",
]
