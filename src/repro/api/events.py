"""Public re-export of the typed run events and the event bus.

The canonical definitions live in :mod:`repro.core.events` (so the scheduler
can emit them without importing the API layer); this module is the supported
import path for API consumers::

    from repro.api.events import CexFound, PropertyScheduled, RunFinished
"""

from repro.core.events import (
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
    WIRE_EVENT_TYPES,
    WorkerLost,
    class_label,
    event_from_dict,
)

__all__ = [
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
    "WIRE_EVENT_TYPES",
    "class_label",
    "event_from_dict",
]
