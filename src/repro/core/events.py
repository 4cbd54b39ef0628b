"""Typed run events emitted by the detection scheduler.

The scheduler (:func:`repro.exec.scheduler.run_plans`) does not accumulate
results privately: it *emits* one event stream per run, and every consumer
— the streaming :meth:`repro.api.DetectionSession.iter_results` generator,
progress bars, telemetry hooks, the CLI's verbose mode — observes the same
typed events.  The lifecycle of one run is::

    RunStarted
      PropertyScheduled(k)            for every class k, in class order
        ConeSimplified(k)               preprocessing shrank the miter cone
        StructurallyDischarged(k)       settled on the AIG, no SAT involved
        -- or, during the SAT phase, still in class order --
        ClassSimFalsified(k)            random simulation flipped the miter
        SolverProgress(k)               heartbeat every N conflicts of a solve
        CexFound(k)                     a counterexample was found
        CexWaived(k)                    ... and resolved as spurious (Sec. V-B)
        ClassProven(k)                  the class holds after SAT search
    RunFinished(report)

Every scheduled class produces a ``PropertyScheduled`` event and at most one
terminal event (``StructurallyDischarged``, ``ClassProven``, or a final
unresolved ``CexFound``); ``CexFound``/``CexWaived`` pairs may repeat while
spurious counterexamples are being strengthened away.  When the run stops at
the first failure (``DetectionConfig.stop_at_first_failure``, the default),
classes scheduled after the failing one are abandoned without a terminal
event — progress consumers should treat ``RunFinished`` (always the last
event, carrying the complete report) as the end of the stream, not a
terminal-event count.

Each class declares its payload once, as dataclass fields.  The one wire
codec on :class:`RunEvent` reads those fields, and :data:`WIRE_EVENT_TYPES`
is derived from the class tree, so a new event class needs neither a
serializer nor a registry entry.

These classes are re-exported as the public :mod:`repro.api.events` surface;
they live here so that the scheduler and the work contexts of
:mod:`repro.exec` can emit them without importing the (higher-level) API
package.
"""

from __future__ import annotations

import logging
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Type

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.falsealarm import CexDiagnosis
    from repro.core.report import DetectionReport, PropertyOutcome
    from repro.ipc.cex import CounterExample

logger = logging.getLogger("repro.events")


def class_label(index: int, kind: Optional[str] = None) -> str:
    """Human-readable name of property class ``index``.

    Combinational classes read "init property" (index 0) / "fanout property
    k"; sequential classes (``kind == "sequential"``) read "sequential
    property k".  ``kind`` is optional because not every event carries one —
    index-based naming is the combinational default.
    """
    if kind == "sequential":
        return f"sequential property {index}"
    return "init property" if index == 0 else f"fanout property {index}"


@dataclass(frozen=True)
class RunEvent:
    """Base class of all events of one detection run.

    Every concrete event type round-trips through a JSON-native wire form:
    ``to_dict()`` stamps the payload with the event class name under the
    ``"event"`` key, and :func:`event_from_dict` dispatches back to the
    right class.  The wire form is what crosses process and network
    boundaries — the Server-Sent-Events feed of :mod:`repro.serve` streams
    exactly these dicts.

    The form is read off the dataclass fields, so an event class declares
    its payload once: every field is written, nested domain objects through
    the codecs of :mod:`repro.core.report` (see :func:`_field_codecs`).  On
    read, a field without a default is required, a field with one is
    optional, and keys no field declares are ignored — events journaled by
    older writers (whose ``RunStarted`` also named the SAT solver) replay
    unchanged.
    """

    design: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native wire form of this event (see :func:`event_from_dict`)."""
        codecs = _field_codecs()
        data: Dict[str, Any] = {"event": type(self).__name__}
        for spec in fields(self):
            value = getattr(self, spec.name)
            codec = codecs.get(spec.name)
            data[spec.name] = value if codec is None else codec[0](value)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunEvent":
        """Rebuild an event of exactly this class from its wire form."""
        codecs = _field_codecs()
        values: Dict[str, Any] = {}
        for spec in fields(cls):
            if spec.name not in data and spec.default is not MISSING:
                continue
            value = data[spec.name]
            codec = codecs.get(spec.name)
            values[spec.name] = value if codec is None else codec[1](value)
        return cls(**values)


@lru_cache(maxsize=None)
def _field_codecs() -> Dict[str, Tuple[Callable[[Any], Any], Callable[[Any], Any]]]:
    """(encode, decode) of every event field whose value is not JSON-native.

    Keyed by field name: a field called ``outcome`` always holds a
    :class:`PropertyOutcome`, ``cex`` a counterexample (or None), and so
    on.  Imported lazily — :mod:`repro.core.report` sits above this module.
    """
    from repro.core import report

    return {
        "outcome": (report.outcome_to_dict, report.outcome_from_dict),
        "cex": (report.cex_to_dict, report.cex_from_dict),
        "diagnosis": (report.diagnosis_to_dict, report.diagnosis_from_dict),
        "report": (report.DetectionReport.to_dict, report.DetectionReport.from_dict),
        "signals": (list, tuple),
    }


@dataclass(frozen=True)
class RunStarted(RunEvent):
    """The scheduler is about to settle ``scheduled_classes`` property classes.

    ``workers`` is the parallelism of the run's executor (1 for the classic
    in-process serial flow).
    """

    scheduled_classes: int
    workers: int = 1


@dataclass(frozen=True)
class ClassEvent(RunEvent):
    """Base class of per-property-class events."""

    index: int

    @property
    def label(self) -> str:
        """The class's name, from the event's outcome or own ``kind``."""
        outcome = getattr(self, "outcome", None)
        kind = outcome.kind if outcome is not None else getattr(self, "kind", None)
        return class_label(self.index, kind)


@dataclass(frozen=True)
class PropertyScheduled(ClassEvent):
    """A property was built and scheduled (emitted in class order)."""

    kind: str  # "init", "fanout", or "sequential"
    property_name: str
    commitments: int


@dataclass(frozen=True)
class StructurallyDischarged(ClassEvent):
    """The class was settled on the shared AIG without any SAT search.

    ``from_cache`` marks a replay from the persistent result cache: the
    class was not re-proven, its recorded result was reused.
    """

    outcome: "PropertyOutcome"
    from_cache: bool = False


@dataclass(frozen=True)
class ClassProven(ClassEvent):
    """The class's remaining SAT obligations were proven unsatisfiable.

    ``solve_s`` is the wall-clock time this class's proof took (structural
    preparation plus SAT search; 0.0 is possible for cache replays).
    """

    outcome: "PropertyOutcome"
    solve_s: float = 0.0
    from_cache: bool = False


@dataclass(frozen=True)
class ConeSimplified(ClassEvent):
    """The class's miter cone was shrunk by preprocessing before the solver.

    Emitted between ``PropertyScheduled`` and the class's terminal event
    when the fraig sweep merged nodes or the rewrite pass compacted the
    cone (:mod:`repro.aig.simplify` / :mod:`repro.aig.fraig`).
    """

    nodes_before: int
    nodes_after: int
    merged_nodes: int
    kind: str = "fanout"


@dataclass(frozen=True)
class ClassSimFalsified(ClassEvent):
    """Bit-parallel random simulation falsified this class's miter.

    The counterexample of the following ``CexFound`` event was produced
    with *zero* CDCL solver calls — a random pattern batch flipped the
    property miter outright (:mod:`repro.aig.simvec`).
    """

    kind: str = "fanout"


@dataclass(frozen=True)
class SolverProgress(ClassEvent):
    """Heartbeat from a running CDCL solve, every N conflicts.

    Emitted by the pure-Python :class:`repro.sat.solver.SatSolver` while a
    hard class is being settled, so live consumers (the CLI's verbose mode,
    SSE streaming clients of the serve daemon) see a long solve *move*.
    All counters are per-call (relative to this solve call's entry), and
    ``decision_level`` is the level at emission time.

    Heartbeats are transient telemetry: they flow through the EventBus and
    SSE live feeds but are never recorded in result records, reports, or
    the serve journal — replaying a finished audit yields none.
    """

    kind: str = "fanout"
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    decision_level: int = 0


@dataclass(frozen=True)
class WorkerLost(ClassEvent):
    """The worker settling this class died; the scheduler is recovering.

    Emitted once per affected class when a worker process crashed mid-task.
    ``retries`` is how many times the task had been requeued when the event
    was emitted; ``quarantined`` marks the terminal case — the retry budget
    (``DetectionConfig.task_retries``) ran out and the class settles as an
    inconclusive ``error`` outcome instead of aborting the run.  A
    successfully retried task emits no event at all (its classes settle
    normally on the respawned worker), so ``WorkerLost`` always carries
    ``quarantined=True`` today; the flag is wire-visible for forward
    compatibility with per-retry streaming.
    """

    kind: str = "fanout"
    retries: int = 0
    quarantined: bool = False


@dataclass(frozen=True)
class CexFound(ClassEvent):
    """The SAT search produced a counterexample for this class.

    ``auto_resolvable`` tells the consumer whether the scheduler will resolve
    it automatically (a ``CexWaived`` event follows) or whether this is the
    class's terminal event — a suspected Trojan or a dependency that needs
    engineering review.
    """

    cex: "CounterExample"
    diagnosis: "CexDiagnosis"
    auto_resolvable: bool
    #: Wall-clock seconds of the check that produced this counterexample.
    solve_s: float = 0.0
    from_cache: bool = False
    #: Property kind of the failing class ("init", "fanout", "sequential");
    #: makes the label correct without an outcome on the event.
    kind: str = "fanout"


@dataclass(frozen=True)
class CexWaived(ClassEvent):
    """A spurious counterexample was discharged by strengthened assumptions.

    The named signals are proven equal by another property of the same run
    (Sec. V-B scenario 1); their equalities were added and the class is being
    re-verified against the shared solver context.
    """

    signals: Tuple[str, ...]


@dataclass(frozen=True)
class RunFinished(RunEvent):
    """The run is complete; ``report`` is the final detection report.

    ``elapsed_s`` is the run's wall-clock duration (it equals the report's
    ``total_runtime_seconds``; carried on the event so telemetry consumers
    need not reach into the report).
    """

    report: "DetectionReport"
    elapsed_s: float = 0.0


# ---------------------------------------------------------------------- #
# Wire-format dispatch
# ---------------------------------------------------------------------- #


def _subclasses(cls: Type[RunEvent]) -> List[Type[RunEvent]]:
    """Every class below ``cls`` in the event class tree, depth first."""
    below: List[Type[RunEvent]] = []
    for sub in cls.__subclasses__():
        below.append(sub)
        below.extend(_subclasses(sub))
    return below


#: Every concrete event type that can cross a process or network boundary,
#: keyed by the class name ``to_dict()`` stamps under the ``"event"`` key:
#: every class of the ``RunEvent`` tree but the ``ClassEvent`` base.
WIRE_EVENT_TYPES: Dict[str, Type[RunEvent]] = {
    cls.__name__: cls for cls in _subclasses(RunEvent) if cls is not ClassEvent
}


def event_from_dict(data: Dict[str, Any]) -> RunEvent:
    """Rebuild a typed run event from its ``to_dict()`` wire form.

    Raises :class:`repro.errors.ReproError` on unknown event names or
    malformed payloads, so transport layers (the SSE client, tests) fail
    loudly on foreign data instead of crashing deep inside a constructor.
    """
    if not isinstance(data, dict):
        raise ReproError(f"serialized event must be a dict, got {type(data).__name__}")
    name = data.get("event")
    event_type = WIRE_EVENT_TYPES.get(name)
    if event_type is None:
        known = ", ".join(sorted(WIRE_EVENT_TYPES))
        raise ReproError(f"unknown event type {name!r} (known: {known})")
    try:
        return event_type.from_dict(data)
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise ReproError(f"malformed {name} event payload: {error}") from error


Subscriber = Callable[[RunEvent], None]


class _Subscription:
    """One registered observer.  Deliberately *not* a dataclass/tuple: two
    identical ``subscribe`` calls must produce distinguishable entries, so
    that one unsubscribe handle can only ever detach its own subscription
    (identity semantics, never value equality)."""

    __slots__ = ("event_type", "callback", "safe")

    def __init__(
        self,
        event_type: Optional[Type[RunEvent]],
        callback: Subscriber,
        safe: bool,
    ) -> None:
        self.event_type = event_type
        self.callback = callback
        self.safe = safe


class EventBus:
    """A small synchronous subscriber registry for run events.

    Callbacks run inline on the emitting thread, in subscription order.  By
    default an observer exception propagates to the emitter — aborting the
    run — which is right for consumers whose failure *should* fail the audit
    (e.g. a report writer).  Observers that must never abort a run (progress
    bars, telemetry, streaming clients) subscribe with ``safe=True``:
    their exceptions are logged on the ``repro.events`` logger and delivery
    continues.  ``subscribe`` returns an unsubscribe callable, in the spirit
    of scrapy's signal manager; each call returns a handle that detaches
    exactly its own subscription, even when the same ``(event_type,
    callback)`` pair was registered more than once.
    """

    def __init__(self) -> None:
        self._subscriptions: List[_Subscription] = []

    def subscribe(
        self,
        callback: Subscriber,
        event_type: Optional[Type[RunEvent]] = None,
        safe: bool = False,
    ) -> Callable[[], None]:
        """Register ``callback`` for ``event_type`` (or all events when None).

        With ``safe=True`` the callback can never abort the emitting run:
        exceptions it raises are logged and swallowed (log-and-continue).
        """
        subscription = _Subscription(event_type, callback, safe)
        self._subscriptions.append(subscription)

        def unsubscribe() -> None:
            # list.remove compares with ==, which is identity for
            # _Subscription — a second identical subscription is never
            # detached by this handle, and calling the handle twice is a
            # harmless no-op.
            try:
                self._subscriptions.remove(subscription)
            except ValueError:
                pass

        return unsubscribe

    def emit(self, event: RunEvent) -> None:
        """Deliver ``event`` to every matching subscriber."""
        for subscription in list(self._subscriptions):
            if subscription.event_type is not None and not isinstance(
                event, subscription.event_type
            ):
                continue
            if subscription.safe:
                try:
                    subscription.callback(event)
                except Exception:  # noqa: BLE001 - isolation is the contract
                    logger.exception(
                        "safe subscriber %r failed on %s (run continues)",
                        subscription.callback,
                        type(event).__name__,
                    )
            else:
                subscription.callback(event)

    def __len__(self) -> int:
        return len(self._subscriptions)
