"""Tests for the run-event wire format and the EventBus subscription modes.

Covers the to_dict()/from_dict() round trip of every concrete event class
(driven by real runs so nested payloads — outcomes, counterexamples,
diagnoses, reports — are the genuine article), the event_from_dict
dispatcher's error handling, identity-keyed unsubscription, and the
safe-subscriber isolation guarantee (a raising safe subscriber must not
change a run's report).
"""

import json
import logging
import os

import pytest

from repro.api import Design, DetectionConfig, DetectionSession
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
    event_from_dict,
)
from repro.errors import ReproError
from repro.exec.records import normalized_report_dict

#: Event classes whose payload is plain scalars/sequences: the round trip
#: must reproduce a dataclass-equal object.  The remaining classes carry
#: nested domain objects (outcomes, counterexamples, reports) whose
#: reconstruction is exact at the *wire* level (to_dict fixed point).
_SIMPLE_TYPES = (
    RunStarted,
    PropertyScheduled,
    ConeSimplified,
    ClassSimFalsified,
    CexWaived,
    SolverProgress,
    WorkerLost,
)


def _concrete_event_types():
    """Every concrete RunEvent subclass, found by walking the class tree."""
    concrete = []
    pending = [RunEvent]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls not in (RunEvent, ClassEvent):
            concrete.append(cls)
    return concrete


@pytest.fixture(scope="module")
def harvested_events():
    """One event of every wire type, harvested from real runs.

    A secure run contributes structural discharges, a trojaned check-all
    run contributes unresolvable counterexamples, and a feedback design
    with cross-class fanin contributes SAT proofs, sim-falsifications, and
    waived spurious counterexamples.  ``ConeSimplified`` (which needs a
    sweep-friendly cone shape), ``SolverProgress`` (a heartbeat the
    solver only emits on long solves) and ``WorkerLost`` (which needs a
    worker process to die repeatedly) are synthesized.
    """
    # Load the sibling conftest by path: a bare `import conftest` can
    # resolve to another directory's conftest in a full-repo pytest run.
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "_tests_conftest", os.path.join(os.path.dirname(__file__), "conftest.py")
    )
    tests_conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tests_conftest)
    PIPELINE_SOURCE = tests_conftest.PIPELINE_SOURCE
    TROJANED_PIPELINE_SOURCE = tests_conftest.TROJANED_PIPELINE_SOURCE
    from repro.rtl import elaborate_source

    feedback_source = """
    module fx(input clk, input [3:0] din, output [3:0] dout);
      reg [3:0] s; reg [3:0] t;
      always @(posedge clk) begin
        s <= t ^ din;
        t <= s + 4'h1;
      end
      assign dout = s & t;
    endmodule
    """
    events = []
    for source, top in (
        (PIPELINE_SOURCE, "pipe"),
        (TROJANED_PIPELINE_SOURCE, "pipe"),
        (feedback_source, "fx"),
    ):
        session = DetectionSession(
            elaborate_source(source, top),
            config=DetectionConfig(stop_at_first_failure=False),
        )
        events.extend(session.iter_results())
    events.append(
        ConeSimplified(
            design="pipe", index=1, nodes_before=24, nodes_after=9, merged_nodes=5
        )
    )
    events.append(
        SolverProgress(
            design="pipe",
            index=1,
            kind="fanout",
            conflicts=2048,
            restarts=3,
            learned_clauses=1500,
            decision_level=12,
        )
    )
    events.append(
        WorkerLost(design="pipe", index=1, kind="fanout", retries=2, quarantined=True)
    )
    return events


class TestWireRegistry:
    def test_every_concrete_event_class_is_registered(self):
        concrete = {cls.__name__ for cls in _concrete_event_types()}
        assert concrete == set(WIRE_EVENT_TYPES)

    def test_registry_maps_names_to_matching_classes(self):
        for name, cls in WIRE_EVENT_TYPES.items():
            assert cls.__name__ == name
            assert issubclass(cls, RunEvent)


class TestWireRoundTrip:
    def test_harvest_covers_every_wire_type(self, harvested_events):
        covered = {type(event).__name__ for event in harvested_events}
        assert covered == set(WIRE_EVENT_TYPES)

    def test_round_trip_is_exact_for_every_event(self, harvested_events):
        for event in harvested_events:
            wire = event.to_dict()
            assert wire["event"] == type(event).__name__
            restored = event_from_dict(wire)
            assert type(restored) is type(event)
            # The wire form is a fixed point: serializing the restored
            # event reproduces the original payload bit for bit.
            assert restored.to_dict() == wire

    def test_round_trip_restores_dataclass_equality_for_simple_events(
        self, harvested_events
    ):
        simple = [e for e in harvested_events if isinstance(e, _SIMPLE_TYPES)]
        assert simple
        for event in simple:
            assert event_from_dict(event.to_dict()) == event

    def test_wire_form_survives_json_transport(self, harvested_events):
        for event in harvested_events:
            wire = event.to_dict()
            over_the_wire = json.loads(json.dumps(wire))
            assert event_from_dict(over_the_wire).to_dict() == wire

    def test_run_finished_round_trips_the_full_report(self, harvested_events):
        finished = [e for e in harvested_events if isinstance(e, RunFinished)]
        assert finished
        for event in finished:
            restored = event_from_dict(event.to_dict())
            assert restored.report.to_dict() == event.report.to_dict()
            assert restored.report.verdict == event.report.verdict

    def test_cex_found_round_trips_counterexample_and_diagnosis(
        self, harvested_events
    ):
        found = [e for e in harvested_events if isinstance(e, CexFound)]
        assert found
        for event in found:
            restored = event_from_dict(event.to_dict())
            assert restored.auto_resolvable == event.auto_resolvable
            assert (restored.diagnosis is None) == (event.diagnosis is None)
            assert restored.label == event.label

    def test_committed_wire_payloads_are_fixed_points(self):
        # One payload of every harvested event, as an earlier writer emitted
        # it: each must decode and re-encode to exactly the same dict.
        path = os.path.join(os.path.dirname(__file__), "fixtures", "event_wire.jsonl")
        with open(path, encoding="utf-8") as handle:
            payloads = [json.loads(line) for line in handle]
        assert {payload["event"] for payload in payloads} == set(WIRE_EVENT_TYPES)
        for payload in payloads:
            assert event_from_dict(payload).to_dict() == payload

    def test_run_started_journaled_by_an_older_writer_still_decodes(self):
        # Older writers named the SAT solver in every RunStarted; a daemon
        # replaying its journal must still decode those events.
        wire = {"event": "RunStarted", "design": "pipe", "scheduled_classes": 3,
                "solver_backend": "python", "workers": 2}
        event = event_from_dict(wire)
        assert isinstance(event, RunStarted)
        assert (event.design, event.scheduled_classes, event.workers) == ("pipe", 3, 2)


class TestWireDispatchErrors:
    def test_rejects_non_dict(self):
        with pytest.raises(ReproError, match="must be a dict"):
            event_from_dict(["RunStarted"])

    def test_rejects_unknown_event_name(self):
        with pytest.raises(ReproError, match="unknown event type 'Bogus'"):
            event_from_dict({"event": "Bogus"})

    def test_rejects_missing_event_key(self):
        with pytest.raises(ReproError, match="unknown event type None"):
            event_from_dict({"design": "pipe"})

    def test_malformed_payload_is_a_repro_error(self):
        with pytest.raises(ReproError, match="malformed RunStarted"):
            event_from_dict({"event": "RunStarted", "design": "pipe"})

    def test_fields_with_defaults_are_optional_on_read(self):
        wire = {"event": "SolverProgress", "design": "pipe", "index": 1}
        assert event_from_dict(wire) == SolverProgress(design="pipe", index=1)

    def test_fields_without_defaults_are_required_even_when_nullable(self):
        wire = {"event": "CexFound", "design": "pipe", "index": 1, "cex": None,
                "diagnosis": None, "auto_resolvable": False}
        assert event_from_dict(wire).cex is None
        del wire["diagnosis"]
        with pytest.raises(ReproError, match="malformed CexFound"):
            event_from_dict(wire)


class TestEventBusIdentitySubscriptions:
    def test_duplicate_subscription_unsubscribes_only_itself(self):
        # Regression: subscriptions used to be (type, callback) tuples, so
        # list.remove() on the *second* handle detached the *first* entry —
        # and the second unsubscribe raised or silently double-removed.
        bus = EventBus()
        seen = []
        first = bus.subscribe(seen.append)
        second = bus.subscribe(seen.append)
        assert len(bus) == 2

        first()
        assert len(bus) == 1
        bus.emit(RunStarted(design="d", scheduled_classes=1))
        assert len(seen) == 1  # exactly the surviving duplicate fired

        second()
        assert len(bus) == 0
        bus.emit(RunStarted(design="d", scheduled_classes=1))
        assert len(seen) == 1

    def test_unsubscribe_twice_is_a_noop(self):
        bus = EventBus()
        unsubscribe = bus.subscribe(lambda event: None)
        unsubscribe()
        unsubscribe()  # must not raise, must not detach anything else
        assert len(bus) == 0

    def test_typed_duplicates_are_also_identity_keyed(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, RunStarted)
        second = bus.subscribe(seen.append, RunStarted)
        second()
        bus.emit(RunStarted(design="d", scheduled_classes=1))
        assert len(seen) == 1


class TestEventBusSafeMode:
    def test_safe_subscriber_exception_is_logged_and_swallowed(self, caplog):
        bus = EventBus()
        delivered = []

        def explode(event):
            raise RuntimeError("progress bar crashed")

        bus.subscribe(explode, safe=True)
        bus.subscribe(delivered.append)
        with caplog.at_level(logging.ERROR, logger="repro.events"):
            bus.emit(RunStarted(design="d", scheduled_classes=1))
        assert len(delivered) == 1  # delivery continued past the failure
        assert any("safe subscriber" in record.message for record in caplog.records)

    def test_unsafe_subscriber_exception_propagates(self):
        bus = EventBus()
        bus.subscribe(lambda event: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(RuntimeError, match="boom"):
            bus.emit(RunStarted(design="d", scheduled_classes=1))

    def test_raising_safe_subscriber_does_not_change_the_report(
        self, pipeline_module, caplog
    ):
        # The regression the safe mode exists for: a broken observer
        # (telemetry, SSE streamer) must not alter the audit's outcome.
        baseline = DetectionSession(pipeline_module).run()

        session = DetectionSession(pipeline_module)
        calls = []

        def explode(event):
            calls.append(event)
            raise RuntimeError("observer bug")

        session.subscribe(explode, safe=True)
        with caplog.at_level(logging.ERROR, logger="repro.events"):
            report = session.run()

        assert calls  # the subscriber really fired (and raised) every time
        assert normalized_report_dict(report.to_dict()) == normalized_report_dict(
            baseline.to_dict()
        )

    def test_unsafe_subscriber_still_aborts_the_run(self, pipeline_module):
        session = DetectionSession(pipeline_module)

        def explode(event):
            raise RuntimeError("report writer failed")

        session.subscribe(explode)
        with pytest.raises(RuntimeError, match="report writer failed"):
            session.run()
        assert session.report is None
