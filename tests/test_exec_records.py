"""Tests for class records (repro.exec.records).

A class record is the one serialization of a settled property class: worker
processes ship it over the result queue and the result cache persists it.
Contract under test:

* records of real audits round-trip exactly, through JSON;
* replaying a record emits the typed event group of its terminal kind, in
  the order the in-process scheduler emits it;
* malformed records raise :class:`ReproError` (which the cache layer turns
  into a plain miss), never a bare ``KeyError``;
* report normalization strips exactly the volatile telemetry.
"""

import importlib.util
import json
import os

import pytest

from repro.api import Design, DetectionConfig, DetectionReport, DetectionSession
from repro.core.events import (
    CexFound,
    CexWaived,
    ClassProven,
    ClassSimFalsified,
    ConeSimplified,
    PropertyScheduled,
    StructurallyDischarged,
    WorkerLost,
)
from repro.core.falsealarm import Cause, CauseKind, CexDiagnosis
from repro.core.report import PropertyOutcome, outcome_from_dict, outcome_to_dict
from repro.errors import ReproError
from repro.exec import normalized_report_dict
from repro.exec.records import (
    ClassResult,
    SpuriousRound,
    class_result_from_record,
    class_result_to_record,
    normalized_batch_report_dict,
)
from repro.ipc.cex import CounterExample
from repro.ipc.engine import PropertyCheckResult
from repro.ipc.prop import IntervalProperty


def _conftest_sources():
    # Load the sibling conftest by path: a bare `import conftest` can
    # resolve to another directory's conftest in a full-repo pytest run.
    spec = importlib.util.spec_from_file_location(
        "_tests_conftest", os.path.join(os.path.dirname(__file__), "conftest.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PIPELINE_SOURCE, module.TROJANED_PIPELINE_SOURCE


def _cached_records(source, cache_dir):
    design = Design.from_source(source, top="pipe")
    config = DetectionConfig(cache_dir=str(cache_dir), stop_at_first_failure=False)
    DetectionSession(design, config=config).run()
    records = []
    for path in sorted(cache_dir.glob("objects/*/*.json")):
        records.append(json.loads(path.read_text())["record"])
    return records


@pytest.fixture(scope="module")
def audit_records(tmp_path_factory):
    """Records of every class of a clean and a trojaned pipeline audit."""
    records = []
    clean, trojaned = _conftest_sources()
    for name, source in (("clean", clean), ("trojaned", trojaned)):
        records.extend(_cached_records(source, tmp_path_factory.mktemp(name)))
    return records


def _cex(name="fanout_property_1"):
    return CounterExample(
        property_name=name,
        failing_signals=[("dout", 1, 0x00, 0xFF)],
        values={(0, 0, "din"): 3, (1, 0, "din"): 3, (0, 1, "dout"): 0, (1, 1, "dout"): 0xFF},
    )


def _diagnosis(cex, kind=CauseKind.NEEDS_REVIEW):
    return CexDiagnosis(
        prop=IntervalProperty(name=cex.property_name),
        cex=cex,
        causes=[Cause(signal="trig", kind=kind, covered_class=None)],
        failing_signals=["dout"],
    )


def _class_result(terminal, holds=True, cex=None, rounds=(), **result_fields):
    result = PropertyCheckResult(
        prop=IntervalProperty(name="fanout_property_1"),
        holds=holds,
        cex=cex,
        structurally_proven=terminal == "structural",
        **result_fields,
    )
    outcome = PropertyOutcome(
        kind="fanout",
        index=1,
        result=result,
        diagnosis=_diagnosis(cex) if cex is not None else None,
        status={"timeout": "timeout", "error": "error"}.get(terminal, "ok"),
    )
    return ClassResult(
        design="pipe",
        index=1,
        kind="fanout",
        property_name="fanout_property_1",
        commitments=8,
        terminal=terminal,
        outcome=outcome,
        rounds=list(rounds),
    )


class TestRecordRoundTrip:
    def test_audits_cover_every_real_verdict_kind(self, audit_records):
        terminals = {record["terminal"] for record in audit_records}
        assert {"structural", "cex"} <= terminals

    def test_every_audit_record_round_trips_exactly(self, audit_records):
        for record in audit_records:
            restored = class_result_from_record("pipe", record)
            assert class_result_to_record(restored) == record

    def test_records_survive_json_transport(self, audit_records):
        for record in audit_records:
            wire = json.loads(json.dumps(record))
            restored = class_result_from_record("pipe", wire, from_cache=True)
            assert restored.from_cache
            assert class_result_to_record(restored) == record

    def test_spurious_rounds_round_trip(self):
        cex = _cex()
        rounds = [
            SpuriousRound(
                cex=cex,
                diagnosis=_diagnosis(cex, CauseKind.REORDER),
                waived_signals=["s1"],
                solve_s=0.25,
            )
        ]
        record = class_result_to_record(_class_result("proven", rounds=rounds))
        restored = class_result_from_record("pipe", json.loads(json.dumps(record)))
        assert len(restored.rounds) == 1
        assert restored.rounds[0].cex.values == cex.values
        assert restored.rounds[0].waived_signals == ["s1"]
        assert restored.rounds[0].solve_s == 0.25
        assert class_result_to_record(restored) == record


class TestReplayedEvents:
    @pytest.mark.parametrize(
        "terminal, event_type",
        [
            ("structural", StructurallyDischarged),
            ("proven", ClassProven),
            ("cex", CexFound),
        ],
    )
    def test_terminal_kind_picks_the_final_event(self, terminal, event_type):
        cex = _cex() if terminal == "cex" else None
        events = _class_result(terminal, holds=cex is None, cex=cex).events()
        assert [type(event) for event in events] == [PropertyScheduled, event_type]
        if terminal == "cex":
            assert not events[-1].auto_resolvable
            assert events[-1].cex is cex

    def test_timeout_class_has_no_terminal_event(self):
        events = _class_result("timeout").events()
        assert [type(event) for event in events] == [PropertyScheduled]

    def test_error_class_ends_with_a_quarantined_worker_loss(self):
        result = _class_result("error")
        result.retries = 3
        events = result.events()
        assert isinstance(events[-1], WorkerLost)
        assert events[-1].quarantined and events[-1].retries == 3

    def test_spurious_rounds_precede_the_terminal_event_in_pairs(self):
        cex = _cex()
        round_ = SpuriousRound(
            cex=cex, diagnosis=_diagnosis(cex, CauseKind.REORDER), waived_signals=["s1"]
        )
        events = _class_result("proven", rounds=[round_, round_]).events()
        assert [type(event) for event in events] == [
            PropertyScheduled,
            CexFound,
            CexWaived,
            CexFound,
            CexWaived,
            ClassProven,
        ]
        assert all(event.auto_resolvable for event in events if isinstance(event, CexFound))
        assert events[2].signals == ("s1",)

    def test_simulation_falsified_cex_is_announced(self):
        events = _class_result("cex", holds=False, cex=_cex(), sim_falsified=True).events()
        assert [type(event) for event in events] == [
            PropertyScheduled,
            ClassSimFalsified,
            CexFound,
        ]

    def test_cone_simplified_only_when_the_cone_shrank(self):
        unchanged = _class_result("proven", nodes_before=20, nodes_after=20).events()
        assert not any(isinstance(event, ConeSimplified) for event in unchanged)
        shrunk = _class_result("proven", nodes_before=20, nodes_after=12).events()
        simplified = [event for event in shrunk if isinstance(event, ConeSimplified)]
        assert len(simplified) == 1
        assert (simplified[0].nodes_before, simplified[0].nodes_after) == (20, 12)

    def test_cache_replays_mark_their_events(self, audit_records):
        for record in audit_records:
            events = class_result_from_record("pipe", record, from_cache=True).events()
            terminal = events[-1]
            if isinstance(terminal, (StructurallyDischarged, ClassProven, CexFound)):
                assert terminal.from_cache


class TestMalformedRecords:
    @pytest.mark.parametrize(
        "missing", ["index", "kind", "property_name", "commitments", "terminal", "outcome"]
    )
    def test_missing_required_key_is_a_repro_error(self, audit_records, missing):
        record = dict(audit_records[0])
        del record[missing]
        with pytest.raises(ReproError, match="malformed class record"):
            class_result_from_record("pipe", record)

    def test_unknown_terminal_is_rejected(self, audit_records):
        record = dict(audit_records[0], terminal="split")
        with pytest.raises(ReproError, match="unknown terminal kind"):
            class_result_from_record("pipe", record)

    def test_non_dict_outcome_is_a_repro_error(self, audit_records):
        record = dict(audit_records[0], outcome=["holds"])
        with pytest.raises(ReproError, match="malformed class record"):
            class_result_from_record("pipe", record)


class TestNormalization:
    def _report_dict(self, trojaned_module):
        return DetectionSession(trojaned_module).run().to_dict()

    def test_strips_exactly_the_volatile_telemetry(self, trojaned_module):
        data = self._report_dict(trojaned_module)
        normalized = normalized_report_dict(data)
        stripped = {"total_runtime_seconds", "solver", "execution", "preprocess", "profile"}
        assert set(data) - set(normalized) == stripped
        for outcome in normalized["outcomes"]:
            assert "runtime_seconds" not in outcome and "sat_conflicts" not in outcome
            assert {"holds", "property", "index", "status"} <= set(outcome)
        assert normalized["verdict"] == data["verdict"]
        assert normalized["counterexample"] == data["counterexample"]

    def test_does_not_mutate_its_input(self, trojaned_module):
        data = self._report_dict(trojaned_module)
        snapshot = json.loads(json.dumps(data))
        normalized_report_dict(data)
        assert data == snapshot

    def test_batch_normalization_normalizes_every_report(self, trojaned_module):
        report = self._report_dict(trojaned_module)
        batch = {
            "schema_version": report["schema_version"],
            "total_runtime_seconds": 1.5,
            "execution": {"workers": 2},
            "reports": [report, report],
        }
        normalized = normalized_batch_report_dict(batch)
        assert "total_runtime_seconds" not in normalized and "execution" not in normalized
        assert normalized["reports"] == [normalized_report_dict(report)] * 2
        assert batch["reports"][0] is report and "solver" in report


class TestLegacyCubeCounters:
    """v8 reports written while cube splitting existed carry per-outcome
    ``cubes`` / ``cubes_cached`` keys; readers must still accept them."""

    def test_outcome_with_cube_counters_still_loads(self, trojaned_module):
        report = DetectionSession(trojaned_module).run()
        entry = outcome_to_dict(report.outcomes[0])
        legacy = dict(entry, cubes=4, cubes_cached=1)
        assert outcome_to_dict(outcome_from_dict(legacy)) == entry

    def test_report_with_cube_counters_still_loads(self, trojaned_module):
        report = DetectionSession(trojaned_module).run()
        data = report.to_dict()
        legacy = json.loads(json.dumps(data))
        for outcome in legacy["outcomes"]:
            outcome.update(cubes=0, cubes_cached=0)
        assert DetectionReport.from_dict(legacy).to_dict() == data
