"""Tests for the session-oriented public API (`repro.api`).

Covers the Design loaders, event ordering and streaming semantics of
DetectionSession.iter_results(), the subscriber bus, batch sessions, and the
deprecation shim of detect_trojans().
"""

import gc
import warnings
import weakref

import pytest

from repro.api import (
    BatchReport,
    BatchSession,
    CexFound,
    ClassProven,
    Design,
    DetectionConfig,
    DetectionSession,
    PropertyScheduled,
    RunEvent,
    RunFinished,
    RunStarted,
    StructurallyDischarged,
    Waiver,
    parse_input_list,
)
from repro.core.events import CexWaived, class_label
from repro.errors import ConfigError, DesignError, ReproError
from repro.rtl.netlist import DependencyGraph

PIPELINE_SOURCE = """
module pipe(
  input clk,
  input  [7:0] din,
  output [7:0] dout
);
  reg [7:0] s1;
  reg [7:0] s2;
  always @(posedge clk) begin
    s1 <= din ^ 8'h5a;
    s2 <= s1 + 8'h01;
  end
  assign dout = s2;
endmodule
"""


class TestDesignLoaders:
    def test_from_source(self):
        design = Design.from_source(PIPELINE_SOURCE, top="pipe")
        assert design.name == "pipe"
        assert design.origin == "source"
        assert "din" in design.data_inputs

    def test_from_source_custom_name(self):
        design = Design.from_source(PIPELINE_SOURCE, top="pipe", name="vendor-ip")
        assert design.name == "vendor-ip"

    def test_from_source_requires_top(self):
        with pytest.raises(DesignError):
            Design.from_source(PIPELINE_SOURCE, top="")

    def test_from_file(self, tmp_path):
        path = tmp_path / "pipe.v"
        path.write_text(PIPELINE_SOURCE)
        design = Design.from_file(str(path), top="pipe")
        assert design.module.name == "pipe"
        assert design.origin.startswith("file:")

    def test_from_file_missing_file_raises_design_error(self):
        with pytest.raises(DesignError, match="cannot read"):
            Design.from_file("/nonexistent/file.v", top="pipe")

    def test_from_benchmark_carries_metadata(self):
        design = Design.from_benchmark("BasicRSA-HT-FREE")
        assert design.origin == "benchmark"
        assert design.data_inputs == ("ds", "indata", "inExp", "inMod")
        assert design.recommended_waivers

    def test_from_benchmark_unknown_name(self):
        with pytest.raises(DesignError, match="unknown benchmark"):
            Design.from_benchmark("AES-T0")

    def test_from_module(self, pipeline_module):
        design = Design.from_module(pipeline_module)
        assert design.module is pipeline_module

    def test_clock_only_module_still_loads_and_runs(self):
        # A module with no traceable data inputs is not a loader error: the
        # flow still runs and the coverage check flags everything uncovered
        # (matching the pre-session detect_trojans behaviour).
        source = """
        module ticker(input clk, output o);
          reg r;
          always @(posedge clk) r <= ~r;
          assign o = r;
        endmodule
        """
        design = Design.from_source(source, top="ticker")
        report = DetectionSession(design).run()
        assert report.verdict.value == "uncovered-signals"

    def test_analysis_is_cached_per_input_set(self):
        design = Design.from_source(PIPELINE_SOURCE, top="pipe")
        assert design.analysis() is design.analysis()
        assert design.analysis(["din"]) is design.analysis(["din"])

    def test_analysis_rejects_unknown_inputs(self):
        design = Design.from_source(PIPELINE_SOURCE, top="pipe")
        with pytest.raises(DesignError, match="available inputs"):
            design.analysis(["nonexistent_signal"])

    def test_default_config_uses_recommended_waivers(self):
        design = Design.from_benchmark("BasicRSA-HT-FREE")
        config = design.default_config()
        assert set(config.waived_signals()) == set(design.recommended_waivers)
        bare = design.default_config(include_recommended_waivers=False)
        assert bare.waivers == []

    def test_describe_mentions_name_and_inputs(self):
        design = Design.from_source(PIPELINE_SOURCE, top="pipe")
        text = design.describe()
        assert "pipe" in text and "din" in text


class TestParseInputList:
    def test_parses_and_strips(self):
        assert parse_input_list(" a , b,c ") == ["a", "b", "c"]

    def test_rejects_empty_entries(self):
        with pytest.raises(ConfigError, match="empty signal name"):
            parse_input_list("a,,b")
        with pytest.raises(ConfigError, match="empty signal name"):
            parse_input_list("a,b,")

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_input_list("a,b,a")

    def test_rejects_blank(self):
        with pytest.raises(ConfigError):
            parse_input_list("   ")


class TestEventStreaming:
    def test_events_cover_every_class_in_order(self, pipeline_module):
        session = DetectionSession(pipeline_module)
        events = list(session.iter_results())

        assert isinstance(events[0], RunStarted)
        assert isinstance(events[-1], RunFinished)

        scheduled = [event for event in events if isinstance(event, PropertyScheduled)]
        depth = events[0].scheduled_classes
        assert [event.index for event in scheduled] == list(range(depth))
        assert scheduled[0].kind == "init" and scheduled[0].label == "init property"

        # Every scheduled class gets exactly one terminal event.
        for event in scheduled:
            terminals = [
                e for e in events
                if isinstance(e, (StructurallyDischarged, ClassProven))
                or (isinstance(e, CexFound) and not e.auto_resolvable)
                if e.index == event.index
            ]
            assert len(terminals) == 1, class_label(event.index)

    def test_failing_run_emits_cex_found(self, trojaned_module):
        session = DetectionSession(trojaned_module)
        events = list(session.iter_results())
        found = [event for event in events if isinstance(event, CexFound)]
        assert found and not found[-1].auto_resolvable
        assert found[-1].diagnosis is not None
        assert session.report.trojan_detected

    def test_streaming_is_lazy(self, trojaned_module):
        """Events arrive before the run is complete; early abort is possible."""
        session = DetectionSession(trojaned_module)
        iterator = session.iter_results()
        first = next(iterator)
        assert isinstance(first, RunStarted)
        assert session.report is None  # the run has not finished yet
        iterator.close()  # early abort: no RunFinished was consumed
        assert session.report is None

    def test_run_matches_iter_results_report(self, pipeline_module):
        streamed = DetectionSession(pipeline_module)
        list(streamed.iter_results())
        blocking = DetectionSession(pipeline_module).run()
        assert streamed.report.verdict == blocking.verdict
        assert [o.label for o in streamed.report.outcomes] == [
            o.label for o in blocking.outcomes
        ]

    def test_spurious_resolution_emits_waived_events(self):
        # A design whose later class depends on an earlier class's register
        # through cross-class fanin, provoking a reorder-resolvable CEX in
        # strict mode.
        source = """
        module cross(input clk, input [3:0] din, output [3:0] dout);
          reg [3:0] a;
          reg [3:0] b;
          always @(posedge clk) begin
            a <= din + 4'h1;
            b <= a ^ din;
          end
          assign dout = b;
        endmodule
        """
        design = Design.from_source(source, top="cross")
        config = DetectionConfig(cumulative_assumptions=False)
        session = DetectionSession(design, config=config)
        events = list(session.iter_results())
        waived = [event for event in events if isinstance(event, CexWaived)]
        if waived:  # resolution happened: a CexFound(auto_resolvable) preceded it
            index = events.index(waived[0])
            assert isinstance(events[index - 1], CexFound)
            assert events[index - 1].auto_resolvable
        assert session.report.is_secure or session.report.trojan_detected

    def test_subscriber_bus_sees_all_events(self, pipeline_module):
        session = DetectionSession(pipeline_module)
        seen = []
        unsubscribe = session.subscribe(seen.append)
        streamed = list(session.iter_results())
        assert seen == streamed

        unsubscribe()
        list(session.iter_results())
        assert len(seen) == len(streamed)  # no longer receiving

    def test_typed_subscription(self, pipeline_module):
        session = DetectionSession(pipeline_module)
        finished = []
        session.subscribe(finished.append, RunFinished)
        report = session.run()
        assert len(finished) == 1
        assert finished[0].report is report

    def test_run_finished_subscriber_sees_session_report(self, pipeline_module):
        session = DetectionSession(pipeline_module)
        seen = []
        session.subscribe(lambda event: seen.append(session.report), RunFinished)
        report = session.run()
        assert seen == [report]  # report is set before the event is dispatched


class TestDetectionSession:
    def test_run_returns_report_and_caches_it(self, pipeline_module):
        session = DetectionSession(pipeline_module)
        report = session.run()
        assert report.is_secure
        assert session.report is report

    def test_accepts_design_or_module(self, pipeline_module):
        from_module = DetectionSession(pipeline_module).run()
        from_design = DetectionSession(Design.from_module(pipeline_module)).run()
        assert from_module.verdict == from_design.verdict

    def test_report_carries_design_name(self):
        design = Design.from_source(PIPELINE_SOURCE, top="pipe", name="ip-under-audit")
        report = DetectionSession(design).run()
        assert report.design == "ip-under-audit"

    def test_context_manager(self, pipeline_module):
        with DetectionSession(pipeline_module) as session:
            assert session.run().is_secure

    def test_detect_trojans_shim_warns_and_delegates(self, pipeline_module):
        from repro import detect_trojans

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = detect_trojans(pipeline_module)
        assert any(issubclass(w.category, DeprecationWarning) for w in caught)
        assert report.is_secure


class TestBatchSession:
    def test_batch_over_modules(self, pipeline_module, trojaned_module):
        batch = BatchSession([pipeline_module, trojaned_module])
        report = batch.run()
        assert report.designs_audited == 2
        assert not report.all_secure
        assert len(report.flagged_designs()) == 1
        assert report.verdict_counts()["secure"] == 1

    def test_batch_by_benchmark_name(self):
        batch = BatchSession(["RS232-HT-FREE"])
        report = batch.run()
        assert report.all_secure
        assert report.report_for("RS232-HT-FREE").design == "RS232-HT-FREE"

    def test_iter_reports_is_lazy(self, pipeline_module, trojaned_module):
        batch = BatchSession([pipeline_module, trojaned_module])
        iterator = batch.iter_reports()
        design, first = next(iterator)
        assert first.is_secure
        iterator.close()
        assert batch.report is None  # run() never completed

    def test_shared_config_template_fills_design_inputs(self):
        template = DetectionConfig(solver_backend="python")
        batch = BatchSession(["BasicRSA-HT-FREE"], config=template)
        design = batch.designs[0]
        effective = batch.config_for(design)
        assert effective.inputs == list(design.data_inputs)
        assert effective.solver_backend == "python"
        # recommended waivers are appended on top of the template
        assert set(design.recommended_waivers) <= set(effective.waived_signals())

    def test_recommended_waivers_can_be_disabled(self):
        batch = BatchSession(["BasicRSA-HT-FREE"], use_recommended_waivers=False)
        effective = batch.config_for(batch.designs[0])
        assert effective.waivers == []

    def test_template_waivers_are_not_duplicated(self):
        design = Design.from_benchmark("BasicRSA-HT-FREE")
        signal = design.recommended_waivers[0]
        template = DetectionConfig(waivers=[Waiver(signal, "mine")])
        batch = BatchSession([design], config=template)
        effective = batch.config_for(design)
        assert effective.waived_signals().count(signal) == 1

    def test_batch_events_carry_design_names(self, pipeline_module):
        batch = BatchSession([pipeline_module])
        started = []
        batch.subscribe(started.append, RunStarted)
        batch.run()
        assert [event.design for event in started] == ["pipe"]

    def test_cumulative_solver_stats(self, trojaned_module):
        # simplify=False forces the CDCL path (the default preprocessing
        # falsifies the tampered class by simulation, with zero solver calls).
        batch = BatchSession(
            [trojaned_module, trojaned_module],
            config=DetectionConfig(simplify=False),
        )
        report = batch.run()
        stats = report.solver_stats()
        assert stats["solver_calls"] == sum(r.solver_calls for r in report.reports)
        assert stats["solver_calls"] > 0

    def test_batch_report_json_round_trip(self, pipeline_module, trojaned_module):
        batch = BatchSession([pipeline_module, trojaned_module])
        report = batch.run()
        restored = BatchReport.from_json(report.to_json())
        assert restored.to_dict() == report.to_dict()
        assert restored.flagged_designs() == report.flagged_designs()

    def test_batch_report_rejects_unknown_schema(self):
        with pytest.raises(ReproError, match="schema_version"):
            BatchReport.from_dict({"schema_version": 999, "reports": []})

    def test_batch_report_rejects_non_dict(self):
        with pytest.raises(ReproError, match="dict"):
            BatchReport.from_json("[1, 2]")

    def test_summary_lists_every_design(self, pipeline_module, trojaned_module):
        batch = BatchSession([pipeline_module, trojaned_module])
        summary = batch.run().summary()
        assert "2 design(s)" in summary
        assert "secure" in summary and "trojan-suspected" in summary

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_netlist_build_per_design(self, monkeypatch, jobs):
        builds = []
        original = DependencyGraph.__init__

        def counting_init(self, module):
            builds.append(module.name)
            original(self, module)

        monkeypatch.setattr(DependencyGraph, "__init__", counting_init)
        names = ["RS232-HT-FREE", "RS232-T2400", "BasicRSA-T200"]
        report = BatchSession(names, config=DetectionConfig(jobs=jobs)).run()
        assert report.designs_audited == 3
        # Counted in this process only: pool workers build their own graph
        # (lazily, for counterexample diagnosis) in their own copy.
        assert len(builds) == 3


class TestEngineLifetime:
    def test_engine_freed_without_cyclic_collection(self):
        # Dropping a finished session must free its engine by reference
        # counting alone: a reference cycle would keep every audited
        # design's AIG alive until a full collection.
        gc.collect()
        gc.disable()
        try:
            session = DetectionSession(Design.from_source(PIPELINE_SOURCE, top="pipe"))
            session.run()
            assert session.flow._lazy_engine is not None  # the run used it
            engine = weakref.ref(session.flow.engine)
            del session
            assert engine() is None
        finally:
            gc.enable()


class TestEventBase:
    def test_all_events_are_run_events(self, trojaned_module):
        for event in DetectionSession(trojaned_module).iter_results():
            assert isinstance(event, RunEvent)
            assert event.design == "pipe"
