"""Tests for the Algorithm 1 detection flow, coverage check and diagnosis."""

import pytest

from repro.api import DetectionSession
from repro.core import (
    DetectionConfig,
    Verdict,
    Waiver,
    check_signal_coverage,
    diagnose_counterexample,
)
from repro.core.falsealarm import CauseKind
from repro.rtl import DependencyGraph, compute_fanout_classes, elaborate_source


class TestCoverageCheck:
    def test_clean_pipeline_fully_covered(self, pipeline_module):
        analysis = compute_fanout_classes(pipeline_module)
        coverage = check_signal_coverage(pipeline_module, analysis, analysis.placement_depth)
        assert coverage.complete
        assert "all state and output signals are covered" in coverage.summary()

    def test_uncovered_trojan_flagged(self, uncovered_trojan_module):
        analysis = compute_fanout_classes(uncovered_trojan_module)
        coverage = check_signal_coverage(
            uncovered_trojan_module, analysis, analysis.placement_depth
        )
        assert not coverage.complete
        assert {"timer", "beacon"} <= coverage.uncovered
        assert "beacon" in coverage.influence["timer"]
        assert "uncovered" in coverage.summary()


class TestDetectionFlow:
    def test_clean_pipeline_is_secure(self, pipeline_module):
        report = DetectionSession(pipeline_module).run()
        assert report.verdict is Verdict.SECURE
        assert report.is_secure and not report.trojan_detected
        assert report.detected_by is None
        assert report.properties_checked() == 2
        assert report.coverage is not None and report.coverage.complete

    def test_trojaned_pipeline_detected(self, trojaned_module):
        report = DetectionSession(trojaned_module).run()
        assert report.verdict is Verdict.TROJAN_SUSPECTED
        assert report.detected_by == "fanout property 1"
        assert report.counterexample is not None
        assert report.diagnosis is not None
        assert "trig" in {cause.signal for cause in report.diagnosis.causes}

    def test_uncovered_trojan_found_by_coverage_check(self, uncovered_trojan_module):
        report = DetectionSession(uncovered_trojan_module).run()
        assert report.verdict is Verdict.UNCOVERED_SIGNALS
        assert report.detected_by == "coverage check"

    def test_waiving_the_trigger_still_caught_by_coverage_check(self, trojaned_module):
        # Waivers are an explicit engineering decision; waiving the actual
        # trigger suppresses the property failure, but the structural coverage
        # check still reports the input-independent counter (Sec. IV-D case 2).
        config = DetectionConfig(waivers=[Waiver("trig", "accepted risk")])
        report = DetectionSession(trojaned_module, config=config).run()
        assert all(outcome.holds for outcome in report.outcomes)
        assert report.verdict is Verdict.UNCOVERED_SIGNALS
        assert "trig" in report.coverage.uncovered

    def test_check_all_collects_every_failure(self, trojaned_module):
        config = DetectionConfig(stop_at_first_failure=False)
        report = DetectionSession(trojaned_module, config=config).run()
        assert report.properties_checked() == 2
        assert not report.outcomes[1].holds

    def test_max_class_limits_iterations(self, pipeline_module):
        report = DetectionSession(pipeline_module, config=DetectionConfig(max_class=1)).run()
        assert report.properties_checked() == 1

    def test_session_accessors(self, pipeline_module):
        session = DetectionSession(pipeline_module)
        assert session.design.module is pipeline_module
        assert session.design.analysis().depth == 2
        assert session.config.cumulative_assumptions

    def test_report_runtime_and_summary(self, trojaned_module):
        report = DetectionSession(trojaned_module).run()
        assert report.total_runtime_seconds > 0
        assert report.max_property_runtime() >= 0
        summary = report.summary()
        assert "TROJAN-SUSPECTED" in summary and "fanout property 1" in summary
        assert report.failing_outcome() is not None
        assert report.property_runtimes()

    def test_spurious_reorder_cause_is_resolved_automatically(self):
        # A CC1 register that also depends on a *later*-class register: the
        # init property fails at first, but the cause is proven by another
        # property of the run, so the flow re-verifies with the strengthened
        # assumption (Sec. V-B scenario 1) and the design is secure.
        module = elaborate_source(
            "module m(input clk, input [3:0] a, output [3:0] y);"
            " reg [3:0] r1; reg [3:0] r2; reg [3:0] mixer;"
            " always @(posedge clk) begin r1 <= a; r2 <= r1; mixer <= a ^ r2; end"
            " assign y = r2 ^ mixer; endmodule",
            "m",
        )
        report = DetectionSession(module).run()
        assert report.is_secure
        assert report.spurious_resolved >= 1

    def test_strict_paper_mode_on_clean_pipeline(self, pipeline_module):
        config = DetectionConfig(cumulative_assumptions=False)
        report = DetectionSession(pipeline_module, config=config).run()
        assert report.is_secure


class TestDiagnosis:
    def _failing_report(self, module):
        return DetectionSession(module, config=DetectionConfig()).run()

    def test_needs_review_cause_for_trigger_counter(self, trojaned_module):
        report = self._failing_report(trojaned_module)
        diagnosis = report.diagnosis
        assert diagnosis is not None
        causes = {cause.signal: cause for cause in diagnosis.causes}
        assert causes["trig"].kind is CauseKind.NEEDS_REVIEW
        assert not diagnosis.auto_resolvable
        assert diagnosis.proposed_waivers()[0].signal == "trig"
        assert "trig" in diagnosis.summary()

    def test_reorder_cause_classification(self):
        module = elaborate_source(
            "module m(input clk, input [3:0] a, output [3:0] y);"
            " reg [3:0] r1; reg [3:0] r2; reg [3:0] mixer;"
            " always @(posedge clk) begin r1 <= a; r2 <= r1; mixer <= a ^ r2; end"
            " assign y = r2 ^ mixer; endmodule",
            "m",
        )
        analysis = compute_fanout_classes(module)
        graph = DependencyGraph(module)
        from repro.core.properties import build_init_property
        from repro.ipc.engine import IpcEngine

        prop = build_init_property(module, analysis)
        result = IpcEngine(module).check(prop)
        assert not result.holds
        diagnosis = diagnose_counterexample(module, analysis, prop, result.cex, graph)
        causes = {cause.signal: cause for cause in diagnosis.causes}
        assert causes["r2"].kind is CauseKind.REORDER
        assert diagnosis.auto_resolvable
        assert diagnosis.proposed_assumptions() == ["r2"]

    def test_cause_describe_strings(self, trojaned_module):
        report = self._failing_report(trojaned_module)
        for cause in report.diagnosis.causes:
            assert cause.signal in cause.describe()
