"""Tests for the sequential detection mode (bounded golden-model equivalence).

Covers the unroller core (:mod:`repro.core.unroll`), the mode's integration
with the session API / execution subsystem / result cache, the sequential
benchmarks that the combinational flow provably misses, and the CLI surface.
"""

import json

import pytest

from repro.api import Design, DetectionConfig, DetectionSession
from repro.cli import main as cli_main
from repro.core import SequentialUnroller, sequential_output_classes
from repro.core.events import (
    CexFound,
    ClassProven,
    PropertyScheduled,
    RunFinished,
    RunStarted,
    StructurallyDischarged,
)
from repro.core.report import DetectionReport, Verdict
from repro.errors import ConfigError, DesignError
from repro.exec import normalized_report_dict
from repro.rtl import elaborate_source
from repro.sim import trace_from_counterexample, trace_to_vcd_string
from repro.trusthub import load_design
from repro.trusthub.seq_trojans import SEQ_TROJAN_SPECS

GOLDEN_SOURCE = """
module acc(input clk, input [7:0] din, output [7:0] dout);
  reg [7:0] s1;
  reg [7:0] s2;
  always @(posedge clk) begin
    s1 <= din + 8'h11;
    s2 <= s1 ^ 8'h22;
  end
  assign dout = s2;
endmodule
"""

# Diverges from the golden model once an input-gated counter saturates at 5:
# the solver must *find* the arming sequence (en held high with din at 8'h5a
# for five cycles, which random simulation never hits), so below-threshold
# bounds are genuine UNSAT proofs, not constant folding.
TIMEBOMB_SOURCE = """
module acc(input clk, input en, input [7:0] din, output [7:0] dout);
  reg [7:0] s1;
  reg [7:0] s2;
  reg [2:0] count;
  always @(posedge clk) begin
    s1 <= din + 8'h11;
    s2 <= s1 ^ 8'h22;
    if (en && din == 8'h5a && count != 3'h5)
      count <= count + 3'h1;
  end
  assign dout = (count == 3'h5) ? ~s2 : s2;
endmodule
"""


@pytest.fixture
def golden_module():
    return elaborate_source(GOLDEN_SOURCE, "acc")


@pytest.fixture
def timebomb_module():
    return elaborate_source(TIMEBOMB_SOURCE, "acc")


class TestSequentialUnroller:
    def test_clean_design_discharges_structurally(self, golden_module):
        other = elaborate_source(GOLDEN_SOURCE.replace("module acc", "module gold"), "gold")
        unroller = SequentialUnroller(golden_module, other)
        result = unroller.check_outputs(["dout"], 6)
        assert result.holds
        assert result.structurally_proven
        assert result.solver_calls == 0

    def test_timebomb_caught_at_trigger_depth(self, timebomb_module, golden_module):
        unroller = SequentialUnroller(timebomb_module, golden_module)
        below = unroller.check_output("dout", 4)
        assert below.holds and not below.structurally_proven
        at_depth = unroller.check_output("dout", 5)
        assert not at_depth.holds
        assert at_depth.first_divergence_cycle == 5
        assert at_depth.failing_outputs == ["dout"]

    def test_counterexample_is_a_multi_cycle_trace(self, timebomb_module, golden_module):
        unroller = SequentialUnroller(timebomb_module, golden_module)
        cex = unroller.check_output("dout", 5).cex
        assert cex is not None
        times = sorted({time for (_inst, time, _sig) in cex.values})
        assert times == list(range(6))  # reset state plus five cycles
        # Both instances carry valuations; the design's counter is recorded.
        assert (0, 0, "count") in cex.values
        assert cex.value("dout", time=5, instance=0) != cex.value("dout", time=5, instance=1)

    def test_deeper_bound_reuses_clauses(self, timebomb_module, golden_module):
        # Depth 4 is the first bound whose trigger cone survives constant
        # folding and fraig sweeping (the counter can reach 4), so it
        # encodes real clauses that the depth-5 check must then reuse
        # instead of re-encoding.
        unroller = SequentialUnroller(timebomb_module, golden_module)
        shallow = unroller.check_output("dout", 4)
        deeper = unroller.check_output("dout", 5)
        assert deeper.cnf_reused_clauses >= shallow.cnf_new_clauses > 0

    def test_output_classes_are_design_ordered_and_common(self, timebomb_module, golden_module):
        assert sequential_output_classes(timebomb_module, golden_module) == ["dout"]

    def test_disjoint_outputs_rejected(self, golden_module):
        other = elaborate_source(
            "module g(input clk, input [7:0] din, output [7:0] other);"
            " assign other = din; endmodule",
            "g",
        )
        with pytest.raises(DesignError):
            sequential_output_classes(golden_module, other)

    def test_unknown_reset_register_rejected(self, timebomb_module, golden_module):
        with pytest.raises(ConfigError):
            SequentialUnroller(timebomb_module, golden_module, reset_values={"nope": 1})

    def test_reset_value_rules_match_detection_config(self, timebomb_module, golden_module):
        # Direct unroller construction enforces the same value rules as
        # DetectionConfig.__post_init__ (shared helper): no negatives, no bools.
        with pytest.raises(ConfigError):
            SequentialUnroller(timebomb_module, golden_module, reset_values={"count": -1})
        with pytest.raises(ConfigError):
            SequentialUnroller(timebomb_module, golden_module, reset_values={"count": True})

    def test_oversized_reset_value_rejected_not_truncated(self, timebomb_module, golden_module):
        # 8 does not fit the 3-bit counter; silent truncation to 0 would
        # make the audit start from a different reset state than requested.
        with pytest.raises(ConfigError, match="does not fit"):
            SequentialUnroller(timebomb_module, golden_module, reset_values={"count": 8})
        assert SequentialUnroller(
            timebomb_module, golden_module, reset_values={"count": 7}
        )

    def test_reset_override_moves_the_trigger_closer(self, timebomb_module, golden_module):
        # Starting the bomb's counter at 4 leaves one cycle to the threshold.
        unroller = SequentialUnroller(
            timebomb_module, golden_module, reset_values={"count": 4}
        )
        result = unroller.check_output("dout", 1)
        assert not result.holds
        assert result.first_divergence_cycle == 1


class TestSequentialSessions:
    def _design(self, timebomb_module, golden_module):
        return Design.from_module(timebomb_module, name="bomb", golden=golden_module)

    def test_sequential_mode_needs_a_golden_model(self, timebomb_module):
        design = Design.from_module(timebomb_module)
        config = DetectionConfig(mode="sequential", depth=4)
        with pytest.raises(ConfigError, match="golden"):
            DetectionSession(design, config).run()

    def test_detects_at_depth_and_misses_below(self, timebomb_module, golden_module):
        design = self._design(timebomb_module, golden_module)
        secure = DetectionSession(design, DetectionConfig(mode="sequential", depth=4)).run()
        assert secure.is_secure
        flagged = DetectionSession(design, DetectionConfig(mode="sequential", depth=5)).run()
        assert flagged.verdict is Verdict.TROJAN_SUSPECTED
        outcome = flagged.failing_outcome()
        assert outcome.kind == "sequential"
        assert outcome.depth_reached == 5
        assert outcome.first_divergence_cycle == 5
        assert flagged.detected_by == outcome.label

    def test_sequential_reports_skip_the_coverage_check(self, timebomb_module, golden_module):
        design = self._design(timebomb_module, golden_module)
        report = DetectionSession(design, DetectionConfig(mode="sequential", depth=4)).run()
        assert report.coverage is None
        assert report.fanout_analysis is None

    def test_event_stream_carries_sequential_kinds_and_labels(self, timebomb_module, golden_module):
        design = self._design(timebomb_module, golden_module)
        session = DetectionSession(design, DetectionConfig(mode="sequential", depth=5))
        events = list(session.iter_results())
        assert isinstance(events[0], RunStarted)
        assert events[0].scheduled_classes == 1
        scheduled = [e for e in events if isinstance(e, PropertyScheduled)]
        assert scheduled and all(e.kind == "sequential" for e in scheduled)
        failures = [e for e in events if isinstance(e, CexFound)]
        assert failures and failures[-1].kind == "sequential"
        assert isinstance(events[-1], RunFinished)
        # Labels are kind-aware on the public event surface itself — no
        # per-consumer special-casing, no "init property" for class 0.
        for event in scheduled + failures:
            assert event.label == f"sequential property {event.index}"

    def test_report_round_trip_preserves_sequential_fields(self, timebomb_module, golden_module):
        design = self._design(timebomb_module, golden_module)
        report = DetectionSession(design, DetectionConfig(mode="sequential", depth=5)).run()
        data = json.loads(report.to_json())
        from repro.core.report import SCHEMA_VERSION

        assert data["schema_version"] == SCHEMA_VERSION
        rebuilt = DetectionReport.from_dict(data)
        assert rebuilt.to_dict() == report.to_dict()
        outcome = rebuilt.failing_outcome()
        assert outcome.depth_reached == 5
        assert outcome.first_divergence_cycle == 5
        assert "cycle 5" in rebuilt.summary()

    def test_counterexample_renders_as_vcd_waveform(self, timebomb_module, golden_module):
        design = self._design(timebomb_module, golden_module)
        report = DetectionSession(design, DetectionConfig(mode="sequential", depth=5)).run()
        trace = trace_from_counterexample(report.counterexample, instance=0)
        assert len(trace) == 6
        text = trace_to_vcd_string(trace, timebomb_module.signals)
        assert "$enddefinitions" in text and "dout" in text
        golden_trace = trace_from_counterexample(report.counterexample, instance=1)
        assert len(golden_trace) == 6

    def test_warm_cache_replays_with_zero_solver_calls(self, tmp_path, timebomb_module, golden_module):
        design = self._design(timebomb_module, golden_module)
        # Random simulation misses the arming sequence, so the cold run
        # searches with CDCL and the zero-solver-calls assertion on the warm
        # replay stays meaningful.
        config = DetectionConfig(mode="sequential", depth=5, cache_dir=str(tmp_path))
        cold = DetectionSession(design, config).run()
        assert cold.cache_misses > 0 and cold.solver_calls > 0
        warm = DetectionSession(design, config).run()
        assert warm.cache_hits == cold.cache_misses
        assert warm.cache_misses == 0
        assert warm.solver_calls == 0
        assert normalized_report_dict(warm.to_dict()) == normalized_report_dict(cold.to_dict())

    def test_deeper_bound_misses_the_cache(self, tmp_path, timebomb_module, golden_module):
        design = self._design(timebomb_module, golden_module)
        base = DetectionConfig(mode="sequential", depth=4, cache_dir=str(tmp_path))
        DetectionSession(design, base).run()
        deeper = DetectionConfig(mode="sequential", depth=5, cache_dir=str(tmp_path))
        report = DetectionSession(design, deeper).run()
        assert report.cache_hits == 0

    def test_max_class_never_truncates_the_output_schedule(self, timebomb_module, golden_module):
        # max_class bounds combinational fanout iterations; truncating the
        # sequential output classes with it would turn a trojan on a
        # later-declared output into a vacuous SECURE verdict.
        design = self._design(timebomb_module, golden_module)
        config = DetectionConfig(mode="sequential", depth=5, max_class=0)
        report = DetectionSession(design, config).run()
        assert report.verdict is Verdict.TROJAN_SUSPECTED
        assert report.properties_checked() == 1

    def test_golden_top_without_source_fails_at_construction(self, timebomb_module):
        with pytest.raises(DesignError, match="golden source"):
            Design(timebomb_module, golden_top="gold")

    def test_jobs_1_vs_2_reports_are_normalized_equal(self, timebomb_module, golden_module):
        design = self._design(timebomb_module, golden_module)
        serial = DetectionSession(design, DetectionConfig(mode="sequential", depth=5)).run()
        pooled = DetectionSession(
            design, DetectionConfig(mode="sequential", depth=5, jobs=2)
        ).run()
        assert normalized_report_dict(serial.to_dict()) == normalized_report_dict(pooled.to_dict())


class TestSequentialBenchmarks:
    def test_catalogued_with_golden_tops(self):
        for name in SEQ_TROJAN_SPECS:
            bench = load_design(name)
            assert bench.family == "SEQ"
            assert bench.golden_top
            golden = bench.elaborate_golden()
            module = bench.elaborate()
            assert sequential_output_classes(module, golden)

    def test_uart_timebomb_missed_combinationally_caught_sequentially(self):
        spec = SEQ_TROJAN_SPECS["RS232-SEQ-T3000"]
        design = Design.from_benchmark(spec.name)
        # The combinational flow, with the benchmark's (deliberately wrong)
        # recommended waivers applied, proves the design secure — coverage
        # included: the trigger counter observes rxd, so it is covered.
        combinational = DetectionSession(design).run()
        assert combinational.is_secure
        assert combinational.coverage is not None and combinational.coverage.complete
        # The sequential mode finds the divergence at exactly the trigger
        # depth, with a multi-cycle witness...
        config = design.default_config(mode="sequential", depth=spec.threshold)
        flagged = DetectionSession(design, config).run()
        assert flagged.verdict is Verdict.TROJAN_SUSPECTED
        outcome = flagged.failing_outcome()
        assert outcome.first_divergence_cycle == spec.threshold
        assert ("rx_data", spec.threshold) in [
            (signal, time) for signal, time, _l, _r in flagged.counterexample.failing_signals
        ]
        # ... and a bound one cycle short provably cannot reach the trigger.
        shallow = design.default_config(mode="sequential", depth=spec.threshold - 1)
        assert DetectionSession(design, shallow).run().is_secure

    def test_uart_tx_bomb_caught_at_trigger_depth(self):
        spec = SEQ_TROJAN_SPECS["RS232-SEQ-T3100"]
        design = Design.from_benchmark(spec.name)
        config = design.default_config(mode="sequential", depth=spec.threshold)
        flagged = DetectionSession(design, config).run()
        assert flagged.verdict is Verdict.TROJAN_SUSPECTED
        assert "txd" in flagged.counterexample.signals_with_difference()

    def test_aes_gated_leaker_missed_combinationally_caught_sequentially(self):
        spec = SEQ_TROJAN_SPECS["AES-SEQ-T3000"]
        design = Design.from_benchmark(spec.name)
        combinational = DetectionSession(design).run()
        assert combinational.is_secure
        config = design.default_config(mode="sequential", depth=spec.threshold)
        flagged = DetectionSession(design, config).run()
        assert flagged.verdict is Verdict.TROJAN_SUSPECTED
        outcome = flagged.failing_outcome()
        assert outcome.first_divergence_cycle == spec.threshold
        assert "out" in flagged.counterexample.signals_with_difference()


class TestSequentialCli:
    def test_run_mode_sequential_flags_the_benchmark(self, capsys, tmp_path):
        vcd_path = tmp_path / "bomb.vcd"
        exit_code = cli_main([
            "run", "--benchmark", "RS232-SEQ-T3000",
            "--mode", "sequential", "--depth", "6",
            "--vcd", str(vcd_path), "--json",
        ])
        assert exit_code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "trojan-suspected"
        failing = [o for o in data["outcomes"] if not o["holds"]]
        assert failing and failing[0]["first_divergence_cycle"] == 6
        assert vcd_path.read_text().startswith("$date")

    def test_run_sequential_below_threshold_is_secure(self, capsys):
        exit_code = cli_main([
            "run", "--benchmark", "RS232-SEQ-T3000",
            "--mode", "sequential", "--depth", "5",
        ])
        assert exit_code == 0
        assert "SECURE" in capsys.readouterr().out

    def test_verilog_run_requires_golden_top_for_sequential(self, capsys, tmp_path):
        path = tmp_path / "bomb.v"
        path.write_text(TIMEBOMB_SOURCE + "\n" + GOLDEN_SOURCE.replace("module acc", "module gold"))
        exit_code = cli_main([
            "run", "--verilog", str(path), "--top", "acc",
            "--mode", "sequential", "--depth", "5",
        ])
        assert exit_code == 2
        assert "golden" in capsys.readouterr().err

    def test_verilog_run_with_golden_top(self, capsys, tmp_path):
        path = tmp_path / "bomb.v"
        path.write_text(TIMEBOMB_SOURCE + "\n" + GOLDEN_SOURCE.replace("module acc", "module gold"))
        exit_code = cli_main([
            "run", "--verilog", str(path), "--top", "acc", "--golden-top", "gold",
            "--mode", "sequential", "--depth", "5", "--json",
        ])
        assert exit_code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "trojan-suspected"

    def test_reset_value_flag_reaches_the_unroller(self, capsys, tmp_path):
        path = tmp_path / "bomb.v"
        path.write_text(TIMEBOMB_SOURCE + "\n" + GOLDEN_SOURCE.replace("module acc", "module gold"))
        exit_code = cli_main([
            "run", "--verilog", str(path), "--top", "acc", "--golden-top", "gold",
            "--mode", "sequential", "--depth", "1", "--reset-value", "count=4",
        ])
        assert exit_code == 1
        assert "cycle 1" in capsys.readouterr().out

    def test_golden_path_without_golden_top_rejected(self, tmp_path):
        path = tmp_path / "bomb.v"
        path.write_text(TIMEBOMB_SOURCE)
        with pytest.raises(DesignError, match="golden_top"):
            Design.from_file(str(path), top="acc", golden_path=str(path))
        with pytest.raises(DesignError, match="golden_top"):
            Design.from_source(TIMEBOMB_SOURCE, top="acc", golden_source=GOLDEN_SOURCE)

    def test_vcd_write_failure_keeps_the_report_and_exit_code(self, capsys, tmp_path):
        exit_code = cli_main([
            "run", "--benchmark", "RS232-SEQ-T3000",
            "--mode", "sequential", "--depth", "6", "--json",
            "--vcd", str(tmp_path / "missing-dir" / "x.vcd"),
        ])
        captured = capsys.readouterr()
        assert exit_code == 1  # the audit's verdict, not an I/O error
        assert json.loads(captured.out)["verdict"] == "trojan-suspected"
        assert "cannot write VCD" in captured.err

    def test_golden_top_without_sequential_mode_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bomb.v"
        path.write_text(TIMEBOMB_SOURCE + "\n" + GOLDEN_SOURCE.replace("module acc", "module gold"))
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "run", "--verilog", str(path), "--top", "acc",
                "--golden-top", "gold", "--depth", "5",  # --mode forgotten
            ])
        assert excinfo.value.code == 2
        assert "--mode sequential" in capsys.readouterr().err

    def test_malformed_reset_value_is_a_usage_error(self, capsys):
        exit_code = cli_main([
            "run", "--benchmark", "RS232-SEQ-T3000",
            "--mode", "sequential", "--reset-value", "oops",
        ])
        assert exit_code == 2
        assert "--reset-value" in capsys.readouterr().err
