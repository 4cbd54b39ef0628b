"""Tests for VCD export and counterexample replay."""

import io

import pytest

from repro.api import DetectionSession
from repro.core import DetectionConfig, replay_counterexample
from repro.sim import Simulator, Trace, trace_to_vcd_string, write_vcd
from repro.trusthub import load_design, load_module


class TestVcdWriter:
    def _trace(self, pipeline_module):
        simulator = Simulator(pipeline_module)
        return simulator.run([{"din": value} for value in (1, 2, 3, 2)])

    def test_header_and_variables(self, pipeline_module):
        text = trace_to_vcd_string(self._trace(pipeline_module), pipeline_module.signals)
        assert "$timescale" in text
        assert "$var wire 8" in text and "dout" in text
        assert "$enddefinitions" in text

    def test_value_changes_only_on_change(self, pipeline_module):
        trace = Trace()
        trace.record({"dout": 5})
        trace.record({"dout": 5})
        trace.record({"dout": 6})
        text = trace_to_vcd_string(trace, {"dout": 8})
        assert text.count("b00000101 ") == 1
        assert text.count("b00000110 ") == 1

    def test_single_bit_format(self):
        trace = Trace()
        trace.record({"flag": 1})
        trace.record({"flag": 0})
        text = trace_to_vcd_string(trace, {"flag": 1})
        lines = [line for line in text.splitlines() if line and line[0] in "01"]
        assert lines[0].startswith("1") and lines[1].startswith("0")

    def test_signal_subset(self, pipeline_module):
        text = trace_to_vcd_string(
            self._trace(pipeline_module), pipeline_module.signals, signals=["dout"]
        )
        assert "dout" in text and "s1" not in text.split("$enddefinitions")[0].replace("dout", "")

    def test_hierarchical_names_are_sanitised(self, counter_module):
        simulator = Simulator(counter_module)
        trace = simulator.run([{"rst": 0, "en": 1}] * 3)
        text = trace_to_vcd_string(trace, counter_module.signals, signals=["u_cnt.cnt"])
        assert "u_cnt_cnt" in text

    def test_values_masked_to_declared_width(self):
        # A value wider than the $var declaration (or negative) must be
        # truncated to the declared width — `b101` on a 2-bit signal is a
        # malformed VCD that waveform viewers reject.
        trace = Trace()
        trace.record({"narrow": 5, "flag": 2, "signed": -1})
        text = trace_to_vcd_string(trace, {"narrow": 2, "flag": 1, "signed": 4})
        lines = text.splitlines()
        assert any(line.startswith("b01 ") for line in lines)       # 5 & 0b11
        assert not any(line.startswith("b101") for line in lines)
        assert any(line.startswith("b1111 ") for line in lines)     # -1 & 0xf
        assert any(line[0] == "0" and not line.startswith("0 ") for line in lines)  # 2 & 1

    def test_ieee1364_round_trip(self):
        # Parse the dump back with a minimal IEEE 1364 reader: every change
        # line must be `b<bits> <id>` (vector) or `<bit><id>` (scalar), with
        # exactly as many bits as the $var declared, and the reconstructed
        # final values must match the recorded trace.
        trace = Trace()
        trace.record({"bus": 0x1F5, "bit": 1})
        trace.record({"bus": 2, "bit": 0})
        widths = {"bus": 10, "bit": 1}
        text = trace_to_vcd_string(trace, widths)
        width_by_id, name_by_id = {}, {}
        values = {}
        for line in text.splitlines():
            if line.startswith("$var"):
                _var, _wire, width, identifier, name = line.split()[:5]
                width_by_id[identifier] = int(width)
                name_by_id[identifier] = name
            elif line.startswith("b"):
                bits, identifier = line.split()
                assert len(bits) - 1 == width_by_id[identifier], line
                values[name_by_id[identifier]] = int(bits[1:], 2)
            elif line and line[0] in "01" and not line.startswith("#"):
                identifier = line[1:]
                assert width_by_id[identifier] == 1, line
                values[name_by_id[identifier]] = int(line[0])
        assert values == {"bus": 2, "bit": 0}

    def test_empty_trace_rejected(self, pipeline_module):
        with pytest.raises(ValueError):
            write_vcd(Trace(), pipeline_module.signals, io.StringIO())

    def test_write_to_file(self, tmp_path, pipeline_module):
        path = tmp_path / "wave.vcd"
        with open(path, "w", encoding="utf-8") as handle:
            write_vcd(self._trace(pipeline_module), pipeline_module.signals, handle)
        assert path.read_text().startswith("$date")


class TestCounterexampleReplay:
    def test_replay_confirms_toy_trojan(self, trojaned_module):
        report = DetectionSession(trojaned_module, config=DetectionConfig()).run()
        assert report.counterexample is not None
        outcome = report.failing_outcome()
        replay = replay_counterexample(trojaned_module, outcome.result.prop, report.counterexample)
        assert replay.confirmed
        signals = [entry[0] for entry in replay.divergent_signals]
        assert "dout" in signals
        assert "confirmed" in replay.summary()
        assert len(replay.traces[0]) == len(replay.traces[1])

    def test_replay_traces_can_be_dumped_as_vcd(self, trojaned_module):
        report = DetectionSession(trojaned_module, config=DetectionConfig()).run()
        outcome = report.failing_outcome()
        replay = replay_counterexample(trojaned_module, outcome.result.prop, report.counterexample)
        text = trace_to_vcd_string(replay.traces[0], trojaned_module.signals)
        assert "$enddefinitions" in text

    def test_replay_confirms_aes_t1400(self):
        design = load_design("AES-T1400")
        module = load_module("AES-T1400")
        report = DetectionSession(
            module, config=DetectionConfig(inputs=list(design.data_inputs))
        ).run()
        outcome = report.failing_outcome()
        replay = replay_counterexample(module, outcome.result.prop, report.counterexample)
        assert replay.confirmed
        assert any(signal.startswith("tj_") for signal, *_ in replay.divergent_signals)
