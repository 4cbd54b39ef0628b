"""Tests for the init / fanout / trojan property constructors."""

import pytest

from repro.core import DetectionConfig, Waiver
from repro.core.properties import (
    build_fanout_property,
    build_init_property,
    build_trojan_property,
)
from repro.errors import PropertyError
from repro.ipc.prop import Term
from repro.rtl import compute_fanout_classes


def assumed_signals(prop, time=0):
    return {
        c.left.signal
        for c in prop.assumptions
        if isinstance(c.right, Term) and c.left.time == time
    }


def proven_signals(prop):
    return {c.left.signal for c in prop.commitments}


class TestInitProperty:
    def test_assumes_inputs_and_proves_cc1(self, pipeline_module):
        analysis = compute_fanout_classes(pipeline_module)
        prop = build_init_property(pipeline_module, analysis)
        assert "din" in assumed_signals(prop, time=0)
        assert proven_signals(prop) == {"s1"}
        assert all(c.left.time == 1 for c in prop.commitments)

    def test_inputs_assumed_at_prove_time_by_default(self, pipeline_module):
        analysis = compute_fanout_classes(pipeline_module)
        prop = build_init_property(pipeline_module, analysis)
        assert "din" in assumed_signals(prop, time=1)

    def test_waivers_become_assumptions(self, trojaned_module):
        analysis = compute_fanout_classes(trojaned_module)
        config = DetectionConfig(waivers=[Waiver("trig", "known benign")])
        prop = build_init_property(trojaned_module, analysis, config)
        assert "trig" in assumed_signals(prop, time=0)

    def test_unknown_waiver_rejected(self, pipeline_module):
        analysis = compute_fanout_classes(pipeline_module)
        config = DetectionConfig(waivers=[Waiver("ghost")])
        with pytest.raises(PropertyError):
            build_init_property(pipeline_module, analysis, config)

    def test_unknown_configured_input_rejected(self, pipeline_module):
        analysis = compute_fanout_classes(pipeline_module)
        with pytest.raises(PropertyError):
            build_init_property(pipeline_module, analysis, DetectionConfig(inputs=["nope"]))

    def test_clock_is_never_assumed(self, pipeline_module):
        analysis = compute_fanout_classes(pipeline_module)
        prop = build_init_property(pipeline_module, analysis)
        assert "clk" not in assumed_signals(prop)


class TestFanoutProperty:
    def test_k_must_be_positive(self, pipeline_module):
        analysis = compute_fanout_classes(pipeline_module)
        with pytest.raises(PropertyError):
            build_fanout_property(pipeline_module, analysis, 0)

    def test_assumes_previous_class_and_proves_next(self, pipeline_module):
        analysis = compute_fanout_classes(pipeline_module)
        prop = build_fanout_property(pipeline_module, analysis, 1)
        assert "s1" in assumed_signals(prop, time=0)
        assert proven_signals(prop) == {"s2", "dout"}

    def test_cumulative_assumptions_include_all_earlier_classes(self):
        from repro.rtl import elaborate_source

        module = elaborate_source(
            "module m(input clk, input [3:0] a, output [3:0] y);"
            " reg [3:0] r1; reg [3:0] r2; reg [3:0] r3;"
            " always @(posedge clk) begin r1 <= a; r2 <= r1; r3 <= r2; end"
            " assign y = r3; endmodule",
            "m",
        )
        analysis = compute_fanout_classes(module)
        cumulative = build_fanout_property(module, analysis, 2)
        assert {"r1", "r2"} <= assumed_signals(cumulative, time=0)
        strict = build_fanout_property(
            module, analysis, 2, DetectionConfig(cumulative_assumptions=False)
        )
        assert "r1" not in assumed_signals(strict, time=0)
        assert "r2" in assumed_signals(strict, time=0)

    def test_property_name_matches_paper_numbering(self, pipeline_module):
        analysis = compute_fanout_classes(pipeline_module)
        prop = build_fanout_property(pipeline_module, analysis, 1)
        assert prop.name == "fanout_property_1"


class TestTrojanProperty:
    def test_aggregate_property_covers_all_classes(self, pipeline_module):
        analysis = compute_fanout_classes(pipeline_module)
        prop = build_trojan_property(pipeline_module, analysis)
        assert proven_signals(prop) == {"s1", "s2", "dout"}
        times = {c.left.time for c in prop.commitments}
        assert times == {1, 2}

    def test_max_class_truncates_window(self, pipeline_module):
        analysis = compute_fanout_classes(pipeline_module)
        prop = build_trojan_property(pipeline_module, analysis, max_class=1)
        assert {c.left.time for c in prop.commitments} == {1}

    def test_design_without_reachable_state_rejected(self):
        from repro.rtl import elaborate_source

        module = elaborate_source(
            "module m(input clk); reg r; always @(posedge clk) r <= r; endmodule", "m"
        )
        analysis = compute_fanout_classes(module)
        with pytest.raises(PropertyError):
            build_trojan_property(module, analysis)
