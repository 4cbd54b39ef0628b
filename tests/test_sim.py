"""Tests for the cycle-accurate RTL simulator."""

import pytest

from repro.errors import SimulationError
from repro.rtl import elaborate_source
from repro.sim import Simulator, Trace


class TestBasicStepping:
    def test_pipeline_latency(self, pipeline_module):
        simulator = Simulator(pipeline_module)
        simulator.step({"din": 0x10})      # s1 <- 0x4a
        simulator.step({"din": 0x00})      # s2 <- 0x4b, s1 <- 0x5a
        values = simulator.step({"din": 0x00})
        assert values["dout"] == (0x10 ^ 0x5A) + 1

    def test_state_reflects_next_values(self, pipeline_module):
        simulator = Simulator(pipeline_module)
        simulator.step({"din": 0xFF})
        assert simulator.state()["s1"] == 0xFF ^ 0x5A

    def test_counter_with_enable_and_reset(self, counter_module):
        simulator = Simulator(counter_module)
        simulator.step({"rst": 1, "en": 0})
        for _ in range(5):
            simulator.step({"rst": 0, "en": 1})
        simulator.step({"rst": 0, "en": 0})
        assert simulator.state()["u_cnt.cnt"] == 5

    def test_missing_inputs_default_to_zero(self, counter_module):
        simulator = Simulator(counter_module)
        values = simulator.step()
        assert values["count"] == 0

    def test_peek_after_step(self, pipeline_module):
        simulator = Simulator(pipeline_module)
        simulator.step({"din": 1})
        # peek() reports the settled values of the cycle just simulated.
        assert simulator.peek("s1") == 0
        assert simulator.peek("dout") == 0

    def test_peek_unknown_signal_raises(self, pipeline_module):
        simulator = Simulator(pipeline_module)
        with pytest.raises(SimulationError):
            simulator.peek("nonexistent")

    def test_set_state_rejects_non_register(self, pipeline_module):
        simulator = Simulator(pipeline_module)
        with pytest.raises(SimulationError):
            simulator.set_state({"dout": 1})

    def test_set_state_masks_to_width(self, pipeline_module):
        simulator = Simulator(pipeline_module)
        simulator.set_state({"s1": 0x1FF})
        assert simulator.state()["s1"] == 0xFF

    def test_reset_restores_reset_values(self):
        module = elaborate_source(
            "module m(input clk, input rst, output [3:0] q); reg [3:0] r;"
            " always @(posedge clk or posedge rst) if (rst) r <= 4'h7; else r <= r + 4'h1;"
            " assign q = r; endmodule",
            "m",
        )
        simulator = Simulator(module)
        assert simulator.state()["r"] == 7
        simulator.step({"rst": 0})
        assert simulator.state()["r"] == 8
        simulator.reset()
        assert simulator.state()["r"] == 7

    def test_initial_state_override(self, pipeline_module):
        simulator = Simulator(pipeline_module, initial_state={"s1": 0x42})
        values = simulator.step({"din": 0})
        assert simulator.state()["s2"] == 0x43
        assert values["s1"] == 0x42

    def test_initial_state_rejects_unknown_register(self, pipeline_module):
        with pytest.raises(SimulationError):
            Simulator(pipeline_module, initial_state={"ghost": 1})


class TestTraces:
    def test_run_records_all_signals(self, pipeline_module):
        simulator = Simulator(pipeline_module)
        trace = simulator.run([{"din": 1}, {"din": 2}, {"din": 3}])
        assert len(trace) == 3
        assert trace.series("din") == [1, 2, 3]

    def test_run_with_watch_list(self, pipeline_module):
        simulator = Simulator(pipeline_module)
        trace = simulator.run([{"din": 5}] * 4, watch=["dout", "s1"])
        assert set(trace.snapshots[0]) == {"dout", "s1"}

    def test_run_cycles_constant_inputs(self, counter_module):
        simulator = Simulator(counter_module)
        trace = simulator.run_cycles(4, {"rst": 0, "en": 1})
        assert trace.series("count") == [0, 1, 2, 3]

    def test_trace_helpers(self):
        trace = Trace()
        trace.record({"a": 1, "b": 2})
        trace.record({"a": 3, "b": 4})
        assert trace.value("a", 1) == 3
        assert trace.last("b") == 4
        restricted = trace.restrict(["a"])
        assert restricted.snapshots == [{"a": 1}, {"a": 3}]

    def test_watch_unknown_signal_raises(self, pipeline_module):
        simulator = Simulator(pipeline_module)
        with pytest.raises(SimulationError):
            simulator.run([{"din": 0}], watch=["ghost"])


class TestCombinationalOrdering:
    def test_chained_wires_evaluate_in_topological_order(self):
        module = elaborate_source(
            "module m(input [3:0] a, output [3:0] y);"
            " wire [3:0] w1; wire [3:0] w2;"
            " assign w2 = w1 + 4'h1; assign w1 = a ^ 4'h3; assign y = w2; endmodule",
            "m",
        )
        assert Simulator(module).step({"a": 0})["y"] == 4

    def test_combinational_loop_rejected_at_setup(self):
        module = elaborate_source(
            "module m(input x, output y); wire a; wire b;"
            " assign a = b ^ x; assign b = ~a; assign y = a; endmodule",
            "m",
        )
        with pytest.raises(SimulationError, match="combinational loop"):
            Simulator(module)

    def test_lut_in_simulation(self):
        module = elaborate_source(
            "module m(input [1:0] s, output reg [7:0] q);"
            " always @(*) case (s) 2'd0: q = 8'd10; 2'd1: q = 8'd20; 2'd2: q = 8'd30;"
            " default: q = 8'd40; endcase endmodule",
            "m",
        )
        simulator = Simulator(module)
        assert simulator.step({"s": 2})["q"] == 30
        assert simulator.step({"s": 3})["q"] == 40
