"""Tests for the structural netlist views and the fanouts_CCk partitioning."""

import pytest

from repro.errors import ElaborationError
from repro.rtl import DependencyGraph, compute_fanout_classes, elaborate_source, exprs, get_fanout


class TestDependencyGraph:
    def test_leaf_support_of_output(self, pipeline_module):
        graph = DependencyGraph(pipeline_module)
        assert graph.leaf_support("dout") == {"s2"}

    def test_leaf_support_of_leaf_is_itself(self, pipeline_module):
        graph = DependencyGraph(pipeline_module)
        assert graph.leaf_support("s1") == {"s1"}
        assert graph.leaf_support("din") == {"din"}

    def test_next_state_leaf_support(self, pipeline_module):
        graph = DependencyGraph(pipeline_module)
        assert graph.next_state_leaf_support("s1") == {"din"}
        assert graph.next_state_leaf_support("s2") == {"s1"}

    def test_next_state_support_through_comb_wire(self):
        module = elaborate_source(
            "module m(input clk, input [3:0] a, input [3:0] b, output [3:0] q);"
            " wire [3:0] sum; assign sum = a + b; reg [3:0] r;"
            " always @(posedge clk) r <= sum; assign q = r; endmodule",
            "m",
        )
        graph = DependencyGraph(module)
        assert graph.next_state_leaf_support("r") == {"a", "b"}

    def test_signals_depending_on(self, trojaned_module):
        graph = DependencyGraph(trojaned_module)
        assert graph.signals_depending_on({"din"}) == {"s1"}
        assert graph.signals_depending_on({"trig"}) == {"trig", "dout"}

    def test_cycle_graph_nodes(self, pipeline_module):
        graph = DependencyGraph(pipeline_module).cycle_graph()
        assert set(graph) == {"din", "s1", "s2", "dout"}
        assert graph["din"] == {"s1"}
        assert graph["s1"] == {"s2"}

    def test_get_fanout_wrapper_accepts_module(self, pipeline_module):
        assert get_fanout(pipeline_module, ["din"]) == {"s1"}


class TestCombinationalLoops:
    """The loop check of DependencyGraph names a real cycle of driver edges."""

    @pytest.mark.parametrize(
        "body, members",
        [
            (
                "wire a; wire b; assign a = ~b; assign b = ~a; assign y = a;",
                {"a", "b"},
            ),
            (
                "wire [3:0] w; assign w = {w[2:0], x}; assign y = w[3];",
                {"w"},
            ),
            (
                "wire [3:0] p; wire [3:0] q; assign p = {q[1:0], x, x};"
                " assign q = {x, p[3:1]}; assign y = q[0];",
                {"p", "q"},
            ),
        ],
        ids=["two-wires", "slice", "concat"],
    )
    def test_loop_is_reported_along_driver_edges(self, body, members):
        module = elaborate_source(f"module m(input x, output y); {body} endmodule", "m")
        with pytest.raises(ElaborationError, match="combinational loop detected") as error:
            DependencyGraph(module)
        names = str(error.value).split("through signals: ", 1)[1].split(" -> ")
        assert set(names) == members
        # Each reported signal feeds the next, and the last feeds the first.
        for position, name in enumerate(names):
            successor = names[(position + 1) % len(names)]
            assert name in exprs.support(module.comb[successor])

    def test_acyclic_chain_is_accepted(self):
        module = elaborate_source(
            "module m(input x, output y); wire a; wire b;"
            " assign a = ~x; assign b = a; assign y = b; endmodule",
            "m",
        )
        assert DependencyGraph(module).leaf_support("y") == {"x"}


class TestFanoutClasses:
    def test_pipeline_classes(self, pipeline_module):
        analysis = compute_fanout_classes(pipeline_module)
        assert analysis.classes[1] == {"s1"}
        assert analysis.classes[2] == {"s2", "dout"}
        assert analysis.depth == 2
        assert not analysis.uncovered

    def test_distance_map(self, pipeline_module):
        analysis = compute_fanout_classes(pipeline_module)
        assert analysis.distance == {"s1": 1, "s2": 2, "dout": 2}

    def test_signals_up_to(self, pipeline_module):
        analysis = compute_fanout_classes(pipeline_module)
        assert analysis.signals_up_to(1) == {"s1"}
        assert analysis.signals_up_to(2) == {"s1", "s2", "dout"}

    def test_trojan_counter_is_covered_but_self_looping(self, trojaned_module):
        analysis = compute_fanout_classes(trojaned_module)
        # trig never depends on an input -> uncovered
        assert "trig" in analysis.uncovered

    def test_uncovered_payload_detected(self, uncovered_trojan_module):
        analysis = compute_fanout_classes(uncovered_trojan_module)
        assert {"timer", "beacon"} <= analysis.uncovered

    def test_output_placement_uses_latest_register(self):
        module = elaborate_source(
            "module m(input clk, input [3:0] a, output [3:0] y);"
            " reg [3:0] r1; reg [3:0] r2;"
            " always @(posedge clk) begin r1 <= a; r2 <= r1; end"
            " assign y = r1 ^ r2; endmodule",
            "m",
        )
        analysis = compute_fanout_classes(module)
        assert analysis.distance["y"] == 1
        assert analysis.placement["y"] == 2

    def test_output_with_direct_input_path_is_class_one(self):
        module = elaborate_source(
            "module m(input clk, input [3:0] a, output [3:0] y); assign y = ~a; endmodule", "m"
        )
        analysis = compute_fanout_classes(module)
        assert analysis.placement["y"] == 1

    def test_explicit_input_selection(self, counter_module):
        analysis = compute_fanout_classes(counter_module, inputs=["en"])
        assert "u_cnt.cnt" in analysis.distance

    def test_proved_in_class(self, pipeline_module):
        analysis = compute_fanout_classes(pipeline_module)
        assert analysis.proved_in_class(2) == {"s2", "dout"}

    def test_placement_depth_at_least_depth(self, pipeline_module):
        analysis = compute_fanout_classes(pipeline_module)
        assert analysis.placement_depth >= analysis.depth
