"""Shared fixtures: small designs used across many test modules."""

from __future__ import annotations

import pytest

from repro.aig.aig import AIG
from repro.rtl import elaborate_source


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

TROJANED_PIPELINE_SOURCE = """
module pipe(
  input clk,
  input  [7:0] din,
  output [7:0] dout
);
  reg [7:0] s1;
  reg [7:0] s2;
  reg [3:0] trig;
  always @(posedge clk) begin
    s1 <= din ^ 8'h5a;
    s2 <= s1 + 8'h01;
    trig <= trig + 4'h1;
  end
  assign dout = (trig == 4'hf) ? (s2 ^ 8'hff) : s2;
endmodule
"""

# The same bit-flip payload behind one value of a 32-bit counter: random
# simulation never hits the trigger and fraig cannot sweep the miter away,
# so the tampered class is settled by a real CDCL search.
SAT_TROJAN_SOURCE = """
module pipe(
  input clk,
  input  [7:0] din,
  output [7:0] dout
);
  reg [7:0] s1;
  reg [31:0] trig;
  always @(posedge clk) begin
    s1 <= din ^ 8'h5a;
    trig <= trig + 32'h1;
  end
  assign dout = (trig == 32'hdeadbeef) ? (s1 ^ 8'hff) : s1;
endmodule
"""

UNCOVERED_TROJAN_SOURCE = """
module pipe(
  input clk,
  input  [7:0] din,
  output [7:0] dout
);
  reg [7:0] s1;
  reg [7:0] s2;
  reg [3:0] timer;
  reg [7:0] beacon;
  always @(posedge clk) begin
    s1 <= din ^ 8'h5a;
    s2 <= s1 + 8'h01;
    timer <= timer + 4'h1;
    if (timer == 4'hf)
      beacon <= ~beacon;
  end
  assign dout = s2;
endmodule
"""

COUNTER_SOURCE = """
module counter #(parameter W = 8) (
  input clk,
  input rst,
  input en,
  output [W-1:0] count,
  output wrapped
);
  reg [W-1:0] cnt;
  always @(posedge clk) begin
    if (rst)
      cnt <= 0;
    else if (en)
      cnt <= cnt + 1;
  end
  assign count = cnt;
  assign wrapped = (cnt == {W{1'b1}});
endmodule
"""


@pytest.fixture
def pipeline_module():
    """A clean two-stage feed-forward pipeline (non-interfering)."""
    return elaborate_source(PIPELINE_SOURCE, "pipe")


@pytest.fixture
def trojaned_module():
    """The same pipeline with a counter-triggered output bit-flip Trojan."""
    return elaborate_source(TROJANED_PIPELINE_SOURCE, "pipe")


@pytest.fixture
def sat_trojan_module():
    """A pipeline whose Trojan only the CDCL solver finds (see SAT_TROJAN_SOURCE)."""
    return elaborate_source(SAT_TROJAN_SOURCE, "pipe")


@pytest.fixture
def uncovered_trojan_module():
    """A pipeline whose Trojan trigger and payload avoid the input fanout cone."""
    return elaborate_source(UNCOVERED_TROJAN_SOURCE, "pipe")


@pytest.fixture
def counter_module():
    """A parameterised enable/reset counter with 16-bit instantiation."""
    top = """
module top(input clk, input rst, input en, output [15:0] count, output wrapped);
  counter #(.W(16)) u_cnt (.clk(clk), .rst(rst), .en(en), .count(count), .wrapped(wrapped));
endmodule
"""
    return elaborate_source(COUNTER_SOURCE + top, "top")


@pytest.fixture
def aig_work(monkeypatch):
    """Counts, for one test, AIGs built, ``AIG.and_`` calls and the nodes they and ``add_input`` create."""
    counts = {"aigs": 0, "and_calls": 0, "and_nodes": 0, "inputs": 0}
    original_init = AIG.__init__
    original_and = AIG.and_
    original_input = AIG.add_input

    def counting_init(self):
        counts["aigs"] += 1
        original_init(self)

    def counting_and(self, a, b):
        before = self.num_nodes
        literal = original_and(self, a, b)
        counts["and_calls"] += 1
        counts["and_nodes"] += self.num_nodes - before
        return literal

    def counting_input(self, name=None):
        counts["inputs"] += 1
        return original_input(self, name)

    monkeypatch.setattr(AIG, "__init__", counting_init)
    monkeypatch.setattr(AIG, "and_", counting_and)
    monkeypatch.setattr(AIG, "add_input", counting_input)
    return counts
