"""Regression guard for the incremental solving core (persistent CNF/SAT).

Before the incremental refactor, every ``IpcEngine.check()`` call re-ran the
Tseitin conversion of the shared AIG cone and re-learned every clause from a
cold SAT solver.  These benchmarks pin down the reuse the refactor buys on a
real TrustHub-style design: the AES cone is encoded into CNF at most once,
and the second and later property checks feed strictly fewer newly-added
clauses to the persistent solver context than the first.

Run with:  pytest benchmarks/bench_incremental_reuse.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from conftest import design_config
from repro.core import TrojanDetectionFlow
from repro.core.properties import build_init_property
from repro.trusthub import load_design, load_module


AES_TROJAN = "AES-T100"


def _sat_backed_checks(flow, rounds=3):
    """Run ``rounds`` successive SAT-backed init-property checks on one engine."""
    results = []
    for _ in range(rounds):
        prop = build_init_property(flow.module, flow.analysis, flow.config)
        results.append(flow.engine.check(prop))
    return results


@pytest.mark.benchmark(group="incremental-reuse")
def test_second_check_encodes_strictly_less(benchmark):
    """Per-check CNF growth shrinks after the first property (the tentpole)."""
    design = load_design(AES_TROJAN)
    module = load_module(AES_TROJAN)

    def run():
        flow = TrojanDetectionFlow(module, design_config(design))
        return _sat_backed_checks(flow)

    first, second, third = benchmark.pedantic(run, rounds=1, iterations=1)
    # Every check hits SAT (the init property fails on the trojaned design) …
    assert not first.holds and not second.holds and not third.holds
    assert first.solver_calls == second.solver_calls == third.solver_calls == 1
    # … but the shared AES cone is only encoded once: later checks add far
    # fewer clauses (only the rebuilt non-persistent instance and the miter).
    assert second.cnf_new_clauses < first.cnf_new_clauses
    assert third.cnf_new_clauses < first.cnf_new_clauses
    # And what the first check encoded is reused, never re-fed to the solver.
    assert second.cnf_reused_clauses >= first.cnf_new_clauses
    assert third.cnf_reused_clauses >= second.cnf_reused_clauses
    print(
        f"\nper-check new clauses: {first.cnf_new_clauses} -> "
        f"{second.cnf_new_clauses} -> {third.cnf_new_clauses} "
        f"(reused by check 3: {third.cnf_reused_clauses})"
    )


@pytest.mark.benchmark(group="incremental-reuse")
def test_full_multiclass_flow_reports_reuse_stats(benchmark):
    """The multi-class AES flow surfaces solver-context statistics."""
    design = load_design(AES_TROJAN)
    module = load_module(AES_TROJAN)

    def run():
        flow = TrojanDetectionFlow(module, design_config(design))
        return flow.run()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.trojan_detected
    assert report.detected_by == design.expected_detection
    assert report.solver_calls >= 1
    stats = report.solver_stats()
    # The run's persistent context encodes the shared AES cone; the failing
    # class's *outcome* telemetry comes from the canonical witness settle on
    # a fresh context (which random simulation may satisfy without encoding
    # anything), so the per-outcome sum is a lower bound, not an identity.
    assert stats["clauses_encoded"] >= stats["clauses_new"]
    assert stats["clauses_encoded"] >= 1
    print(f"\nflow solver stats: {stats}")


_BMC_TROJAN = """
module acc(input clk, input [7:0] din, output [7:0] dout);
  reg [7:0] stage; reg [3:0] count;
  always @(posedge clk) begin
    stage <= din + 8'h11;
    count <= (din == 8'ha5) ? (count + 4'h1) : count;
  end
  assign dout = (count == 4'h3) ? (stage ^ 8'h22) : stage;
endmodule
"""

_BMC_GOLDEN = """
module acc_gold(input clk, input [7:0] din, output [7:0] dout);
  reg [7:0] stage;
  always @(posedge clk) stage <= din + 8'h11;
  assign dout = stage;
endmodule
"""


@pytest.mark.benchmark(group="incremental-reuse")
def test_bmc_depth_k_plus_1_reuses_depth_k_clauses(benchmark):
    """The BMC baseline reuses the unrolling clauses of earlier bounds."""
    from repro.baselines import BoundedTrojanChecker
    from repro.rtl import elaborate_source

    dut = elaborate_source(_BMC_TROJAN, "acc")
    golden = elaborate_source(_BMC_GOLDEN, "acc_gold")

    def run():
        checker = BoundedTrojanChecker(dut, golden)
        shallow = checker.check(bound=2)
        deeper = checker.check(bound=6)
        fresh = BoundedTrojanChecker(dut, golden).check(bound=6)
        return shallow, deeper, fresh

    shallow, deeper, fresh = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not shallow.trojan_detected
    assert deeper.trojan_detected and fresh.trojan_detected
    # The trigger needs three matching inputs, so no divergence before cycle 3
    # (the exact failing cycle depends on the satisfying assignment found).
    assert deeper.failing_cycle >= 3 and fresh.failing_cycle >= 3
    # Depth 6 reuses everything depth 2 encoded; a cold checker must pay the
    # whole encoding again.
    assert deeper.cnf_reused_clauses >= shallow.cnf_new_clauses > 0
    assert deeper.cnf_new_clauses < fresh.cnf_new_clauses
    assert shallow.cnf_new_clauses + deeper.cnf_new_clauses <= fresh.cnf_new_clauses
    print(
        f"\nBMC clauses: bound 2 adds {shallow.cnf_new_clauses}, bound 6 adds "
        f"{deeper.cnf_new_clauses} (reuses {deeper.cnf_reused_clauses}); "
        f"cold bound-6 checker encodes {fresh.cnf_new_clauses}"
    )
