"""Supplementary experiment — scalability with pipeline depth (Sec. V claim).

The paper argues that the number of iterations of the detection flow — and
therefore its total effort — is bounded by the *structural* depth of the
design, not by the sequential depth of any Trojan trigger.  This benchmark
sweeps a synthetic non-interfering accelerator pipeline over increasing depth
and width and records the verification runtime, demonstrating the (roughly
linear) growth in structural depth and the complete independence from the
trigger length of an embedded Trojan.

Run with:  pytest benchmarks/bench_scalability.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.api import DetectionSession
from repro.core import DetectionConfig
from repro.rtl import elaborate_source


def synthetic_pipeline(depth: int, width: int = 16, trojan_counter_bits: int = 0) -> str:
    """A ``depth``-stage feed-forward accelerator, optionally Trojan-infested.

    Each stage mixes the previous stage with a stage-specific constant; the
    optional Trojan flips the output once a free-running counter of
    ``trojan_counter_bits`` bits overflows (its trigger length is therefore
    ``2 ** trojan_counter_bits`` cycles — irrelevant to the formal flow).
    """
    lines = [
        "module synth(",
        "  input clk,",
        f"  input  [{width - 1}:0] din,",
        f"  output [{width - 1}:0] dout",
        ");",
    ]
    for stage in range(1, depth + 1):
        lines.append(f"  reg [{width - 1}:0] s{stage};")
    lines.append("  always @(posedge clk) begin")
    lines.append(f"    s1 <= din ^ {width}'d{0x1234 & ((1 << width) - 1)};")
    for stage in range(2, depth + 1):
        constant = (0x9E37 * stage) & ((1 << width) - 1)
        lines.append(f"    s{stage} <= s{stage - 1} + {width}'d{constant};")
    if trojan_counter_bits:
        lines.append(f"    tj_count <= tj_count + {trojan_counter_bits}'d1;")
    lines.append("  end")
    if trojan_counter_bits:
        lines.insert(5, f"  reg [{trojan_counter_bits - 1}:0] tj_count;")
        lines.append(
            f"  assign dout = (tj_count == {{{trojan_counter_bits}{{1'b1}}}}) ? ~s{depth} : s{depth};"
        )
    else:
        lines.append(f"  assign dout = s{depth};")
    lines.append("endmodule")
    return "\n".join(lines)


DEPTHS = (8, 16, 32, 64)


@pytest.mark.benchmark(group="scalability-depth")
@pytest.mark.parametrize("depth", DEPTHS)
def test_runtime_scales_with_structural_depth(benchmark, depth):
    module = elaborate_source(synthetic_pipeline(depth), "synth")
    report = benchmark.pedantic(lambda: DetectionSession(module).run(), rounds=1, iterations=1)
    assert report.is_secure
    assert report.properties_checked() == depth
    print(f"\ndepth {depth}: {report.properties_checked()} properties, "
          f"total {report.total_runtime_seconds:.2f} s")


@pytest.mark.benchmark(group="scalability-trigger")
@pytest.mark.parametrize("trigger_bits", (8, 16, 32, 48))
def test_runtime_independent_of_trigger_length(benchmark, trigger_bits):
    """Detection effort must not depend on how long the Trojan's trigger takes."""
    module = elaborate_source(synthetic_pipeline(12, trojan_counter_bits=trigger_bits), "synth")
    report = benchmark.pedantic(
        lambda: DetectionSession(module, config=DetectionConfig()).run(), rounds=1, iterations=1
    )
    assert report.trojan_detected
    print(f"\ntrigger length 2^{trigger_bits} cycles: detected by {report.detected_by}, "
          f"total {report.total_runtime_seconds:.2f} s")
