"""Experiment E7 — ablation: monolithic trojan property vs. decomposed flow.

Sec. V of the paper motivates decomposing the aggregate trojan property
(Fig. 3) into single-cycle init/fanout properties: the individual proofs stay
small and their runtime is bounded by the structural, not the sequential,
depth of the design.  This ablation quantifies that claim on this
reproduction by proving the same obligations both ways while sweeping the
covered depth.

Run with:  pytest benchmarks/bench_decomposition_ablation.py --benchmark-only -s
"""

from __future__ import annotations

import time

import pytest

from conftest import design_config
from repro.api import Design
from repro.core.properties import build_fanout_property, build_init_property, build_trojan_property
from repro.ipc.engine import IpcEngine
from repro.trusthub import load_design


def _aes_setup():
    """The AES core's module, audit config and fanout analysis."""
    design = Design.from_benchmark("AES-HT-FREE")
    config = design_config(load_design("AES-HT-FREE"))
    return design.module, config, design.analysis(config.inputs)


def _decomposed_runtime(module, config, analysis, max_class):
    """Check the init property and fanout properties up to ``max_class``."""
    started = time.perf_counter()
    engine = IpcEngine(module)
    properties = [build_init_property(module, analysis, config)]
    properties += [
        build_fanout_property(module, analysis, k, config)
        for k in range(1, max_class)
    ]
    for prop in properties:
        result = engine.check(prop)
        assert result.holds
    return time.perf_counter() - started


def _monolithic_runtime(module, config, analysis, max_class):
    """Check the aggregate trojan property truncated at ``max_class``."""
    started = time.perf_counter()
    engine = IpcEngine(module)
    prop = build_trojan_property(module, analysis, config, max_class=max_class)
    result = engine.check(prop)
    assert result.holds
    return time.perf_counter() - started


DEPTHS = (2, 4, 8)


@pytest.mark.benchmark(group="ablation")
@pytest.mark.parametrize("depth", DEPTHS)
def test_decomposed_properties_scale(benchmark, depth):
    setup = _aes_setup()
    runtime = benchmark.pedantic(
        lambda: _decomposed_runtime(*setup, depth), rounds=1, iterations=1
    )
    print(f"\ndecomposed properties, depth {depth}: {runtime:.2f} s")


@pytest.mark.benchmark(group="ablation")
@pytest.mark.parametrize("depth", DEPTHS)
def test_monolithic_trojan_property_scales_worse(benchmark, depth):
    setup = _aes_setup()
    runtime = benchmark.pedantic(
        lambda: _monolithic_runtime(*setup, depth), rounds=1, iterations=1
    )
    print(f"\nmonolithic trojan property, depth {depth}: {runtime:.2f} s")


@pytest.mark.benchmark(group="ablation")
def test_ablation_summary(benchmark):
    """Side-by-side comparison at the deepest swept depth."""
    setup = _aes_setup()

    def run():
        depth = DEPTHS[-1]
        return (
            _decomposed_runtime(*setup, depth),
            _monolithic_runtime(*setup, depth),
        )

    decomposed, monolithic = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nat depth {DEPTHS[-1]}: decomposed {decomposed:.2f} s vs monolithic {monolithic:.2f} s "
          f"({monolithic / max(decomposed, 1e-9):.1f}x)")
    # The monolithic property has to build the unrolled cone of every class,
    # so it cannot be cheaper than the decomposed set by construction; the
    # interesting quantity is the growth factor printed above.
    assert decomposed > 0 and monolithic > 0
