"""Experiment E3 — per-property proof runtime and memory (Sec. VI).

The paper reports that each individual init/fanout property proof completes
within 1-3 seconds and under 1 GB of memory on the commercial property
checker.  These benchmarks measure the same quantities for this
reproduction's IPC engine: the runtime of a single property proof on the
largest design (the pipelined AES-128 core) and the peak Python heap of a
full detection run.

Run with:  pytest benchmarks/bench_proof_runtime.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from conftest import design_config, run_detection
from repro.api import Design
from repro.core.properties import build_fanout_property, build_init_property
from repro.ipc.engine import IpcEngine
from repro.trusthub import load_design
from repro.utils.timing import PeakMemoryTracker


def _aes_setup():
    """The AES core as a Design, its audit config and fanout analysis."""
    design = Design.from_benchmark("AES-HT-FREE")
    config = design_config(load_design("AES-HT-FREE"))
    return design, config, design.analysis(config.inputs)


@pytest.mark.benchmark(group="proof-runtime")
def test_single_init_property_proof_on_aes(benchmark):
    """Runtime of one init-property proof on the AES core (paper: 1-3 s)."""
    design, config, analysis = _aes_setup()
    prop = build_init_property(design.module, analysis, config)
    engine = IpcEngine(design.module)

    result = benchmark(lambda: engine.check(prop))
    assert result.holds


@pytest.mark.benchmark(group="proof-runtime")
def test_single_deep_fanout_property_proof_on_aes(benchmark):
    """Runtime of the deepest fanout-property proof (ciphertext class) on the AES core."""
    design, config, analysis = _aes_setup()
    deepest = analysis.placement_depth - 1
    prop = build_fanout_property(design.module, analysis, deepest, config)
    engine = IpcEngine(design.module)

    result = benchmark(lambda: engine.check(prop))
    assert result.holds


@pytest.mark.benchmark(group="proof-runtime")
def test_per_property_runtime_distribution(benchmark):
    """Distribution of all per-property runtimes of a full AES verification."""

    def run():
        return run_detection("AES-HT-FREE")[1]

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    runtimes = sorted(report.property_runtimes().values())
    print(f"\nper-property proof runtime over {len(runtimes)} properties:"
          f" min {runtimes[0]:.3f} s, median {runtimes[len(runtimes) // 2]:.3f} s,"
          f" max {runtimes[-1]:.3f} s (paper: 1-3 s per property)")
    assert runtimes[-1] < 10.0


@pytest.mark.benchmark(group="proof-memory")
def test_peak_memory_of_full_detection_run(benchmark):
    """Peak Python heap of a complete AES verification (paper: < 1 GB)."""

    def run():
        with PeakMemoryTracker() as tracker:
            _, report = run_detection("AES-HT-FREE")
        return tracker, report

    tracker, report = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\npeak heap during the full AES run: {tracker.peak_megabytes:.0f} MB (paper: < 1024 MB)")
    assert report.is_secure
    assert tracker.peak_megabytes < 1024
