"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one artefact of the paper's evaluation section
(see DESIGN.md, *Experiment index*).  The helpers below cache elaborated
modules per session so that the pytest-benchmark timings measure the
verification effort, not repeated elaboration.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import DetectionSession  # noqa: E402
from repro.core import DetectionConfig, Waiver  # noqa: E402
from repro.trusthub import load_design, load_module  # noqa: E402


def design_config(design, with_waivers: bool = True) -> DetectionConfig:
    """The configuration a verification engineer would use for this benchmark."""
    waivers = []
    if with_waivers:
        waivers = [Waiver(signal, "legitimate control state") for signal in design.recommended_waivers]
    return DetectionConfig(inputs=list(design.data_inputs), waivers=waivers)


def run_detection(name: str, with_waivers: bool = True):
    """Run the full Algorithm-1 flow on one catalogued benchmark."""
    design = load_design(name)
    module = load_module(name)
    config = design_config(design, with_waivers)
    return design, DetectionSession(module, config=config).run()


@pytest.fixture(scope="session")
def table1_results():
    """Cache of detection reports shared by the Table I benchmarks."""
    return {}
