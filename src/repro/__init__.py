"""repro — golden-free formal hardware-Trojan detection for non-interfering accelerators.

This library reproduces the method of *"A Golden-Free Formal Method for
Trojan Detection in Non-Interfering Accelerators"* (DATE 2024): a 2-safety
interval-property-checking flow that exhaustively detects sequential hardware
Trojans at RTL without a golden model or functional specification.

Typical usage (the session API of :mod:`repro.api`)::

    from repro import Design, DetectionSession

    design = Design.from_source(verilog_text, top="my_accelerator")
    report = DetectionSession(design).run()
    print(report.summary())

The package also ships everything the reproduction needs: a Verilog-subset
frontend, an RTL IR with structural fanout analysis, an AIG + CDCL SAT
engine, an IPC property checker, regenerated Trust-Hub-style benchmarks
(:mod:`repro.trusthub`) and the baseline techniques used for comparison
(:mod:`repro.baselines`).
"""

from repro._version import __version__
from repro.core import (
    DetectionConfig,
    DetectionReport,
    Verdict,
    Waiver,
)
from repro.errors import ReproError
from repro.rtl import Module, elaborate, elaborate_source
from repro.api import BatchReport, BatchSession, Design, DetectionSession

__all__ = [
    "__version__",
    "ReproError",
    "Module",
    "elaborate",
    "elaborate_source",
    "Design",
    "DetectionSession",
    "BatchSession",
    "BatchReport",
    "DetectionConfig",
    "DetectionReport",
    "Verdict",
    "Waiver",
]
