"""The paper's contribution: golden-free formal hardware-Trojan detection.

The pieces of Algorithm 1, the iterative verification flow, which
:mod:`repro.api` runs through the execution subsystem (:mod:`repro.exec`):

* :mod:`repro.core.properties` — constructors for the *trojan*, *init* and
  *fanout* interval properties of Figs. 3-5,
* :mod:`repro.core.coverage` — the signal coverage check (Sec. IV-D, case 2),
* :mod:`repro.core.falsealarm` — counterexample diagnosis and waiver handling
  (Sec. V-B),
* :mod:`repro.core.report` — verdicts and machine-readable detection reports.
"""

from repro.core.config import DETECTION_MODES, DetectionConfig, Waiver
from repro.core.unroll import (
    SequentialCheckResult,
    SequentialUnroller,
    sequential_output_classes,
)
from repro.core.properties import (
    build_init_property,
    build_fanout_property,
    build_trojan_property,
)
from repro.core.coverage import check_signal_coverage
from repro.core.falsealarm import CexDiagnosis, diagnose_counterexample
from repro.core.replay import ReplayResult, replay_counterexample
from repro.core.report import DetectionReport, PropertyOutcome, Verdict

__all__ = [
    "DETECTION_MODES",
    "DetectionConfig",
    "Waiver",
    "SequentialCheckResult",
    "SequentialUnroller",
    "sequential_output_classes",
    "build_init_property",
    "build_fanout_property",
    "build_trojan_property",
    "check_signal_coverage",
    "CexDiagnosis",
    "diagnose_counterexample",
    "ReplayResult",
    "replay_counterexample",
    "DetectionReport",
    "PropertyOutcome",
    "Verdict",
]
