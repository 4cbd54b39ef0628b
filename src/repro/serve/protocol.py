"""Wire protocol of the audit service: submissions, jobs, fingerprints.

One *submission* is the JSON body a client POSTs to ``/v1/audits``: a design
(a catalogued benchmark name, or inline Verilog source plus a top module), an
optional :class:`repro.core.config.DetectionConfig` overlay, and admission
metadata (priority, client token).  The daemon validates and elaborates the
submission eagerly — a bad design or config is a ``400`` at the door, never a
mid-queue failure — and reduces it to a *job*: the durable unit the
persistent queue journals through its life cycle::

    queued -> running -> done
                      -> failed

Identical submissions deduplicate before they are enqueued: the job
fingerprint reuses the execution subsystem's content-addressed keys
(:func:`repro.exec.fingerprint.module_fingerprint` over the elaborated
netlist — the pair fingerprint when a golden model is involved — plus
:func:`repro.exec.fingerprint.config_fingerprint` over the semantic config),
so a resubmitted design attaches to the in-flight or completed job instead
of re-solving, exactly like the per-class result cache replays settled
classes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.api.design import Design
from repro.core.config import DetectionConfig, Waiver
from repro.errors import ReproError
from repro.exec.fingerprint import (
    config_fingerprint,
    module_fingerprint,
    pair_module_fingerprint,
)
from repro.rtl.ir import Module

#: Version of the HTTP/JSON wire protocol; served by ``/v1/health`` and
#: stamped on every submission response so clients can detect skew.
SERVE_PROTOCOL_VERSION = 1

#: Version of the journaled job-record layout on disk (see
#: :mod:`repro.serve.queue`).  Records of a different version are ignored at
#: startup instead of being misread.
QUEUE_SCHEMA_VERSION = 1

#: The complete job life cycle.  ``queued`` and ``running`` are the
#: *incomplete* states a restarted daemon replays from the journal.
JOB_STATES = ("queued", "running", "done", "failed")


class ProtocolError(ReproError):
    """A malformed or unacceptable service request (HTTP 400)."""


class QuotaExceededError(ReproError):
    """A client exceeded its admission quota (HTTP 429)."""


@dataclass(frozen=True)
class Submission:
    """One parsed audit request (the POST body of ``/v1/audits``)."""

    benchmark: Optional[str] = None
    verilog: Optional[str] = None
    top: Optional[str] = None
    golden_top: Optional[str] = None
    golden_verilog: Optional[str] = None
    config: Dict[str, Any] = field(default_factory=dict)
    use_recommended_waivers: bool = True
    priority: int = 0
    token: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "verilog": self.verilog,
            "top": self.top,
            "golden_top": self.golden_top,
            "golden_verilog": self.golden_verilog,
            "config": dict(self.config),
            "use_recommended_waivers": self.use_recommended_waivers,
            "priority": self.priority,
            "token": self.token,
        }


def submission_from_dict(data: Dict[str, Any]) -> Submission:
    """Parse and validate a submission body.

    Everything that can be rejected without elaborating the design is
    rejected here; design/config errors surface when the daemon builds the
    :class:`Design` and effective config (still at submit time).
    """
    if not isinstance(data, dict):
        raise ProtocolError(f"submission must be a JSON object, got {type(data).__name__}")
    known = {
        "benchmark", "verilog", "top", "golden_top", "golden_verilog",
        "config", "use_recommended_waivers", "priority", "token",
    }
    unknown = sorted(set(data) - known)
    if unknown:
        raise ProtocolError(
            f"unknown submission field(s) {', '.join(unknown)}; "
            f"known fields: {', '.join(sorted(known))}"
        )
    benchmark = data.get("benchmark")
    verilog = data.get("verilog")
    top = data.get("top")
    if bool(benchmark) == bool(verilog):
        raise ProtocolError(
            "a submission names exactly one design source: either "
            "'benchmark' or 'verilog' (+ 'top')"
        )
    if verilog and not top:
        raise ProtocolError("'verilog' submissions need 'top' to name the top module")
    if benchmark and (data.get("golden_top") or data.get("golden_verilog")):
        raise ProtocolError(
            "'golden_top'/'golden_verilog' apply to 'verilog' submissions only; "
            "benchmarks use their catalogued golden model"
        )
    if data.get("golden_verilog") and not data.get("golden_top"):
        raise ProtocolError("'golden_verilog' needs 'golden_top' to name the golden module")
    config = data.get("config")
    if config is None:
        config = {}
    if not isinstance(config, dict):
        raise ProtocolError(f"'config' must be a JSON object, got {type(config).__name__}")
    priority = data.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ProtocolError(f"'priority' must be an integer, got {priority!r}")
    token = data.get("token", "")
    if not isinstance(token, str):
        raise ProtocolError(f"'token' must be a string, got {token!r}")
    use_recommended = data.get("use_recommended_waivers", True)
    if not isinstance(use_recommended, bool):
        raise ProtocolError(
            f"'use_recommended_waivers' must be a boolean, got {use_recommended!r}"
        )
    return Submission(
        benchmark=benchmark,
        verilog=verilog,
        top=top,
        golden_top=data.get("golden_top"),
        golden_verilog=data.get("golden_verilog"),
        config=config,
        use_recommended_waivers=use_recommended,
        priority=priority,
        token=token,
    )


def build_design(submission: Submission) -> Design:
    """Elaborate the submission's design (raises :class:`ReproError` subtypes)."""
    if submission.benchmark:
        return Design.from_benchmark(submission.benchmark)
    return Design.from_source(
        submission.verilog,
        top=submission.top,
        golden_top=submission.golden_top,
        golden_source=submission.golden_verilog,
    )


def effective_config(
    design: Design,
    submission: Submission,
    cache_dir: Optional[str],
    use_cache: bool,
) -> DetectionConfig:
    """The configuration the daemon actually audits ``design`` with.

    The submitted config overlay keeps every *semantic* field; the daemon
    then fills the design's own defaults the same way the CLI and
    :meth:`repro.api.BatchSession.config_for` do (traced inputs when unset,
    recommended waivers unless opted out) so a served audit and a local
    ``repro run`` of the same design produce byte-identical normalized
    reports.  Execution knobs are the daemon's to decide: audits always run
    serially inside one worker thread (the pool provides the parallelism —
    forking from a multi-threaded daemon is not safe), against the daemon's
    shared result cache.
    """
    config = DetectionConfig.from_dict(submission.config)
    if config.inputs is None and design.data_inputs:
        config = replace(config, inputs=list(design.data_inputs))
    if submission.use_recommended_waivers and design.recommended_waivers:
        waived = set(config.waived_signals())
        extra = [
            Waiver(signal=signal, reason=f"recommended for {design.name}")
            for signal in design.recommended_waivers
            if signal not in waived
        ]
        if extra:
            config = replace(config, waivers=list(config.waivers) + extra)
    if config.mode == "sequential" and design.golden_module() is None:
        raise ProtocolError(
            f"design {design.name!r} has no golden model for the sequential "
            f"mode; submit 'golden_top' (and optionally 'golden_verilog') or "
            f"pick a benchmark with a catalogued golden design"
        )
    # trace is forced off like the other execution knobs: span collection
    # is a local-CLI affair, and a served audit must stay byte-identical
    # (normalized *and* raw timing layout) to an untraced local run.
    return replace(
        config,
        jobs=1,
        cache_dir=cache_dir,
        use_cache=use_cache,
        trace=False,
    )


def submission_fingerprint(
    design: Design, config: DetectionConfig, golden: Optional[Module] = None
) -> str:
    """Content fingerprint identifying one audit job for deduplication.

    Two submissions collide exactly when they would produce the same
    report: same canonical netlist (pair, in sequential mode), same
    semantic config, and the same schedule.  The class-cache fingerprint
    rightly omits ``max_class`` and ``stop_at_first_failure`` (a class
    settles the same either way), but both decide which classes a report
    contains, so a truncated audit must never stand in for a full one.
    """
    module_fp = module_fingerprint(design.module)
    if golden is not None:
        module_fp = pair_module_fingerprint(module_fp, module_fingerprint(golden))
    config_fp = config_fingerprint(config)
    digest = hashlib.sha256()
    digest.update(b"repro-serve-job/v1\n")
    digest.update(module_fp.encode("ascii"))
    digest.update(b"\n")
    digest.update(config_fp.encode("ascii"))
    digest.update(
        f"\nmax-class/{config.max_class}"
        f"\nstop-at-first-failure/{config.stop_at_first_failure}".encode("ascii")
    )
    return digest.hexdigest()


@dataclass
class Job:
    """One accepted audit: the durable unit the persistent queue journals."""

    id: str
    fingerprint: str
    state: str
    submission: Dict[str, Any]
    design_name: str
    mode: str
    priority: int = 0
    token: str = ""
    created_s: float = 0.0
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    error: Optional[str] = None
    #: How many client submissions attached to this job (1 + dedup hits).
    submissions: int = 1
    #: How many times a restarted daemon re-queued this job after the
    #: previous daemon stopped or died mid-audit.
    restarts: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "submission": dict(self.submission),
            "design_name": self.design_name,
            "mode": self.mode,
            "priority": self.priority,
            "token": self.token,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "error": self.error,
            "submissions": self.submissions,
            "restarts": self.restarts,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Job":
        try:
            state = data["state"]
            if state not in JOB_STATES:
                raise ReproError(f"unknown job state {state!r}")
            return cls(
                id=data["id"],
                fingerprint=data["fingerprint"],
                state=state,
                submission=dict(data["submission"]),
                design_name=data["design_name"],
                mode=data.get("mode", "combinational"),
                priority=data.get("priority", 0),
                token=data.get("token", ""),
                created_s=data.get("created_s", 0.0),
                started_s=data.get("started_s"),
                finished_s=data.get("finished_s"),
                error=data.get("error"),
                submissions=data.get("submissions", 1),
                restarts=data.get("restarts", 0),
            )
        except ReproError:
            raise
        except (KeyError, TypeError, ValueError) as error:
            raise ReproError(f"malformed job record: {error}") from error

    #: Public view served by the HTTP API: everything but the (potentially
    #: large) submission body.
    def summary_dict(self) -> Dict[str, Any]:
        data = self.to_dict()
        del data["submission"]
        return data


def prepare_submission(
    body: Dict[str, Any],
    cache_dir: Optional[str],
    use_cache: bool,
) -> Tuple[Submission, Design, DetectionConfig, str]:
    """Parse, elaborate, and fingerprint one submission body.

    The single entry point the daemon (and tests) use to turn a raw POST
    body into everything admission needs: the parsed submission, the
    elaborated design, the effective config, and the dedup fingerprint.
    Raises :class:`ProtocolError` / :class:`ConfigError` /
    :class:`repro.errors.DesignError` — all mapped to HTTP 400.
    """
    submission = submission_from_dict(body)
    design = build_design(submission)
    config = effective_config(design, submission, cache_dir, use_cache)
    golden = design.golden_module() if config.mode == "sequential" else None
    fingerprint = submission_fingerprint(design, config, golden)
    return submission, design, config, fingerprint


def now_s() -> float:
    """Wall-clock timestamp for job bookkeeping (patchable in tests)."""
    return time.time()
