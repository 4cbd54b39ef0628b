"""Detection sessions: lifecycle owners of one (or many) audit runs.

``DetectionSession`` owns one :class:`repro.core.flow.TrojanDetectionFlow`
(and therefore one :class:`repro.ipc.engine.IpcEngine` with its persistent
solver context) per design.  Results can be consumed three ways:

* ``run()`` — blocking, returns the final :class:`DetectionReport`;
* ``iter_results()`` — a lazy generator of typed run events; the SAT phase
  executes *as the caller iterates*, so progress bars, telemetry, and early
  aborts work while properties are still being settled;
* ``subscribe(callback)`` — observer callbacks on the session's event bus,
  fired for both ``run()`` and ``iter_results()`` consumption.

``BatchSession`` audits a sequence of designs under one shared
:class:`DetectionConfig` and aggregates a :class:`BatchReport` with
per-design reports plus cumulative solver-reuse statistics.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Type, Union

from repro.api.design import Design
from repro.core.config import DetectionConfig, Waiver
from repro.core.events import EventBus, RunEvent, RunFinished
from repro.core.flow import TrojanDetectionFlow, open_result_cache
from repro.core.report import (
    SCHEMA_VERSION,
    DetectionReport,
    check_schema_version,
    execution_summary_line,
)
from repro.errors import ConfigError, ReproError
from repro.exec.executor import create_executor
from repro.exec.scheduler import DesignPlan, run_plans
from repro.obs.progress import progress_sink
from repro.rtl.ir import Module


def _golden_for(design: Design, config: DetectionConfig) -> Optional[Module]:
    """The design's golden model when the config runs sequentially (or None).

    Raising here — before any flow or plan is built — turns "sequential mode
    on a design with no golden model" into an immediate, actionable
    configuration error instead of a mid-run failure.
    """
    if config.mode != "sequential":
        return None
    golden = design.golden_module()
    if golden is None:
        raise ConfigError(
            f"design {design.name!r} has no golden model for the sequential "
            f"mode; load it with a golden top (Design.from_file(..., "
            f"golden_top=...), CLI --golden-top) or pick a benchmark with a "
            f"catalogued golden design"
        )
    return golden


class DetectionSession:
    """One audit of one design, with streaming results and run events."""

    def __init__(
        self,
        design: Union[Design, Module],
        config: Optional[DetectionConfig] = None,
    ) -> None:
        if isinstance(design, Module):
            design = Design.from_module(design)
        self._design = design
        self._config = config if config is not None else design.default_config()
        self._bus = EventBus()
        self._flow: Optional[TrojanDetectionFlow] = None
        self._report: Optional[DetectionReport] = None

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def design(self) -> Design:
        return self._design

    @property
    def config(self) -> DetectionConfig:
        return self._config

    @property
    def flow(self) -> TrojanDetectionFlow:
        """The underlying scheduler (created lazily, then kept warm)."""
        if self._flow is None:
            sequential = self._config.mode == "sequential"
            # Reuse the design's cached fanout analysis when the config traces
            # an explicit input set; with inputs=None the flow's own default
            # (the module's data inputs) applies, which may differ from the
            # design's benchmark metadata.  Sequential runs need neither the
            # analysis nor the partition — they need the golden model.
            analysis = (
                self._design.analysis(self._config.inputs)
                if self._config.inputs is not None and not sequential
                else None
            )
            self._flow = TrojanDetectionFlow(
                self._design.module,
                self._config,
                design_name=self._design.name,
                analysis=analysis,
                golden=_golden_for(self._design, self._config),
                graph=None if sequential else self._design.graph,
            )
        return self._flow

    @property
    def report(self) -> Optional[DetectionReport]:
        """The report of the most recent completed run, if any."""
        return self._report

    # ------------------------------------------------------------------ #
    # Event surface
    # ------------------------------------------------------------------ #

    def subscribe(
        self,
        callback: Callable[[RunEvent], None],
        event_type: Optional[Type[RunEvent]] = None,
        safe: bool = False,
    ) -> Callable[[], None]:
        """Observe run events; returns an unsubscribe callable.

        ``safe=True`` isolates the observer from the run: its exceptions are
        logged and swallowed instead of aborting the audit — the right mode
        for progress displays and streaming clients whose failure must never
        change a verdict.
        """
        return self._bus.subscribe(callback, event_type, safe=safe)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def iter_results(self) -> Iterator[RunEvent]:
        """Run the audit, yielding each typed event as the class settles.

        Events arrive in class order while the structural and SAT phases are
        executing; abandoning the iterator aborts the remaining work.  Every
        event is also dispatched to the session's subscribers.  After the
        final :class:`RunFinished` event, :attr:`report` holds the run's
        report.
        """
        # Solver heartbeats (SolverProgress) are transient: they go to the
        # bus for live observers but never into the merged class-ordered
        # stream, so the yielded events stay deterministic.
        with progress_sink(self._bus.emit):
            for event in self.flow.events():
                # Store the report before dispatching, so a RunFinished
                # subscriber reading session.report sees the finished run.
                if isinstance(event, RunFinished):
                    self._report = event.report
                self._bus.emit(event)
                yield event

    def run(self) -> DetectionReport:
        """Execute the complete audit and return the final report."""
        for _ in self.iter_results():
            pass
        assert self._report is not None
        return self._report

    # Sessions are usable as context managers for symmetry with other
    # lifecycle-owning APIs; there is no external state to free today.
    def __enter__(self) -> "DetectionSession":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DetectionSession({self._design.name!r})"


@dataclass
class BatchReport:
    """Aggregated result of a :class:`BatchSession` run.

    ``reports`` are always kept in the order the designs were queued, even
    when the execution subsystem settled them out of order on a worker
    pool; every aggregate below is a *sum of per-design snapshots*, so the
    totals are independent of completion order.
    """

    reports: List[DetectionReport] = field(default_factory=list)
    total_runtime_seconds: float = 0.0
    #: Worker-process count the batch executed on (1 = classic serial).
    workers: int = 1

    @property
    def designs_audited(self) -> int:
        return len(self.reports)

    @property
    def all_secure(self) -> bool:
        return all(report.is_secure for report in self.reports)

    def flagged_designs(self) -> List[str]:
        """Names of designs the batch did not prove secure."""
        return [report.design for report in self.reports if not report.is_secure]

    def verdict_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for report in self.reports:
            counts[report.verdict.value] = counts.get(report.verdict.value, 0) + 1
        return counts

    def solver_stats(self) -> Dict[str, int]:
        """Cumulative solver-reuse statistics across every design's context.

        Sums the per-design snapshots (each already aggregated over that
        design's workers by the scheduler); the result is therefore the
        same no matter how runs interleaved on the pool.
        """
        totals = {"solver_calls": 0, "conflicts": 0, "clauses_encoded": 0,
                  "clauses_new": 0, "clauses_reused": 0}
        for report in self.reports:
            for key, value in report.solver_stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def cache_stats(self) -> Dict[str, int]:
        """Cumulative result-cache hits/misses across every design."""
        return {
            "cache_hits": sum(report.cache_hits for report in self.reports),
            "cache_misses": sum(report.cache_misses for report in self.reports),
        }

    def report_for(self, design: str) -> DetectionReport:
        for report in self.reports:
            if report.design == design:
                return report
        raise ReproError(f"batch report has no design {design!r}")

    # ------------------------------------------------------------------ #
    # Serialization (shares the report schema version)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "total_runtime_seconds": self.total_runtime_seconds,
            "execution": {"workers": self.workers, **self.cache_stats()},
            "reports": [report.to_dict() for report in self.reports],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BatchReport":
        if not isinstance(data, dict):
            raise ReproError(
                f"serialized batch report must be a dict, got {type(data).__name__}"
            )
        check_schema_version(data, what="batch report")
        return cls(
            reports=[DetectionReport.from_dict(entry) for entry in data.get("reports", [])],
            total_runtime_seconds=data.get("total_runtime_seconds", 0.0),
            workers=data.get("execution", {}).get("workers", 1),
        )

    @classmethod
    def from_json(cls, text: str) -> "BatchReport":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(f"batch report is not valid JSON: {error}") from error
        return cls.from_dict(data)

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #

    def summary(self) -> str:
        counts = ", ".join(
            f"{count} {verdict}" for verdict, count in sorted(self.verdict_counts().items())
        ) or "no designs audited"
        lines = [
            f"batch audit: {self.designs_audited} design(s) in "
            f"{self.total_runtime_seconds:.2f} s — {counts}"
        ]
        for report in self.reports:
            marker = "ok " if report.is_secure else "!! "
            detected = f" ({report.detected_by})" if report.detected_by else ""
            lines.append(
                f"  {marker}{report.design:20s} {report.verdict.value}{detected}"
                f"  [{report.properties_checked()} properties,"
                f" {report.total_runtime_seconds:.2f} s]"
            )
        stats = self.solver_stats()
        if stats["solver_calls"]:
            lines.append(
                f"  cumulative solver work: {stats['solver_calls']} calls,"
                f" {stats['clauses_new']} new / {stats['clauses_reused']} reused clauses,"
                f" {stats['conflicts']} conflicts"
            )
        cache = self.cache_stats()
        execution_line = execution_summary_line(
            self.workers, cache["cache_hits"], cache["cache_misses"]
        )
        if execution_line is not None:
            lines.append(execution_line)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.summary()


class BatchSession:
    """Audit many designs in one process under one shared configuration.

    Designs are accepted as :class:`Design` objects, raw modules, or bundled
    benchmark names.  The shared ``config`` acts as a template: for every
    design the session fills in the design's own traced inputs (when the
    template leaves ``inputs`` unset) and appends the design's recommended
    waivers (unless ``use_recommended_waivers`` is off), mirroring how
    settings with priorities compose in crawler frameworks.
    """

    def __init__(
        self,
        designs: Iterable[Union[Design, Module, str]] = (),
        config: Optional[DetectionConfig] = None,
        use_recommended_waivers: bool = True,
    ) -> None:
        self._designs: List[Design] = []
        self._config = config
        self._use_recommended_waivers = use_recommended_waivers
        self._bus = EventBus()
        self._report: Optional[BatchReport] = None
        for design in designs:
            self.add(design)

    @property
    def designs(self) -> Tuple[Design, ...]:
        return tuple(self._designs)

    @property
    def report(self) -> Optional[BatchReport]:
        """The batch report of the most recent completed run, if any."""
        return self._report

    def add(self, design: Union[Design, Module, str]) -> Design:
        """Queue a design (benchmark name, module, or Design) for the audit."""
        if isinstance(design, str):
            design = Design.from_benchmark(design)
        elif isinstance(design, Module):
            design = Design.from_module(design)
        self._designs.append(design)
        return design

    def subscribe(
        self,
        callback: Callable[[RunEvent], None],
        event_type: Optional[Type[RunEvent]] = None,
        safe: bool = False,
    ) -> Callable[[], None]:
        """Observe the run events of every design in the batch.

        ``safe=True`` logs-and-continues on observer exceptions instead of
        aborting the batch (see :meth:`DetectionSession.subscribe`).
        """
        return self._bus.subscribe(callback, event_type, safe=safe)

    def config_for(self, design: Design) -> DetectionConfig:
        """The effective configuration the batch applies to ``design``."""
        if self._config is None:
            return design.default_config(
                include_recommended_waivers=self._use_recommended_waivers
            )
        config = self._config
        if config.inputs is None and design.data_inputs:
            config = replace(config, inputs=list(design.data_inputs))
        if self._use_recommended_waivers and design.recommended_waivers:
            waived = set(config.waived_signals())
            extra = [
                Waiver(signal=signal, reason=f"recommended for {design.name}")
                for signal in design.recommended_waivers
                if signal not in waived
            ]
            if extra:
                config = replace(config, waivers=list(config.waivers) + extra)
        return config

    def iter_reports(self) -> Iterator[Tuple[Design, DetectionReport]]:
        """Audit the queued designs one by one, yielding each design's report.

        Lazy like :meth:`DetectionSession.iter_results`: design ``n+1`` is
        not elaborated into a flow before design ``n``'s report has been
        consumed, so a caller can stop a long batch early.  Always serial
        within the calling process; :meth:`run` is the surface that shards
        designs over a worker pool when the config asks for ``jobs > 1``.
        """
        for design in self._designs:
            yield design, self._audit(design, self.config_for(design))

    def _audit(self, design: Design, config: DetectionConfig) -> DetectionReport:
        """Audit one design in-process, forwarding its events to the batch bus."""
        session = DetectionSession(design, config=config)
        session.subscribe(self._bus.emit)
        return session.run()

    def _run_sharded(self, pairs, jobs: int) -> Tuple[List[DetectionReport], int]:
        """Audit all queued designs over one shared worker pool.

        Every design's property shards go into a single work-stealing queue,
        so workers move freely between designs: a design with one huge SAT
        obligation no longer serializes the whole batch.  Events merge back
        deterministically in (queue order, class order); reports come back
        in queue order regardless of which design finished first.
        """
        plans = []
        for position, (design, config) in enumerate(pairs):
            sequential = config.mode == "sequential"
            analysis = (
                design.analysis(config.inputs)
                if config.inputs is not None and not sequential
                else None
            )
            plans.append(
                DesignPlan.build(
                    key=f"{position}:{design.name}",
                    name=design.name,
                    module=design.module,
                    config=config,
                    analysis=analysis,
                    graph=None if sequential else design.graph,
                    cache=open_result_cache(config),
                    golden=_golden_for(design, config),
                )
            )
        executor = create_executor(
            jobs,
            {plan.key: plan.work_unit for plan in plans},
            task_retries=plans[0].config.task_retries if plans else 2,
        )
        reports: List[DetectionReport] = []
        try:
            with progress_sink(self._bus.emit):
                for event in run_plans(plans, executor):
                    self._bus.emit(event)
                    if isinstance(event, RunFinished):
                        reports.append(event.report)
        finally:
            executor.close()
        # Report the parallelism the runs actually saw, not the requested
        # jobs: the factory falls back to a serial executor on fork-less
        # platforms and a pool never forks more workers than it has shards,
        # so the batch must agree with its per-design reports.
        return reports, max((report.workers for report in reports), default=1)

    def run(self) -> BatchReport:
        """Audit every queued design and return the aggregated batch report."""
        started = _time.perf_counter()
        pairs = [(design, self.config_for(design)) for design in self._designs]
        jobs = max((config.jobs for _, config in pairs), default=1)
        batch = BatchReport()
        if jobs > 1:
            reports, batch.workers = self._run_sharded(pairs, jobs)
            batch.reports.extend(reports)
        else:
            for design, config in pairs:
                batch.reports.append(self._audit(design, config))
        batch.total_runtime_seconds = _time.perf_counter() - started
        self._report = batch
        return batch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchSession({[design.name for design in self._designs]!r})"
