"""Algorithm 1 as a plan handed to the parallel execution subsystem.

The flow builds one property per fanout class (plus the init property).  As
of the exec-subsystem refactor it no longer loops over them itself: it
builds a :class:`repro.exec.scheduler.DesignPlan` — which consults the
persistent :class:`repro.exec.cache.ResultCache` and shards the remaining
classes into chunk tasks — and hands the shards to an
:class:`repro.exec.executor.Executor`:

* ``DetectionConfig.jobs == 1`` (default): a :class:`SerialExecutor` settles
  each class inline as the event consumer iterates, using this flow's own
  persistent :class:`IpcEngine` — the classic lazy streaming behaviour with
  full clause reuse across classes.
* ``jobs > 1``: a :class:`ProcessPoolExecutor` forks workers that steal
  shards from one shared queue; each worker keeps one engine per design, so
  clause reuse survives inside a worker.

Either way the consumer sees the same deterministic, typed event stream of
:mod:`repro.core.events` (``PropertyScheduled``, ``StructurallyDischarged``,
``CexFound``, ``CexWaived``, ``ClassProven``, ``RunFinished``) merged back in
class order, and :meth:`TrojanDetectionFlow.run` simply drains that stream
and returns the final report.  Per-class settling (structural discharge,
SAT search, spurious-counterexample resolution of Sec. V-B) lives in
:class:`repro.exec.worker.DesignWorkContext`.
"""

from __future__ import annotations

import warnings
from typing import Iterator, Optional

from repro.core.config import DetectionConfig
from repro.core.events import RunEvent, RunFinished
from repro.core.report import DetectionReport
from repro.exec.cache import ResultCache
from repro.exec.executor import ContextSeed, create_executor
from repro.exec.scheduler import DesignPlan, run_plans
from repro.ipc.engine import IpcEngine
from repro.obs.trace import span as _obs_span
from repro.rtl.fanout import FanoutAnalysis, compute_fanout_classes
from repro.rtl.ir import Module
from repro.rtl.netlist import DependencyGraph


def open_result_cache(config: DetectionConfig) -> Optional[ResultCache]:
    """The config's result cache, or None when disabled (no dir / --no-cache)."""
    if config.cache_dir is None or not config.use_cache:
        return None
    return ResultCache(config.cache_dir)


class TrojanDetectionFlow:
    """Runs the batched detection flow of Algorithm 1 on one module."""

    def __init__(
        self,
        module: Module,
        config: Optional[DetectionConfig] = None,
        design_name: Optional[str] = None,
        analysis: Optional[FanoutAnalysis] = None,
        golden: Optional[Module] = None,
        graph: Optional[DependencyGraph] = None,
    ) -> None:
        self._module = module
        # Reports and events carry the *design* name (e.g. the benchmark
        # name), which the session API may set to something more specific
        # than the top module's identifier.
        self._design_name = design_name or module.name
        self._config = config or DetectionConfig()
        # The golden model of the sequential mode (None for the default
        # combinational flow, which is golden-free by construction).
        self._golden = golden
        self._sequential = self._config.mode == "sequential"
        if self._sequential:
            # The fanout partition and dependency graph drive only the
            # combinational properties and the coverage check; sequential
            # runs schedule one class per common design/golden output.
            self._graph = None
            self._analysis = None
        else:
            # A pre-built graph (Design.graph) and a pre-computed fanout
            # analysis (Design.analysis()'s cache) may be passed in; the
            # graph must be the module's, the analysis must match the
            # config's traced inputs.
            self._graph = graph if graph is not None else DependencyGraph(module)
            self._analysis = analysis if analysis is not None else compute_fanout_classes(
                module, inputs=self._config.inputs, graph=self._graph
            )
        # The engine is created on first use: a fully cache-warm run (and a
        # jobs > 1 run, where workers own their engines) never builds one.
        self._lazy_engine: Optional[IpcEngine] = None

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def module(self) -> Module:
        return self._module

    @property
    def config(self) -> DetectionConfig:
        return self._config

    @property
    def analysis(self) -> Optional[FanoutAnalysis]:
        """The fanout partition of combinational runs (None in sequential mode)."""
        return self._analysis

    @property
    def golden(self) -> Optional[Module]:
        """The sequential mode's golden model (None for combinational runs)."""
        return self._golden

    @property
    def engine(self) -> IpcEngine:
        """The flow's persistent property-checking engine (created lazily).

        Serial runs settle their classes on exactly this engine, so direct
        ``flow.engine.check(...)`` experiments after a run reuse everything
        the run encoded and learned.
        """
        if self._lazy_engine is None:
            self._lazy_engine = IpcEngine(
                self._module,
                solver_backend=self._config.solver_backend,
                simplify=self._config.simplify,
                sim_patterns=self._config.sim_patterns,
                fraig_rounds=self._config.fraig_rounds,
                inprocess=self._config.inprocess,
                sim_backend=self._config.sim_backend,
            )
        return self._lazy_engine

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #

    def run(self) -> DetectionReport:
        """Execute the complete flow and return the detection report."""
        report: Optional[DetectionReport] = None
        for event in self.events():
            if isinstance(event, RunFinished):
                report = event.report
        assert report is not None  # events() always ends with RunFinished
        return report

    def events(self) -> Iterator[RunEvent]:
        """Execute the flow lazily, emitting one typed event per step.

        The generator *is* the run: with the default serial executor,
        properties settle as the consumer iterates, so a caller can render
        progress, collect telemetry, or abandon the iteration for an early
        abort while the SAT phase is still running.  With ``config.jobs > 1``
        the shards execute on worker processes while the consumer drains the
        merged, deterministic event stream.  The final event is always
        :class:`RunFinished` carrying the complete report.
        """
        cache = open_result_cache(self._config)
        with _obs_span("plan", design=self._design_name):
            plan = DesignPlan.build(
                key=self._design_name,
                name=self._design_name,
                module=self._module,
                config=self._config,
                analysis=self._analysis,
                graph=self._graph,
                cache=cache,
                golden=self._golden,
            )
        # Sequential contexts own a SequentialUnroller instead of an IPC
        # engine; seeding the flow's engine there would build (and leak) an
        # engine no sequential class ever uses.
        seed = (
            ContextSeed()
            if self._sequential
            else ContextSeed(
                engine_factory=lambda: self.engine,
                analysis=self._analysis,
                graph=self._graph,
            )
        )
        executor = create_executor(
            self._config.jobs,
            {plan.key: plan.work_unit},
            seeds={plan.key: seed},
            task_retries=self._config.task_retries,
        )
        try:
            yield from run_plans([plan], executor)
        finally:
            executor.close()


def detect_trojans(module: Module, config: Optional[DetectionConfig] = None) -> DetectionReport:
    """Run Algorithm 1 on ``module`` and return the report.

    .. deprecated::
        ``detect_trojans`` is kept as a thin compatibility shim; new code
        should use the session API::

            from repro.api import Design, DetectionSession

            report = DetectionSession(Design.from_module(module), config).run()
    """
    warnings.warn(
        "detect_trojans() is deprecated; use repro.api.DetectionSession "
        "(see ARCHITECTURE.md for the migration path)",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.api import DetectionSession

    return DetectionSession(module, config=config).run()
