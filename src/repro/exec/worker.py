"""Per-design work contexts: where property classes actually get settled.

This module is the compute kernel of the execution subsystem.  A
:class:`DesignWorkContext` owns everything one design needs to settle any of
its property classes — the elaborated module, the fanout analysis and the
dependency graph the scheduler built (both shipped in the
:class:`WorkUnit`), and (crucially) one persistent :class:`IpcEngine` whose
shared AIG and incremental solver context survive across every class the
context settles.  A serial executor or pool worker holds the context of
the design it is settling, and tasks reach it design-major, so clause reuse
survives across the shards of one design that a worker takes in turn,
even when the scheduler shards a design's classes across many workers.

:meth:`DesignWorkContext.settle_class` settles one class of Algorithm 1:
build the property, try the cheap structural discharge, then run the SAT
settle loop with spurious-counterexample resolution (Sec. V-B scenario 1).
One wall-clock deadline (``DetectionConfig.check_timeout_s``) bounds all of
it, preprocessing included.  It returns a
:class:`repro.exec.records.ClassResult` — events and outcome bundled — which
is equally consumable in-process (serial executor) and across a process
boundary (record round-trip).
"""

from __future__ import annotations

import time as _time
from contextlib import nullcontext as _nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import DetectionConfig
from repro.core.falsealarm import diagnose_counterexample
from repro.core.properties import build_fanout_property, build_init_property
from repro.core.report import PropertyOutcome
from repro.core.unroll import SequentialUnroller, sequential_output_classes
from repro.errors import CheckDeadlineExceeded, ConfigError
from repro.exec.records import ClassResult, SpuriousRound
from repro.ipc.engine import IpcEngine, PropertyCheckResult
from repro.obs import progress as _progress
from repro.obs import trace as _trace
from repro.ipc.prop import IntervalProperty
from repro.rtl.fanout import FanoutAnalysis, compute_fanout_classes
from repro.rtl.ir import Module
from repro.rtl.netlist import DependencyGraph


@dataclass
class WorkUnit:
    """Everything a worker needs to settle classes of one design.

    Picklable by construction: pool workers receive the unit table once (via
    fork inheritance or the spawn pickle) and build their own contexts.
    ``analysis`` and ``graph`` ship the scheduler's already-computed fanout
    analysis and dependency graph, so serial contexts and forked workers
    diagnose counterexamples on the one graph the parent built (both are
    pure functions of the module and ``config.inputs``, so sharing them
    never changes results).  ``golden`` is the golden model of the
    sequential detection mode (None for combinational work).
    """

    key: str
    name: str
    module: Module
    config: DetectionConfig
    analysis: Optional[FanoutAnalysis] = None
    golden: Optional[Module] = None
    graph: Optional[DependencyGraph] = None


#: Solver-work counters accumulated across engines (the persistent one plus
#: every canonical re-settle engine), each with the attribute of
#: :class:`repro.sat.context.SolverContext` it reads; CNF size is excluded —
#: it is a snapshot of the persistent encoding, not accumulable work.
_WORK_COUNTERS = {
    "solver_calls": "solve_calls",
    "conflicts": "cumulative_conflicts",
    "restarts": "cumulative_restarts",
    "learned_clauses": "cumulative_learned_clauses",
    "deleted_clauses": "cumulative_deleted_clauses",
}


class DesignWorkContext:
    """Settles property classes of one design with engine affinity."""

    def __init__(self, unit: WorkUnit) -> None:
        self._unit = unit
        self._module = unit.module
        self._config = unit.config
        self._graph = unit.graph
        self._analysis = unit.analysis
        self._engine: Optional[IpcEngine] = None
        # Sequential-mode collaborators: one persistent unroller per context
        # (the sequential counterpart of the engine's clause-reuse affinity)
        # and the fixed output -> class mapping.
        self._unroller: Optional[SequentialUnroller] = None
        self._sequential_outputs: Optional[List[str]] = None
        # Solver *work* (calls, conflicts) done on canonical re-settle
        # engines (see settle_class) — folded into stats_snapshot() so the
        # report's solver telemetry covers every engine this context used.
        # CNF size is deliberately excluded: ``cnf_clauses`` stays the
        # persistent context's encoding size, the metric the report always
        # carried.
        self._extra_stats = {counter: 0 for counter in _WORK_COUNTERS}

    # ------------------------------------------------------------------ #
    # Lazily built collaborators (a fully cached run builds none of them)
    # ------------------------------------------------------------------ #

    @property
    def unit(self) -> WorkUnit:
        return self._unit

    @property
    def graph(self) -> DependencyGraph:
        if self._graph is None:
            self._graph = DependencyGraph(self._module)
        return self._graph

    @property
    def analysis(self) -> FanoutAnalysis:
        if self._analysis is None:
            self._analysis = compute_fanout_classes(
                self._module, inputs=self._config.inputs, graph=self.graph
            )
        return self._analysis

    @property
    def engine(self) -> IpcEngine:
        if self._engine is None:
            self._engine = IpcEngine(self._module)
        return self._engine

    @property
    def unroller(self) -> SequentialUnroller:
        """The context's persistent design-vs-golden unroller (sequential mode)."""
        if self._unroller is None:
            if self._unit.golden is None:
                raise ConfigError(
                    f"sequential mode needs a golden model for design "
                    f"{self._unit.name!r} (none was provided)"
                )
            self._unroller = SequentialUnroller(
                self._module, self._unit.golden, reset_values=self._config.reset_values
            )
        return self._unroller

    @property
    def sequential_outputs(self) -> List[str]:
        """Output checked by sequential class ``k`` at position ``k``."""
        if self._sequential_outputs is None:
            if self._unit.golden is None:
                raise ConfigError(
                    f"sequential mode needs a golden model for design "
                    f"{self._unit.name!r} (none was provided)"
                )
            self._sequential_outputs = sequential_output_classes(
                self._module, self._unit.golden
            )
        return self._sequential_outputs

    def stats_snapshot(self) -> Dict[str, int]:
        """This context's solver work so far, read off its solver contexts,
        plus the persistent encoding's ``cnf_clauses``."""
        snapshot = dict(self._extra_stats, cnf_clauses=0)
        for holder in (self._engine, self._unroller):
            if holder is None:
                continue
            context = holder.solver_context
            for counter, attribute in _WORK_COUNTERS.items():
                snapshot[counter] += getattr(context, attribute)
            snapshot["cnf_clauses"] += context.num_clauses
        return snapshot

    # ------------------------------------------------------------------ #
    # Property construction and settling
    # ------------------------------------------------------------------ #

    def build_property(self, k: int) -> IntervalProperty:
        if k == 0:
            return build_init_property(self._module, self.analysis, self._config)
        return build_fanout_property(self._module, self.analysis, k, self._config)

    def settle_class(self, k: int) -> ClassResult:
        """Settle property class ``k`` (0 = init property) to a final result.

        Fast path: settle against this context's shared incremental solver
        state.  If that produced *any* counterexample (a terminal failure or
        auto-resolved spurious rounds), the class is re-settled on a fresh,
        single-use context of the same unit — the *canonical witness
        settle*: which satisfying assignment a CDCL search finds depends on
        everything the solver learned before, and which pattern a
        simulation batch trips over depends on every refinement pattern
        fraig accumulated, so a shared-context counterexample would vary
        with worker sharding.  The canonical re-settle depends only on
        (module, semantic config, class index), making counterexamples,
        diagnoses and spurious-round counts identical for every ``jobs``
        setting — the determinism the report contract and the result cache
        rely on.  Classes that simply hold (the overwhelming majority) never
        pay for it, and neither does a class whose fast path ran on an
        engine that had built nothing yet — that settle *is* the canonical
        one.  Classes settled on the RTL build nothing, so a serial audit
        settles its first failing class once, on the context's own engine.
        """
        if self._config.mode == "sequential":
            kind = "sequential"
        else:
            kind = "init" if k == 0 else "fanout"
        with _progress.progress_scope(self._unit.name, k, kind), _trace.span(
            "settle", cls=k, kind=kind
        ):
            return self._settle_class_inner(k)

    def _settles_canonically(self) -> bool:
        """True when a settle now is itself the canonical witness settle.

        That holds while the context's solver state is as new: no
        sequential unroller yet, or no IPC engine yet, or one that has built
        nothing (:attr:`IpcEngine.pristine`).
        """
        if self._config.mode == "sequential":
            return self._unroller is None
        return self._engine is None or self._engine.pristine

    def _settle_class_inner(self, k: int) -> ClassResult:
        canonical_already = self._settles_canonically()
        # One wall-clock deadline covers the *whole* class settle — the fast
        # path, spurious-resolution rounds and the canonical witness
        # re-settle together — so ``check_timeout_s`` bounds the task a
        # supervisor would otherwise see hang, not one solver call.
        started = _time.perf_counter()
        deadline_s: Optional[float] = None
        if self._config.check_timeout_s is not None:
            deadline_s = _time.monotonic() + self._config.check_timeout_s
        try:
            result = self._settle_once(k, deadline_s=deadline_s)
            if (result.rounds or result.terminal == "cex") and not canonical_already:
                canonical = DesignWorkContext(self._unit)
                result = canonical._settle_once(k, deadline_s=deadline_s)
                # The re-proof's solver work happened on the canonical engine;
                # fold it into this context's accounting so chunk deltas (and
                # therefore the report's solver telemetry) cover it.
                canonical_stats = canonical.stats_snapshot()
                for counter in _WORK_COUNTERS:
                    self._extra_stats[counter] += canonical_stats[counter]
        except CheckDeadlineExceeded:
            # The class ran past its wall-clock budget.  The engine is left
            # backtracked and reusable; the class degrades to an
            # *inconclusive* timeout outcome with partial telemetry instead
            # of aborting the run.
            return self._timeout_result(k, elapsed_s=_time.perf_counter() - started)
        return result

    def _timeout_result(self, k: int, elapsed_s: float) -> ClassResult:
        """The inconclusive ``terminal="timeout"`` result of a blown deadline.

        ``holds=True`` keeps a timeout from masquerading as a detection; the
        ``status="timeout"`` marker is what forces the run's verdict down to
        ``inconclusive`` (never up to ``secure``) and keeps the outcome out
        of the result cache.
        """
        if self._config.mode == "sequential":
            kind = "sequential"
            name = f"sequential_equivalence[{self.sequential_outputs[k]}]"
            commitments = self._config.depth
        else:
            kind = "init" if k == 0 else "fanout"
            prop = self.build_property(k)
            name = prop.name
            commitments = len(prop.commitments)
        result = PropertyCheckResult(
            prop=IntervalProperty(
                name=name,
                description=(
                    f"check abandoned after exceeding the "
                    f"{self._config.check_timeout_s}s wall-clock deadline"
                ),
            ),
            holds=True,
            runtime_seconds=elapsed_s,
        )
        outcome = PropertyOutcome(kind=kind, index=k, result=result, status="timeout")
        return ClassResult(
            design=self._unit.name,
            index=k,
            kind=kind,
            property_name=name,
            commitments=commitments,
            terminal="timeout",
            outcome=outcome,
        )

    def _settle_once(self, k: int, deadline_s: Optional[float] = None) -> ClassResult:
        """One settle pass against this context's own solver state."""
        if self._config.mode == "sequential":
            return self._settle_sequential_once(k, deadline_s=deadline_s)
        return self._settle_combinational_once(k, deadline_s=deadline_s)

    def _settle_sequential_once(
        self, k: int, deadline_s: Optional[float] = None
    ) -> ClassResult:
        """Settle sequential class ``k``: bounded design-vs-golden divergence
        of the ``k``-th common output (see :mod:`repro.core.unroll`).

        There is no spurious-counterexample loop here: a bounded divergence
        from the golden model is a divergence, full stop — the waiver
        machinery of the combinational mode exists only because *that* mode
        compares a design against itself over unconstrained starting states.
        """
        output = self.sequential_outputs[k]
        depth = self._config.depth
        # A deadline already past skips the unroll; otherwise the solver
        # polls it inside the SAT call.
        if deadline_s is not None and _time.monotonic() >= deadline_s:
            raise CheckDeadlineExceeded("check deadline exceeded")
        check = self.unroller.check_output(output, depth, deadline_s=deadline_s)
        result = PropertyCheckResult(
            prop=IntervalProperty(
                name=f"sequential_equivalence[{output}]",
                description=(
                    f"design output {output!r} equals the golden model's for "
                    f"{depth} cycles from reset"
                ),
            ),
            holds=check.holds,
            cex=check.cex,
            structurally_proven=check.structurally_proven,
            runtime_seconds=check.runtime_seconds,
            sat_conflicts=check.sat_conflicts,
            sat_decisions=check.sat_decisions,
            cnf_new_clauses=check.cnf_new_clauses,
            cnf_reused_clauses=check.cnf_reused_clauses,
            solver_calls=check.solver_calls,
            sim_falsified=check.sim_falsified,
            nodes_before=check.nodes_before,
            nodes_after=check.nodes_after,
            merged_nodes=check.merged_nodes,
            sweep_seconds=check.sweep_seconds,
        )
        outcome = PropertyOutcome(
            kind="sequential",
            index=k,
            result=result,
            depth_reached=depth,
            first_divergence_cycle=check.first_divergence_cycle,
        )
        if check.structurally_proven:
            terminal = "structural"
        elif check.holds:
            terminal = "proven"
        else:
            terminal = "cex"
        return ClassResult(
            design=self._unit.name,
            index=k,
            kind="sequential",
            property_name=result.prop.name,
            commitments=depth,
            terminal=terminal,
            outcome=outcome,
        )

    def _settle_combinational_once(
        self, k: int, deadline_s: Optional[float] = None
    ) -> ClassResult:
        """One combinational settle pass against this context's own engine.

        Structural discharge first; remaining obligations go to the shared
        incremental solver context.  Counterexamples whose every cause is
        provable by another property of the run are resolved by
        re-verification with strengthened assumptions; each such round is
        recorded so event replay reproduces the full ``CexFound``/``CexWaived``
        history.
        """
        kind = "init" if k == 0 else "fanout"
        prop = self.build_property(k)
        base = dict(
            design=self._unit.name,
            index=k,
            kind=kind,
            property_name=prop.name,
            commitments=len(prop.commitments),
        )
        if not prop.commitments:
            # Nothing to prove for this class; trivially holds.
            outcome = PropertyOutcome(
                kind=kind,
                index=k,
                result=PropertyCheckResult(prop=prop, holds=True, structurally_proven=True),
            )
            return ClassResult(terminal="structural", outcome=outcome, **base)

        prepared = self.engine.begin_check(prop, deadline_s=deadline_s)
        if prepared.discharged:
            outcome = PropertyOutcome(
                kind=kind, index=k, result=self.engine.finish_check(prepared)
            )
            return ClassResult(terminal="structural", outcome=outcome, **base)

        # SAT phase with per-class spurious-CEX resolution, against the
        # context's persistent solver state.
        rounds: List[SpuriousRound] = []
        resolved = 0
        extra_assumptions: List[str] = []
        result = self.engine.finish_check(prepared, deadline_s=deadline_s)
        while True:
            if result.holds:
                outcome = PropertyOutcome(
                    kind=kind, index=k, result=result, resolved_spurious=resolved
                )
                return ClassResult(
                    terminal="proven", outcome=outcome, rounds=rounds, **base
                )
            diagnosis = diagnose_counterexample(
                self._module, self.analysis, prop, result.cex, self.graph, self._config
            )
            if diagnosis.auto_resolvable:
                new_assumptions = [
                    signal
                    for signal in diagnosis.proposed_assumptions()
                    if signal not in extra_assumptions
                ]
                if new_assumptions:
                    rounds.append(
                        SpuriousRound(
                            cex=result.cex,
                            diagnosis=diagnosis,
                            waived_signals=list(new_assumptions),
                            solve_s=result.runtime_seconds,
                        )
                    )
                    extra_assumptions.extend(new_assumptions)
                    resolved += 1
                    prop = self.build_property(k)
                    for signal in extra_assumptions:
                        prop.assume_equal(signal, 0)
                    # Re-check the deadline before re-encoding the refined
                    # property, not only inside the next solve.
                    if deadline_s is not None and _time.monotonic() >= deadline_s:
                        raise CheckDeadlineExceeded("check deadline exceeded")
                    result = self.engine.finish_check(
                        self.engine.begin_check(prop, deadline_s=deadline_s),
                        deadline_s=deadline_s,
                    )
                    continue
            outcome = PropertyOutcome(
                kind=kind,
                index=k,
                result=result,
                diagnosis=diagnosis,
                resolved_spurious=resolved,
            )
            return ClassResult(terminal="cex", outcome=outcome, rounds=rounds, **base)

    def run_chunk(
        self, indices: Sequence[int], stop_on_failure: bool
    ) -> Tuple[List[ClassResult], Dict[str, object]]:
        """Settle a shard of classes in index order; returns (results, stats).

        The stats dict is this chunk's *delta* of the context's solver work
        (plus the current CNF size snapshot and the chunk's worker-side wall
        time), so a scheduler can aggregate per-design totals from chunks
        that ran on different workers.

        When the config asks for tracing, a chunk-local tracer is installed
        around the settle loop and its spans travel back in the stats dict
        (``stats["spans"]``, plain JSON-native dicts) — the one channel that
        already crosses the worker-process boundary.  Pool and serial
        executors thus merge traces identically, with no reliance on fork
        semantics.
        """
        started = _time.perf_counter()
        tracer = _trace.Tracer() if self._config.trace else None
        before = self.stats_snapshot()
        results: List[ClassResult] = []
        with _trace.install_tracer(tracer) if tracer is not None else _nullcontext():
            for k in indices:
                result = self.settle_class(k)
                results.append(result)
                if stop_on_failure and not result.outcome.holds:
                    break
        after = self.stats_snapshot()
        stats: Dict[str, object] = {
            "cnf_clauses": after["cnf_clauses"],
            "elapsed_s": _time.perf_counter() - started,
        }
        for counter in _WORK_COUNTERS:
            stats[counter] = after[counter] - before[counter]
        if tracer is not None:
            stats["spans"] = tracer.export()
        return results, stats
