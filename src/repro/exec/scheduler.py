"""The batch scheduler: plans, shards, merges, and assembles reports.

A :class:`DesignPlan` captures one design's schedule: how many property
classes the run covers, which of them replay instantly from the
:class:`ResultCache`, and how the remaining *misses* are sharded into
:class:`ChunkTask` s.  :func:`run_plans` then drives any number of plans over
one :class:`Executor` and turns the (possibly wildly out-of-order) chunk
outcomes back into the deterministic, typed event stream of
:mod:`repro.core.events`:

* tasks are submitted design-major / class-major, and the executor yields
  outcomes in submission order, so the merge is a plain in-order walk;
* within a design, events are emitted as per-class groups in class order —
  cached replays and freshly computed shards are indistinguishable except
  for their ``from_cache`` flag;
* ``stop_at_first_failure`` trims exactly like the classic serial flow: the
  report covers the contiguous class prefix up to the failing class, and
  the remaining shards of that design are cancelled.

Report assembly (verdict, coverage check, solver/cache/executor accounting)
lives here too, shared by the single-design flow and multi-design batches.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.config import DetectionConfig
from repro.core.coverage import check_signal_coverage
from repro.core.events import RunEvent, RunFinished, RunStarted
from repro.core.report import (
    DetectionReport,
    PropertyOutcome,
    Verdict,
    outcome_from_dict,
)
from repro.core.unroll import sequential_output_classes
from repro.errors import ConfigError, ReproError
from repro.exec.cache import ResultCache
from repro.exec.executor import ChunkOutcome, ChunkTask, CubeTask, Executor
from repro.exec.fingerprint import (
    class_cache_key,
    config_fingerprint,
    cube_cache_key,
    module_fingerprint,
    pair_module_fingerprint,
    split_cache_key,
)
from repro.exec.records import (
    ClassResult,
    CubeVerdict,
    SplitResult,
    class_result_from_record,
    class_result_to_record,
    cube_verdict_from_record,
    cube_verdict_to_record,
    split_result_from_record,
    split_result_to_record,
)
from repro.exec.worker import WorkUnit, resolved_backend_name
from repro.ipc.engine import PropertyCheckResult
from repro.ipc.prop import IntervalProperty
from repro.obs import trace as _obs_trace
from repro.rtl.fanout import FanoutAnalysis, compute_fanout_classes
from repro.rtl.ir import Module
from repro.rtl.netlist import DependencyGraph


def shard_indices(
    indices: Sequence[int], jobs: int, max_shards: Optional[int] = None
) -> List[Tuple[int, ...]]:
    """Split class indices into contiguous shards sized for ``jobs`` workers.

    Serial execution shards per class (maximum laziness for streaming
    consumers); parallel execution aims for ``max_shards`` shards (default
    ~4 per worker) so the shared queue always has shards left to steal when
    one worker's classes settle faster than another's.  A multi-design
    batch passes a smaller budget per design — the designs themselves
    already provide stealing granularity, and coarser shards keep each
    worker from paying the per-design engine setup for every design in the
    batch.  Shards never span a gap (a cached class in the middle), so
    every shard is a contiguous run of misses.
    """
    ordered = sorted(indices)
    if not ordered:
        return []
    runs: List[List[int]] = [[ordered[0]]]
    for index in ordered[1:]:
        if index == runs[-1][-1] + 1:
            runs[-1].append(index)
        else:
            runs.append([index])
    if jobs <= 1:
        chunk_size = 1
    else:
        target = max_shards if max_shards is not None else jobs * 4
        target = max(1, target)
        chunk_size = max(1, -(-len(ordered) // target))  # ceil division
    shards: List[Tuple[int, ...]] = []
    for run in runs:
        for start in range(0, len(run), chunk_size):
            shards.append(tuple(run[start : start + chunk_size]))
    return shards


def quarantined_class_result(
    name: str,
    config: DetectionConfig,
    index: int,
    kind: Optional[str] = None,
    property_name: Optional[str] = None,
    commitments: int = 0,
) -> ClassResult:
    """Synthesize the inconclusive result of a quarantined class.

    A class lands here when every worker process that picked its task up
    died before reporting (the retry budget ``config.task_retries`` is
    exhausted).  ``holds=True`` keeps the crash from masquerading as a
    detection; the ``status="error"`` marker forces the run's verdict down
    to ``inconclusive`` and keeps the outcome out of the result cache.  The
    property name is a placeholder — the worker that would have built the
    real property is exactly the thing that kept dying.
    """
    if kind is None:
        if config.mode == "sequential":
            kind = "sequential"
        else:
            kind = "init" if index == 0 else "fanout"
    if property_name is None:
        property_name = f"quarantined_class_{index}"
    result = PropertyCheckResult(
        prop=IntervalProperty(
            name=property_name,
            description=(
                f"class abandoned: the worker process holding its task died "
                f"{config.task_retries + 1} time(s)"
            ),
        ),
        holds=True,
    )
    outcome = PropertyOutcome(kind=kind, index=index, result=result, status="error")
    return ClassResult(
        design=name,
        index=index,
        kind=kind,
        property_name=property_name,
        commitments=commitments,
        terminal="error",
        outcome=outcome,
        retries=config.task_retries,
    )


@dataclass
class DesignPlan:
    """One design's schedule: replays from cache plus shards of misses.

    ``depth`` is the number of *scheduled property classes* — the fanout
    placement depth in combinational mode, the number of common
    design/golden outputs in sequential mode (one class per output; the
    cycle bound lives in ``config.depth``).  ``analysis`` is None for
    sequential plans: the fanout partition plays no role there, and
    skipping it keeps cache-warm sequential runs free of structural work.
    """

    key: str
    name: str
    module: Module
    config: DetectionConfig
    analysis: Optional[FanoutAnalysis]
    depth: int
    backend_name: str
    golden: Optional[Module] = None
    graph: Optional[DependencyGraph] = None
    cache: Optional[ResultCache] = None
    cache_keys: Dict[int, str] = field(default_factory=dict)
    replays: Dict[int, ClassResult] = field(default_factory=dict)
    #: Classes with a cached *split* record but no final class record: an
    #: interrupted hard proof.  They skip the budgeted monolithic attempt and
    #: go straight to cube reduction, resuming from settled cube verdicts.
    presplit: Dict[int, SplitResult] = field(default_factory=dict)
    miss_indices: List[int] = field(default_factory=list)
    tasks: List[ChunkTask] = field(default_factory=list)
    module_fp: str = ""
    config_fp: str = ""

    @classmethod
    def build(
        cls,
        key: str,
        name: str,
        module: Module,
        config: DetectionConfig,
        analysis: Optional[FanoutAnalysis] = None,
        graph: Optional[DependencyGraph] = None,
        cache: Optional[ResultCache] = None,
        golden: Optional[Module] = None,
    ) -> "DesignPlan":
        if config.mode == "sequential":
            if golden is None:
                raise ConfigError(
                    f"sequential mode needs a golden model for design {name!r}; "
                    f"pass one (benchmarks: a catalogued golden top, CLI: "
                    f"--golden-top) or use the combinational mode"
                )
            # max_class bounds *fanout iterations*; applying it here would
            # silently drop output classes and turn a trojan on a
            # later-declared output into a vacuous SECURE verdict, so
            # sequential schedules always cover every common output.
            depth = len(sequential_output_classes(module, golden))
        else:
            golden = None  # a stray golden model must not leak into cache keys
            if analysis is None:
                # Keep the graph: the coverage check reuses it.
                graph = graph if graph is not None else DependencyGraph(module)
                analysis = compute_fanout_classes(module, inputs=config.inputs, graph=graph)
            depth = analysis.placement_depth
            if config.max_class is not None:
                depth = min(depth, config.max_class)
        backend_name = resolved_backend_name(config)
        plan = cls(
            key=key,
            name=name,
            module=module,
            config=config,
            analysis=analysis if config.mode != "sequential" else None,
            depth=depth,
            backend_name=backend_name,
            golden=golden,
            graph=graph,
            cache=cache if config.use_cache else None,
        )
        plan._look_up_cache()
        return plan

    def _look_up_cache(self) -> None:
        if self.cache is None:
            self.miss_indices = list(range(self.depth))
            return
        module_fp = module_fingerprint(self.module)
        if self.golden is not None:
            module_fp = pair_module_fingerprint(module_fp, module_fingerprint(self.golden))
        config_fp = config_fingerprint(self.config, self.backend_name)
        self.module_fp = module_fp
        self.config_fp = config_fp
        for index in range(self.depth):
            self.cache_keys[index] = class_cache_key(module_fp, config_fp, index)
        misses: List[int] = []
        for index in range(self.depth):
            record = self.cache.get(self.cache_keys[index])
            if record is None:
                misses.append(index)
                continue
            try:
                self.replays[index] = class_result_from_record(
                    self.name, record, from_cache=True
                )
            except ReproError:
                # A readable entry with an unusable payload: plain miss.
                self.cache.corrupt_skipped += 1
                misses.append(index)
        # A miss may still carry a cached *split* record from an interrupted
        # proof: the class resumes at cube reduction instead of re-running
        # (and possibly re-budgeting) the monolithic attempt.  Split records
        # only exist when the run's semantic config enabled splitting, and
        # the split knobs are part of the config fingerprint, so a
        # ``--no-split`` rerun never sees them.
        still_missing: List[int] = []
        for index in misses:
            record = self.cache.get(split_cache_key(module_fp, config_fp, index))
            if record is None:
                still_missing.append(index)
                continue
            try:
                self.presplit[index] = split_result_from_record(self.name, record)
            except ReproError:
                self.cache.corrupt_skipped += 1
                still_missing.append(index)
        misses = still_missing
        if self.config.stop_at_first_failure:
            failing = [
                index
                for index, result in self.replays.items()
                if not result.outcome.holds
            ]
            if failing:
                # The audit will stop at the first cached failure; classes
                # beyond it were never part of the cold run's report either.
                first_failure = min(failing)
                misses = [index for index in misses if index < first_failure]
        self.miss_indices = misses

    # ------------------------------------------------------------------ #
    # Sharding
    # ------------------------------------------------------------------ #

    @property
    def work_unit(self) -> WorkUnit:
        return WorkUnit(
            key=self.key,
            name=self.name,
            module=self.module,
            config=self.config,
            analysis=self.analysis,
            golden=self.golden,
        )

    def make_tasks(
        self, jobs: int, first_task_id: int, max_shards: Optional[int] = None
    ) -> List[ChunkTask]:
        """Shard this plan's misses into tasks with globally unique ids."""
        self.tasks = [
            ChunkTask(
                task_id=first_task_id + offset,
                design_key=self.key,
                indices=shard,
                stop_on_failure=self.config.stop_at_first_failure,
            )
            for offset, shard in enumerate(
                shard_indices(self.miss_indices, jobs, max_shards)
            )
        ]
        return self.tasks

    # ------------------------------------------------------------------ #
    # Report assembly and cache write-back
    # ------------------------------------------------------------------ #

    def assemble_report(
        self,
        merged: List[ClassResult],
        chunk_stats: List[ChunkOutcome],
        workers: int,
        elapsed: float,
    ) -> DetectionReport:
        report = DetectionReport(
            design=self.name,
            verdict=Verdict.SECURE,
            fanout_analysis=self.analysis,
        )
        for result in merged:
            outcome = result.outcome
            if not outcome.holds:
                report.verdict = Verdict.TROJAN_SUSPECTED
                report.detected_by = outcome.label
                report.counterexample = outcome.result.cex
                report.diagnosis = outcome.diagnosis
        report.outcomes = [result.outcome for result in merged]
        report.spurious_resolved = sum(
            outcome.resolved_spurious for outcome in report.outcomes
        )

        # Solver accounting: per-chunk work deltas sum across workers; the
        # persistent-CNF size is the largest snapshot each worker's context
        # reached for this design.
        report.solver_backend = (
            str(chunk_stats[0].stats.get("backend", self.backend_name))
            if chunk_stats
            else self.backend_name
        )
        report.solver_calls = sum(int(cs.stats.get("solver_calls", 0)) for cs in chunk_stats)
        report.solver_conflicts = sum(int(cs.stats.get("conflicts", 0)) for cs in chunk_stats)
        report.solver_restarts = sum(int(cs.stats.get("restarts", 0)) for cs in chunk_stats)
        report.solver_learned_clauses = sum(
            int(cs.stats.get("learned_clauses", 0)) for cs in chunk_stats
        )
        report.solver_deleted_clauses = sum(
            int(cs.stats.get("deleted_clauses", 0)) for cs in chunk_stats
        )
        per_worker_cnf: Dict[str, int] = {}
        for cs in chunk_stats:
            snapshot = int(cs.stats.get("cnf_clauses", 0))
            per_worker_cnf[cs.worker] = max(per_worker_cnf.get(cs.worker, 0), snapshot)
        report.cnf_clauses = sum(per_worker_cnf.values())
        report.cnf_clauses_reused = sum(
            outcome.result.cnf_reused_clauses for outcome in report.outcomes
        )

        # Preprocessing accounting: aggregated from the outcomes themselves,
        # so cache replays report the telemetry of the run that proved them.
        results = [outcome.result for outcome in report.outcomes]
        report.preprocess_nodes_before = sum(r.nodes_before for r in results)
        report.preprocess_nodes_after = sum(r.nodes_after for r in results)
        report.preprocess_merged_nodes = sum(r.merged_nodes for r in results)
        report.preprocess_sim_falsified = sum(1 for r in results if r.sim_falsified)
        report.preprocess_sweep_s = sum(r.sweep_seconds for r in results)

        # Phase profile: aggregated from the worker-side spans each chunk
        # carried home.  Attached only when tracing was requested — it is a
        # pure observability payload, stripped by normalized_report_dict.
        if self.config.trace:
            spans = [
                event
                for cs in chunk_stats
                for event in cs.stats.get("spans", ())
            ]
            report.profile = _obs_trace.phase_profile(spans)

        report.workers = workers
        if self.cache is not None:
            report.cache_hits = sum(1 for result in merged if result.from_cache)
            report.cache_misses = len(merged) - report.cache_hits

        # Per-design runtime: in a pooled batch, workers may solve this
        # design while the consumer is still merging an earlier one, so the
        # consumer-side merge window alone would misattribute the cost.
        # Charge the design at least its workers' own wall time.
        solve_elapsed = sum(float(cs.stats.get("elapsed_s", 0.0)) for cs in chunk_stats)
        elapsed = max(elapsed, solve_elapsed)

        stopped_early = self.config.stop_at_first_failure and any(
            not result.outcome.holds for result in merged
        )
        if not stopped_early and self.analysis is not None:
            # Coverage check (Algorithm 1, line 17): only meaningful when the
            # run was not cut short by a failing property.  Sequential plans
            # (analysis is None) have no fanout partition to cover — their
            # soundness story is the bound, reported per outcome instead.
            graph = self.graph if self.graph is not None else DependencyGraph(self.module)
            coverage = check_signal_coverage(self.module, self.analysis, graph)
            report.coverage = coverage
            if report.verdict is Verdict.SECURE and not coverage.complete:
                report.verdict = Verdict.UNCOVERED_SIGNALS
                report.detected_by = "coverage check"
        if report.verdict is Verdict.SECURE and any(
            outcome.status != "ok" for outcome in report.outcomes
        ):
            # Fail closed: a run that could not settle every scheduled class
            # (timeouts, quarantined crashes) must not claim the design
            # secure.  A genuine detection or coverage gap still outranks
            # the unsettled classes — those verdicts stand on the classes
            # that *did* settle.
            report.verdict = Verdict.INCONCLUSIVE
        report.total_runtime_seconds = elapsed
        return report

    def write_back(self, merged: List[ClassResult]) -> None:
        """Persist freshly computed class results to the cache."""
        if self.cache is None:
            return
        for result in merged:
            if result.from_cache:
                continue
            if result.outcome.status != "ok":
                # Timeouts and quarantines are artifacts of *this* run's
                # execution (deadlines, crashes), not verdicts about the
                # design; they must never replay from the cache.
                continue
            key = self.cache_keys.get(result.index)
            if key is not None:
                self.cache.put(key, class_result_to_record(result))


def run_plans(plans: Sequence[DesignPlan], executor: Executor) -> Iterator[RunEvent]:
    """Execute every plan over ``executor``, yielding the merged event stream.

    Designs are processed in plan order; their shards are all submitted up
    front, so with a process pool the executor is free to settle design N+1's
    classes while design N's stragglers finish.  The event stream and the
    reports depend only on (plans, worker results) — never on completion
    order.

    This is also where cube-and-conquer reduction happens: a worker that
    returns a :class:`SplitResult` instead of a final verdict has its class
    fanned out into :class:`CubeTask` s (submitted *urgent*, so idle workers
    steal cubes before remaining shards), and the cube verdicts merge back
    deterministically — any SAT cube sends the class to a canonical
    re-settle that produces the witness, all-UNSAT proves it from the
    split's pre-built outcome template.  Per-cube verdicts are cached
    individually, so an interrupted hard proof resumes from its settled
    cubes.
    """
    next_task_id = 0
    all_tasks: List[ChunkTask] = []
    # Shard budget per design: a lone design gets ~4 shards per worker; in a
    # batch the designs themselves provide stealing granularity, so each
    # design's budget shrinks accordingly (a big batch runs one shard per
    # design, which also minimizes duplicated per-design engine setup).
    shard_budget = max(1, -(-executor.workers * 4 // max(1, len(plans))))
    for plan in plans:
        tasks = plan.make_tasks(executor.workers, next_task_id, shard_budget)
        next_task_id += len(tasks)
        all_tasks.extend(tasks)

    if all_tasks:
        executor.submit(all_tasks)
    workers = executor.effective_workers(len(all_tasks))

    def consume_stats(outcome: ChunkOutcome, chunk_stats: List[ChunkOutcome]) -> None:
        if outcome.skipped:
            return
        chunk_stats.append(outcome)
        # Worker-side spans merge into the ambient tracer (if any) so one
        # traced run yields one timeline.
        spans = outcome.stats.get("spans")
        if spans:
            _obs_trace.absorb(spans)

    def reduce_split(
        plan: DesignPlan, split: SplitResult, chunk_stats: List[ChunkOutcome]
    ) -> ClassResult:
        """Merge one split class's cube verdicts into a final ClassResult."""
        nonlocal next_task_id
        verdicts: List[CubeVerdict] = []
        pending: List[Tuple[CubeTask, Optional[str]]] = []
        for cube in split.cubes:
            key: Optional[str] = None
            if plan.cache is not None:
                key = cube_cache_key(plan.module_fp, plan.config_fp, split.index, cube)
                record = plan.cache.get(key)
                if record is not None:
                    try:
                        verdicts.append(
                            cube_verdict_from_record(plan.name, record, from_cache=True)
                        )
                        continue
                    except ReproError:
                        plan.cache.corrupt_skipped += 1
            task = CubeTask(
                task_id=next_task_id,
                design_key=plan.key,
                index=split.index,
                cube=cube,
            )
            next_task_id += 1
            pending.append((task, key))
        if pending:
            executor.submit([task for task, _ in pending], urgent=True)
        for task, key in pending:
            outcome = executor.wait(task.task_id)
            if outcome.quarantined:
                # Every worker that picked this cube up died: the class
                # cannot be completed; degrade it whole to an inconclusive
                # error result (other pending cube outcomes are abandoned).
                return quarantined_class_result(
                    plan.name,
                    plan.config,
                    split.index,
                    kind=split.kind,
                    property_name=split.property_name,
                    commitments=split.commitments,
                )
            if outcome.skipped or not outcome.results:
                raise ReproError(
                    f"cube task for class {split.index} of {plan.name!r} "
                    f"returned no verdict"
                )
            consume_stats(outcome, chunk_stats)
            verdict = outcome.results[0]
            verdicts.append(verdict)
            if plan.cache is not None and key is not None:
                plan.cache.put(key, cube_verdict_to_record(verdict))
        cached_hits = sum(1 for verdict in verdicts if verdict.from_cache)
        if any(verdict.sat for verdict in verdicts):
            # Some cube holds a counterexample.  The witness the report
            # carries must be the canonical one, so the class re-settles
            # monolithically (unbudgeted) exactly like a failing class does
            # in a no-split run.
            task = ChunkTask(
                task_id=next_task_id,
                design_key=plan.key,
                indices=(split.index,),
                stop_on_failure=False,
                allow_split=False,
            )
            next_task_id += 1
            executor.submit([task], urgent=True)
            outcome = executor.wait(task.task_id)
            if outcome.quarantined:
                return quarantined_class_result(
                    plan.name,
                    plan.config,
                    split.index,
                    kind=split.kind,
                    property_name=split.property_name,
                    commitments=split.commitments,
                )
            consume_stats(outcome, chunk_stats)
            result = next(
                (
                    entry
                    for entry in outcome.results
                    if isinstance(entry, ClassResult) and entry.index == split.index
                ),
                None,
            )
            if result is None:
                raise ReproError(
                    f"re-settle of split class {split.index} of {plan.name!r} "
                    f"returned no result"
                )
        else:
            # The cubes partition the full assignment space over the chosen
            # split bits, so all-UNSAT is a proof of the class.  The
            # template's deterministic fields match what a monolithic UNSAT
            # would have reported (they are fixed before preprocessing).
            result = ClassResult(
                design=plan.name,
                index=split.index,
                kind=split.kind,
                property_name=split.property_name,
                commitments=split.commitments,
                terminal="proven",
                outcome=outcome_from_dict(dict(split.outcome_template)),
            )
        result.outcome.cubes = len(split.cubes)
        result.outcome.cubes_cached = cached_hits
        return result

    for plan in plans:
        started = _time.perf_counter()
        yield RunStarted(
            design=plan.name,
            scheduled_classes=plan.depth,
            solver_backend=plan.backend_name,
            workers=workers,
        )
        index_to_task = {
            index: task for task in plan.tasks for index in task.indices
        }
        merged: List[ClassResult] = []
        chunk_stats: List[ChunkOutcome] = []
        outcomes_by_task: Dict[int, ChunkOutcome] = {}
        for index in range(plan.depth):
            result: Optional[ClassResult] = None
            if index in plan.replays:
                result = plan.replays[index]
            elif index in plan.presplit:
                result = reduce_split(plan, plan.presplit[index], chunk_stats)
            elif index in index_to_task:
                task = index_to_task[index]
                if task.task_id not in outcomes_by_task:
                    outcome = executor.wait(task.task_id)
                    outcomes_by_task[task.task_id] = outcome
                    consume_stats(outcome, chunk_stats)
                outcome = outcomes_by_task[task.task_id]
                entry = next(
                    (entry for entry in outcome.results if entry.index == index), None
                )
                if entry is None and outcome.quarantined:
                    result = quarantined_class_result(plan.name, plan.config, index)
                elif isinstance(entry, SplitResult):
                    if plan.cache is not None:
                        plan.cache.put(
                            split_cache_key(plan.module_fp, plan.config_fp, index),
                            split_result_to_record(entry),
                        )
                    result = reduce_split(plan, entry, chunk_stats)
                else:
                    result = entry
            if result is None:
                # Neither cached nor scheduled: scheduling ended at an
                # earlier (cached) failure, or a shard stopped after one.
                break
            merged.append(result)
            for event in result.events():
                yield event
            if not result.outcome.holds and plan.config.stop_at_first_failure:
                executor.cancel_design(plan.key)
                break
        elapsed = _time.perf_counter() - started
        report = plan.assemble_report(merged, chunk_stats, workers, elapsed)
        # Fault accounting is executor-global (a pooled batch cannot
        # attribute a worker death to one design), so every report of the
        # run carries the run-level totals; normalization strips them.
        report.workers_lost = executor.workers_lost
        report.tasks_retried = executor.tasks_retried
        plan.write_back(merged)
        yield RunFinished(
            design=plan.name, report=report, elapsed_s=report.total_runtime_seconds
        )
