"""Tests for the parallel execution subsystem: executors, sharding, merging.

The headline contract: for any worker count, an audit produces the same
semantic report — verdict, outcome sequence, counterexamples for the same
failing class, coverage — as the serial run; only wall-clock timing and
solver/executor telemetry (which legitimately depend on how classes were
sharded over solver contexts) may differ, and those are exactly the fields
``normalized_report_dict`` strips.
"""

import gc
import weakref

import pytest
from hypothesis import given, strategies as st

from repro.api import (
    BatchReport,
    BatchSession,
    Design,
    DetectionConfig,
    DetectionSession,
    RunFinished,
    RunStarted,
)
from repro.core.events import ClassProven, PropertyScheduled
from repro.core.report import DetectionReport, Verdict
from repro.errors import ReproError
from repro.exec import (
    ChunkTask,
    ProcessPoolExecutor,
    SerialExecutor,
    WorkUnit,
    normalized_batch_report_dict,
    normalized_report_dict,
    shard_indices,
)
from repro.rtl import elaborate_source

CLEAN_SOURCE = """
module widget(input clk, input [7:0] d, output [7:0] q);
  reg [7:0] s1;
  reg [7:0] s2;
  reg [7:0] s3;
  always @(posedge clk) begin
    s1 <= d ^ 8'h5a;
    s2 <= s1 + 8'h01;
    s3 <= s2 ^ 8'hc3;
  end
  assign q = s3;
endmodule
"""

TROJANED_SOURCE = """
module widget(input clk, input [7:0] d, output [7:0] q);
  reg [7:0] stage;
  reg [3:0] bomb;
  always @(posedge clk) begin
    stage <= d + 8'h1;
    bomb <= bomb + 4'h1;
  end
  assign q = (bomb == 4'hf) ? ~stage : stage;
endmodule
"""

# A Trojan random simulation misses (one value of a 32-bit counter), behind
# an init class whose adder identity only SAT proves: the init class builds
# the engine's AIG, so the failing class is re-settled canonically on a
# fresh engine, with a CDCL search of its own.
SAT_TROJANED_SOURCE = """
module widget(input clk, input [7:0] d, output [7:0] q);
  reg [7:0] s1;
  reg [7:0] pad;
  reg [7:0] s2;
  reg [31:0] bomb;
  always @(posedge clk) begin
    s1 <= d ^ 8'h5a;
    pad <= (d + pad) - pad;
    s2 <= s1 + pad;
    bomb <= bomb + 32'h1;
  end
  assign q = (bomb == 32'hdeadbeef) ? ~s2 : s2;
endmodule
"""


class TestSharding:
    def test_serial_shards_per_class(self):
        assert shard_indices([0, 1, 2, 3], jobs=1) == [(0,), (1,), (2,), (3,)]

    def test_parallel_shards_cover_exactly_the_input(self):
        indices = list(range(23))
        shards = shard_indices(indices, jobs=4)
        flattened = [index for shard in shards for index in shard]
        assert flattened == indices
        assert len(shards) >= 4  # enough shards for stealing

    def test_shards_never_span_a_cached_gap(self):
        shards = shard_indices([0, 1, 3, 4, 5], jobs=1)
        assert (2,) not in shards
        for shard in shard_indices([0, 1, 3, 4, 5], jobs=2):
            assert list(shard) == sorted(shard)
            assert 2 not in shard

    def test_empty(self):
        assert shard_indices([], jobs=4) == []


class TestShardingProperties:
    """Hypothesis-driven invariants of shard_indices over arbitrary index
    sets (the survivors of a cache lookup — any subset of 0..n with gaps
    wherever a class was already settled) and worker counts."""

    indices = st.lists(
        st.integers(min_value=0, max_value=200), max_size=60, unique=True
    )
    jobs = st.integers(min_value=1, max_value=9)

    @given(indices=indices, jobs=jobs)
    def test_shards_partition_the_uncached_indices_exactly(self, indices, jobs):
        shards = shard_indices(indices, jobs)
        flattened = [index for shard in shards for index in shard]
        # Exact partition: every miss appears exactly once, in class order,
        # so the merge loop can wait on shards in submission order.
        assert flattened == sorted(indices)

    @given(indices=indices, jobs=jobs)
    def test_shards_are_contiguous_runs_of_misses(self, indices, jobs):
        # A shard never spans a cached gap: each one is a contiguous index
        # run, so a worker's incremental solver context only ever extends
        # the same assumption prefix.
        present = set(indices)
        for shard in shard_indices(indices, jobs):
            assert list(shard) == list(range(shard[0], shard[-1] + 1))
            assert present.issuperset(shard)

    @given(indices=indices, jobs=jobs)
    def test_shard_sizes_respect_the_jobs_derived_bound(self, indices, jobs):
        shards = shard_indices(indices, jobs)
        if jobs <= 1:
            # Serial execution maximizes streaming laziness: one class per
            # shard, no look-ahead solving before the consumer asks.
            assert all(len(shard) == 1 for shard in shards)
        elif shards:
            # Parallel shards aim for ~4 shards per worker; the ceil-divided
            # chunk size bounds every shard, keeping steal granularity fine
            # enough that no worker hoards a quarter of the run.
            bound = -(-len(indices) // max(1, jobs * 4))
            assert max(len(shard) for shard in shards) <= bound

    @given(indices=indices, jobs=jobs, max_shards=st.integers(1, 12))
    def test_explicit_max_shards_budget_is_honoured(self, indices, jobs, max_shards):
        if jobs <= 1:
            return  # the serial path ignores the budget (one class each)
        shards = shard_indices(indices, jobs, max_shards=max_shards)
        if shards:
            bound = -(-len(indices) // max_shards)
            assert max(len(shard) for shard in shards) <= bound


def _unit(source=CLEAN_SOURCE, **config_overrides):
    module = elaborate_source(source, "widget")
    return WorkUnit(
        key="k0",
        name="widget",
        module=module,
        config=DetectionConfig(**config_overrides),
    )


class TestExecutors:
    def test_serial_executor_yields_in_task_order(self):
        unit = _unit()
        executor = SerialExecutor({unit.key: unit})
        tasks = [
            ChunkTask(task_id=0, design_key="k0", indices=(0,), stop_on_failure=True),
            ChunkTask(task_id=1, design_key="k0", indices=(1, 2), stop_on_failure=True),
        ]
        executor.submit(tasks)
        outcomes = [executor.wait(task.task_id) for task in tasks]
        assert [outcome.task_id for outcome in outcomes] == [0, 1]
        assert [result.index for result in outcomes[1].results] == [1, 2]
        assert all(result.outcome.holds for o in outcomes for result in o.results)

    def test_serial_executor_is_freed_without_cyclic_collection(self):
        # Its context factory must not reference it: the executor holds its
        # seeds (and through them a flow and its engine) for as long as it
        # lives.
        unit = _unit()
        gc.collect()
        gc.disable()
        try:
            executor = SerialExecutor({unit.key: unit})
            executor.submit([ChunkTask(0, unit.key, (0,), stop_on_failure=True)])
            executor.wait(0)
            executor.close()
            alive = weakref.ref(executor)
            del executor
            assert alive() is None
        finally:
            gc.enable()

    def test_reported_workers_never_exceed_shard_count(self):
        # A 3-class design yields few shards; asking for 16 workers must not
        # make the report claim parallelism that never existed.
        report = _session_report(CLEAN_SOURCE, jobs=16)
        assert 1 <= report.workers <= 16
        assert report.workers <= len(report.outcomes) * 2  # bounded by shards

    def test_serial_executor_holds_only_the_last_designs_context(self):
        units = {}
        tasks = []
        for position in range(3):
            module = elaborate_source(CLEAN_SOURCE, "widget")
            key = f"k{position}"
            units[key] = WorkUnit(
                key=key, name=f"widget-{position}", module=module,
                config=DetectionConfig(),
            )
            tasks.append(
                ChunkTask(task_id=position, design_key=key, indices=(0,),
                          stop_on_failure=True)
            )
        executor = SerialExecutor(units)
        executor.submit(tasks)
        outcomes = [executor.wait(task.task_id) for task in tasks]
        assert len(outcomes) == len(tasks)
        assert executor._context.unit is units["k2"]
        # A task of a design the executor has left gets a fresh context.
        last = executor._context
        executor.submit([ChunkTask(task_id=3, design_key="k0", indices=(0,),
                                   stop_on_failure=True)])
        executor.wait(3)
        assert executor._context.unit is units["k0"]
        assert executor._context is not last

    def test_serial_executor_cancel_design_skips_pending_tasks(self):
        unit = _unit()
        executor = SerialExecutor({unit.key: unit})
        tasks = [
            ChunkTask(task_id=0, design_key="k0", indices=(0,), stop_on_failure=True),
            ChunkTask(task_id=1, design_key="k0", indices=(1,), stop_on_failure=True),
        ]
        executor.submit(tasks)
        first = executor.wait(0)
        assert not first.skipped
        executor.cancel_design("k0")
        second = executor.wait(1)
        assert second.skipped and second.results == []

    def test_pool_executor_settles_chunks_on_workers(self):
        unit = _unit()
        executor = ProcessPoolExecutor({unit.key: unit}, jobs=2)
        tasks = [
            ChunkTask(task_id=0, design_key="k0", indices=(0,), stop_on_failure=True),
            ChunkTask(task_id=1, design_key="k0", indices=(1,), stop_on_failure=True),
            ChunkTask(task_id=2, design_key="k0", indices=(2,), stop_on_failure=True),
        ]
        executor.submit(tasks)
        try:
            outcomes = [executor.wait(task.task_id) for task in tasks]
        finally:
            executor.close()
        assert [outcome.task_id for outcome in outcomes] == [0, 1, 2]
        assert all(result.outcome.holds for o in outcomes for result in o.results)
        workers = {outcome.worker for outcome in outcomes}
        assert workers <= {"worker-0", "worker-1"}

    def test_pool_executor_propagates_worker_failures(self):
        # An unknown traced input only explodes inside the worker's fanout
        # analysis; the parent must fail loudly with the worker traceback.
        unit = _unit(inputs=["no_such_signal"])
        executor = ProcessPoolExecutor({unit.key: unit}, jobs=2)
        task = ChunkTask(task_id=0, design_key="k0", indices=(0,), stop_on_failure=True)
        executor.submit([task])
        try:
            with pytest.raises(ReproError, match="worker"):
                executor.wait(task.task_id)
        finally:
            executor.close()

    def test_pool_executor_rejects_serial_job_counts(self):
        unit = _unit()
        with pytest.raises(ReproError):
            ProcessPoolExecutor({unit.key: unit}, jobs=1)


def _session_report(source, **overrides):
    design = Design.from_source(source, top="widget")
    return DetectionSession(design, config=DetectionConfig(**overrides)).run()


class TestParallelDeterminism:
    def test_clean_design_reports_match_serial_modulo_telemetry(self):
        serial = _session_report(CLEAN_SOURCE, jobs=1)
        parallel = _session_report(CLEAN_SOURCE, jobs=2)
        assert parallel.workers == 2
        assert normalized_report_dict(parallel.to_dict()) == normalized_report_dict(
            serial.to_dict()
        )

    def test_trojaned_design_fails_identically(self):
        # Counterexamples are canonicalized on a fresh context, so even the
        # failing class's cex values are identical for any worker count.
        serial = _session_report(TROJANED_SOURCE, jobs=1)
        parallel = _session_report(TROJANED_SOURCE, jobs=2)
        assert parallel.verdict is Verdict.TROJAN_SUSPECTED
        assert parallel.detected_by == serial.detected_by
        assert parallel.counterexample is not None
        assert parallel.counterexample.values == serial.counterexample.values
        assert parallel.diagnosis is not None
        assert normalized_report_dict(parallel.to_dict()) == normalized_report_dict(
            serial.to_dict()
        )

    def test_solver_telemetry_covers_canonical_reproof(self):
        # The canonical fresh-context re-settle of a failing class is real
        # solver work; the report-level counters must include it, so they
        # are never smaller than what the per-outcome results claim.
        report = _session_report(SAT_TROJANED_SOURCE, jobs=1)
        assert report.trojan_detected
        # The failing class's *outcome* is the canonical witness settle, but
        # the run-level counters also cover the fast path's search.
        per_outcome = sum(o.result.solver_calls for o in report.outcomes)
        assert report.solver_calls >= per_outcome
        assert report.solver_calls > 0

    def test_check_all_settles_every_class_in_parallel(self):
        serial = _session_report(TROJANED_SOURCE, jobs=1, stop_at_first_failure=False)
        parallel = _session_report(TROJANED_SOURCE, jobs=2, stop_at_first_failure=False)
        assert len(parallel.outcomes) == len(serial.outcomes)
        assert [outcome.holds for outcome in parallel.outcomes] == [
            outcome.holds for outcome in serial.outcomes
        ]
        assert parallel.coverage is not None


class TestParallelEventStream:
    def test_events_arrive_in_class_order_with_timing(self):
        design = Design.from_source(CLEAN_SOURCE, top="widget")
        session = DetectionSession(design, config=DetectionConfig(jobs=2))
        events = list(session.iter_results())
        assert isinstance(events[0], RunStarted) and events[0].workers == 2
        assert isinstance(events[-1], RunFinished)
        assert events[-1].elapsed_s > 0
        assert events[-1].elapsed_s == events[-1].report.total_runtime_seconds
        scheduled = [event for event in events if isinstance(event, PropertyScheduled)]
        assert [event.index for event in scheduled] == list(
            range(events[0].scheduled_classes)
        )
        for event in events:
            if isinstance(event, ClassProven):
                assert event.solve_s >= 0

    def test_serial_run_finished_carries_elapsed(self):
        design = Design.from_source(CLEAN_SOURCE, top="widget")
        session = DetectionSession(design)
        events = list(session.iter_results())
        assert isinstance(events[-1], RunFinished) and events[-1].elapsed_s > 0


class TestShardedBatch:
    def test_batch_shards_designs_over_one_pool(self):
        clean = elaborate_source(CLEAN_SOURCE, "widget")
        trojaned = elaborate_source(TROJANED_SOURCE, "widget")
        serial = BatchSession([clean, trojaned]).run()
        batch = BatchSession([clean, trojaned], config=DetectionConfig(jobs=2))
        started = []
        batch.subscribe(started.append, RunStarted)
        report = batch.run()
        assert report.workers == 2
        assert [event.workers for event in started] == [2, 2]
        # Reports come back in queue order with the same verdicts.
        assert [entry.design for entry in report.reports] == [
            entry.design for entry in serial.reports
        ]
        assert [entry.verdict for entry in report.reports] == [
            entry.verdict for entry in serial.reports
        ]
        assert report.flagged_designs() == serial.flagged_designs()

    def test_batch_report_round_trips_workers(self):
        batch = BatchSession([elaborate_source(CLEAN_SOURCE, "widget")],
                             config=DetectionConfig(jobs=2))
        report = batch.run()
        restored = BatchReport.from_json(report.to_json())
        assert restored.workers == 2
        assert restored.to_dict() == report.to_dict()

    def test_normalized_batch_reports_match_serial(self):
        clean = elaborate_source(CLEAN_SOURCE, "widget")
        serial = BatchSession([clean]).run()
        parallel = BatchSession([clean], config=DetectionConfig(jobs=2)).run()
        assert normalized_batch_report_dict(
            parallel.to_dict()
        ) == normalized_batch_report_dict(serial.to_dict())


class TestBatchAggregationOrderIndependence:
    """Regression: aggregates must sum per-design snapshots, never depend on
    the order runs completed in (parallel batches finish out of order)."""

    def _reports(self):
        a = DetectionReport(design="a", verdict=Verdict.SECURE,
                            solver_calls=3, solver_conflicts=5, cnf_clauses=100)
        a.cache_hits, a.cache_misses = 2, 1
        b = DetectionReport(design="b", verdict=Verdict.SECURE,
                            solver_calls=7, solver_conflicts=1, cnf_clauses=40)
        b.cache_hits, b.cache_misses = 0, 4
        return a, b

    def test_solver_and_cache_stats_are_order_independent(self):
        a, b = self._reports()
        forward = BatchReport(reports=[a, b])
        backward = BatchReport(reports=[b, a])
        assert forward.solver_stats() == backward.solver_stats()
        assert forward.solver_stats()["solver_calls"] == 10
        assert forward.cache_stats() == backward.cache_stats()
        assert forward.cache_stats() == {"cache_hits": 2, "cache_misses": 5}

    def test_report_for_finds_designs_in_any_order(self):
        a, b = self._reports()
        backward = BatchReport(reports=[b, a])
        assert backward.report_for("a").solver_calls == 3
        assert backward.report_for("b").solver_calls == 7
