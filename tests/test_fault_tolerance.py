"""Fault-tolerance tests: fault injection, worker supervision, deadlines.

Every failure path here is driven by the deterministic fault harness
(:mod:`repro.exec.faults`) rather than by staging real crashes: a pool
worker SIGKILLs itself on a planned task, the cache feigns a torn entry,
and the solver stalls past its wall-clock deadline — so the degradation
machinery (retry → quarantine, timeout outcomes, corrupt-entry misses)
runs for real in every CI run.
"""

import multiprocessing
import os
from pathlib import Path

import pytest

from repro.api import Design, DetectionConfig, DetectionSession
from repro.core.report import Verdict
from repro.errors import ConfigError, ReproError
from repro.exec import faults
from repro.exec.cache import ResultCache
from repro.exec.executor import ChunkTask, ProcessPoolExecutor
from repro.exec.faults import FAULTS_ENV, FaultPlan, FaultSpec, parse_fault_plan
from repro.exec.records import normalized_report_dict
from repro.sat.solver import SatSolver

#: The SAT-heavy fixture: its fanout class 1 needs fraig proofs and CDCL.
CUBE_WIDGET = Path(__file__).resolve().parent.parent / "benchmarks" / "cube_widget.v"

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

# The init property of this design must prove that ``(d + pad) - pad``
# cancels — an arithmetic identity the AIG's structural hashing cannot
# fold — so class 0 reaches the SAT solver even on a secure run: fraig's
# bounded proofs sweep its miter, then the class's own CDCL call settles
# it.  That call is the target for the solver_stall fault: the stalled call
# is a *real* check, not an artifact of the harness.
STALL_SOURCE = """
module widget(input clk, input [7:0] d, output [7:0] q);
  reg [7:0] s1;
  reg [7:0] s2;
  reg [7:0] pad;
  always @(posedge clk) begin
    s1 <= d ^ 8'h5a;
    pad <= (d + pad) - pad;
    s2 <= s1 + pad;
  end
  assign q = s2;
endmodule
"""

# The sequential mode's golden model of STALL_SOURCE: ``pad`` takes ``d``
# directly, so the bounded equivalence check must prove the same identity
# with a real SAT call.
STALL_GOLDEN_SOURCE = """
module widget_golden(input clk, input [7:0] d, output [7:0] q);
  reg [7:0] s1;
  reg [7:0] s2;
  reg [7:0] pad;
  always @(posedge clk) begin
    s1 <= d ^ 8'h5a;
    pad <= d;
    s2 <= s1 + pad;
  end
  assign q = s2;
endmodule
"""


@pytest.fixture(autouse=True)
def _pristine_fault_plan(monkeypatch):
    """Each test starts (and leaves the process) with no fault plan."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    faults.set_plan(None)
    yield
    faults.set_plan(None)


@pytest.fixture()
def solve_deadlines(monkeypatch):
    """The ``deadline_s`` of every ``SatSolver.solve`` call a test makes."""
    deadlines = []
    solve = SatSolver.solve

    def recording_solve(solver, *args, **kwargs):
        deadlines.append(kwargs.get("deadline_s"))
        return solve(solver, *args, **kwargs)

    monkeypatch.setattr(SatSolver, "solve", recording_solve)
    return deadlines


def _run(source=CLEAN_SOURCE, **overrides):
    design = Design.from_source(source, top="widget")
    return DetectionSession(design, config=DetectionConfig(**overrides)).run()


def _run_sequential(**overrides):
    design = Design.from_source(
        STALL_SOURCE, top="widget", golden_top="widget_golden",
        golden_source=STALL_GOLDEN_SOURCE,
    )
    config = DetectionConfig(mode="sequential", depth=3, **overrides)
    return DetectionSession(design, config=config).run()


def _stall_own_check(clean_report) -> FaultPlan:
    """A plan that stalls the stall class's own CDCL call.

    Fraig's bounded proofs run on the same solver first and count as
    ``solver_stall@check:N`` occurrences too.  The class's own call is the
    last SAT call of the design's clean run.
    """
    return parse_fault_plan(f"solver_stall@check:{clean_report.solver_calls}")


# ---------------------------------------------------------------------- #
# The fault plan itself
# ---------------------------------------------------------------------- #


class TestFaultPlanParsing:
    def test_parses_the_documented_example(self):
        plan = parse_fault_plan(
            "worker_kill@task:2,cache_corrupt@class:1,solver_stall@check:3"
        )
        assert plan.specs == (
            FaultSpec(kind="worker_kill", scope="task", nth=2),
            FaultSpec(kind="cache_corrupt", scope="class", nth=1),
            FaultSpec(kind="solver_stall", scope="check", nth=3),
        )
        assert bool(plan)

    def test_empty_entries_and_whitespace_are_tolerated(self):
        plan = parse_fault_plan(" worker_kill@task:1 , , ")
        assert len(plan.specs) == 1

    @pytest.mark.parametrize(
        "text, match",
        [
            ("worker_kill", "malformed fault spec"),
            ("worker_kill:2", "malformed fault spec"),
            ("worker_kill@task", "malformed fault spec"),
            ("meteor_strike@task:1", "unknown fault kind"),
            ("worker_kill@check:1", "counted per 'task'"),
            ("worker_kill@task:0", "1-based"),
            ("worker_kill@task:x", "1-based"),
        ],
    )
    def test_malformed_specs_fail_loudly(self, text, match):
        # A typoed chaos plan must abort the run, never inject nothing.
        with pytest.raises(ReproError, match=match):
            parse_fault_plan(text)

    def test_fire_counts_occurrences_per_kind(self):
        plan = parse_fault_plan("solver_stall@check:2,solver_stall@check:4")
        fired = [plan.fire("solver_stall") for _ in range(5)]
        assert fired == [False, True, False, True, False]
        # Kinds outside the plan never fire and never consume a count.
        assert not plan.fire("worker_kill")

    def test_plan_resolves_lazily_from_the_environment(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "cache_corrupt@class:1")
        faults.set_plan(None)  # force the next seam to re-read the env
        assert faults.fire("cache_corrupt")
        assert not faults.fire("cache_corrupt")  # nth=1 fires exactly once

    def test_empty_environment_means_no_faults(self):
        assert isinstance(faults.active_plan(), FaultPlan)
        assert not faults.active_plan()
        assert not faults.fire("worker_kill")


# ---------------------------------------------------------------------- #
# Worker supervision: retry, quarantine, no zombies
# ---------------------------------------------------------------------- #


class TestWorkerSupervision:
    def test_killed_worker_is_retried_and_report_matches_serial(self, monkeypatch):
        baseline = _run(jobs=1)
        # Each forked worker SIGKILLs itself when it picks up its second
        # task.  A requeued task can be stolen by an idle veteran (killing
        # it too), but every steal removes the stealer for good, so a modest
        # retry budget guarantees a fresh worker finishes the task.
        # task_retries is execution-only: it must not disturb the
        # normalized-report comparison below.
        monkeypatch.setenv(FAULTS_ENV, "worker_kill@task:2")
        faults.set_plan(None)
        faulted = _run(jobs=2, task_retries=5)
        assert faulted.workers_lost >= 1
        assert faulted.tasks_retried >= 1
        assert faulted.verdict is Verdict.SECURE
        # The headline robustness contract: a crashed-and-retried run is
        # byte-identical to the serial run once volatile telemetry is gone.
        assert normalized_report_dict(faulted.to_dict()) == normalized_report_dict(
            baseline.to_dict()
        )

    def test_exhausted_retry_budget_quarantines_instead_of_aborting(
        self, monkeypatch
    ):
        # Every worker dies on its *first* task and the budget allows no
        # retries, so every class ends quarantined — the run must still
        # complete, fail-closed, rather than raise.
        monkeypatch.setenv(FAULTS_ENV, "worker_kill@task:1")
        faults.set_plan(None)
        report = _run(jobs=2, task_retries=0)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.workers_lost >= len(report.outcomes)
        assert report.tasks_retried == 0
        assert all(outcome.status == "error" for outcome in report.outcomes)
        # Fail-closed: an error outcome never masquerades as a detection.
        assert all(outcome.holds for outcome in report.outcomes)
        assert "error" in report.summary()

    def test_retry_histories_never_leak_into_normalized_reports(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "worker_kill@task:2")
        faults.set_plan(None)
        faulted = _run(jobs=2, task_retries=5)
        data = normalized_report_dict(faulted.to_dict())
        assert "execution" not in data

    def test_close_leaves_no_zombie_children(self):
        from repro.rtl import elaborate_source
        from repro.exec import WorkUnit

        module = elaborate_source(CLEAN_SOURCE, "widget")
        unit = WorkUnit(
            key="k0", name="widget", module=module, config=DetectionConfig()
        )
        executor = ProcessPoolExecutor({unit.key: unit}, jobs=2)
        tasks = [
            ChunkTask(task_id=i, design_key="k0", indices=(i,), stop_on_failure=True)
            for i in range(3)
        ]
        executor.submit(tasks)
        for task in tasks:
            executor.wait(task.task_id)
        executor.close()
        executor.close()  # idempotent
        leftovers = [
            child
            for child in multiprocessing.active_children()
            if child.name.startswith("worker-") and child.is_alive()
        ]
        assert leftovers == []


# ---------------------------------------------------------------------- #
# Check deadlines
# ---------------------------------------------------------------------- #


class TestCheckDeadline:
    def test_stalled_check_degrades_to_timeout_outcome(self):
        # The init class's CDCL call stalls past the deadline; the class
        # must settle as an inconclusive timeout while the rest of the run
        # completes normally.
        faults.set_plan(_stall_own_check(_run(source=STALL_SOURCE, jobs=1)))
        report = _run(source=STALL_SOURCE, jobs=1, check_timeout_s=2.0)
        assert report.verdict is Verdict.INCONCLUSIVE
        statuses = [outcome.status for outcome in report.outcomes]
        assert statuses[0] == "timeout"
        assert all(status == "ok" for status in statuses[1:])
        timed_out = report.outcomes[0]
        assert timed_out.holds  # fail-closed, never a detection
        assert timed_out.result.runtime_seconds > 0
        assert "timeout" in report.summary()

    def test_untimed_runs_are_unaffected_by_a_bounded_stall(self):
        # Without check_timeout_s the stall seam is bounded: the run is
        # slower but semantically untouched.
        plain = _run(source=STALL_SOURCE, jobs=1)
        faults.set_plan(_stall_own_check(plain))
        stalled = _run(source=STALL_SOURCE, jobs=1)
        assert normalized_report_dict(stalled.to_dict()) == normalized_report_dict(
            plain.to_dict()
        )

    def test_the_deadline_bounds_preprocessing_proofs(self, solve_deadlines):
        # cube_widget's class 1 opens with fraig's bounded equivalence
        # proofs.  Stalling the first of them must time the class out at
        # once, not after the whole sweep and the class's own CDCL call.
        faults.set_plan(parse_fault_plan("solver_stall@check:1"))
        design = Design.from_file(str(CUBE_WIDGET), top="cube_widget")
        report = DetectionSession(
            design, config=DetectionConfig(check_timeout_s=0.1)
        ).run()
        statuses = [outcome.status for outcome in report.outcomes]
        assert statuses == ["ok", "timeout", "ok", "ok", "ok"]
        assert len(solve_deadlines) == 1 and solve_deadlines[0] is not None

    def test_the_deadline_bounds_sequential_preprocessing_proofs(self, solve_deadlines):
        faults.set_plan(parse_fault_plan("solver_stall@check:1"))
        report = _run_sequential(check_timeout_s=1.0)
        [timed_out] = report.outcomes
        assert timed_out.status == "timeout"
        assert len(solve_deadlines) == 1 and solve_deadlines[0] is not None

    def test_timeout_outcomes_are_never_cached(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        faults.set_plan(_stall_own_check(_run(source=STALL_SOURCE, jobs=1)))
        first = _run(
            source=STALL_SOURCE, jobs=1, check_timeout_s=2.0,
            cache_dir=cache_dir, use_cache=True,
        )
        assert first.verdict is Verdict.INCONCLUSIVE
        # Re-run against the same cache with no faults: had the timeout
        # been written back, this run would replay it and stay inconclusive.
        faults.set_plan(FaultPlan())
        second = _run(
            source=STALL_SOURCE, jobs=1, check_timeout_s=2.0,
            cache_dir=cache_dir, use_cache=True,
        )
        assert second.verdict is Verdict.SECURE
        assert all(outcome.status == "ok" for outcome in second.outcomes)

    def test_stalled_sequential_check_degrades_to_timeout_outcome(self):
        # The deadline reaches the unroller's SAT call, not only the call
        # boundary before it.
        faults.set_plan(_stall_own_check(_run_sequential()))
        report = _run_sequential(check_timeout_s=1.0)
        assert report.verdict is Verdict.INCONCLUSIVE
        [timed_out] = report.outcomes
        assert timed_out.kind == "sequential"
        assert timed_out.status == "timeout"
        assert timed_out.holds  # fail-closed, never a detection
        assert "timeout" in report.summary()

    def test_sequential_timeout_outcomes_are_never_cached(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        faults.set_plan(_stall_own_check(_run_sequential()))
        first = _run_sequential(check_timeout_s=1.0, cache_dir=cache_dir)
        assert first.verdict is Verdict.INCONCLUSIVE
        faults.set_plan(FaultPlan())
        second = _run_sequential(check_timeout_s=1.0, cache_dir=cache_dir)
        assert second.verdict is Verdict.SECURE
        assert second.outcomes[0].status == "ok"
        assert second.outcomes[0].result.solver_calls == 1


# ---------------------------------------------------------------------- #
# Cache corruption
# ---------------------------------------------------------------------- #


class TestCacheCorruptFault:
    def test_planned_corruption_counts_as_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "ab" * 32
        cache.put(key, {"value": 1})
        faults.set_plan(parse_fault_plan("cache_corrupt@class:1"))
        assert cache.get(key) is None
        assert cache.corrupt_skipped == 1
        # Only the planned occurrence faults; the entry itself is intact.
        assert cache.get(key) == {"value": 1}


# ---------------------------------------------------------------------- #
# Config validation of the new knobs
# ---------------------------------------------------------------------- #


class TestFaultToleranceConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(task_retries=-1),
            dict(task_retries=1.5),
            dict(task_retries=True),
            dict(check_timeout_s=0),
            dict(check_timeout_s=-2.0),
            dict(check_timeout_s=True),
            dict(check_timeout_s="fast"),
        ],
    )
    def test_invalid_knobs_fail_at_construction(self, kwargs):
        with pytest.raises(ConfigError):
            DetectionConfig(**kwargs)

    def test_valid_knobs_round_trip(self):
        config = DetectionConfig(task_retries=0, check_timeout_s=2.5)
        restored = DetectionConfig.from_dict(config.to_dict())
        assert restored.task_retries == 0
        assert restored.check_timeout_s == 2.5
