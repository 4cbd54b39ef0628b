"""Executors: where chunk tasks run — inline, or on a worker-process pool.

An :class:`Executor` consumes :class:`ChunkTask` shards (one design key plus
a tuple of property-class indices) and yields one :class:`ChunkOutcome` per
task **in submission order**, regardless of completion order.  That ordering
contract is what lets the scheduler merge events and assemble reports
deterministically while the underlying execution is free to be as
out-of-order as the hardware allows.

* :class:`SerialExecutor` runs each task inline when the consumer pulls it —
  the lazy, streaming behaviour of the classic single-process flow.
* :class:`ProcessPoolExecutor` runs tasks on ``--jobs`` forked worker
  processes pulling from one shared queue.  The shared queue *is* the
  work-stealing mechanism: an idle worker steals the next pending shard no
  matter which design it belongs to.  Tasks leave the queue in submission
  order, which is design-major, so each worker holds the one
  :class:`DesignWorkContext` of the design it is settling: its
  ``IpcEngine`` / ``SolverContext`` keep their clause reuse across the
  design's shards, and the worker drops them when it moves on.  A retried
  task of an earlier design gets a fresh context; the determinism contract
  makes its results identical.  Results travel back as JSON-native
  records (:mod:`repro.exec.records`).

``cancel_design`` makes abandoning a design cheap after a failing class:
tasks not yet handed out are dropped (serial: skipped inline; pool: never
enqueued thanks to the bounded feeder).
"""

from __future__ import annotations

import multiprocessing
import os
import queue as _queue
import signal
import sys
import traceback
import warnings
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.exec import faults as _faults
from repro.exec.records import (
    ClassResult,
    class_result_from_record,
    class_result_to_record,
)
from repro.exec.worker import DesignWorkContext, WorkUnit


@dataclass(frozen=True)
class ChunkTask:
    """One schedulable shard: a run of property classes of one design."""

    task_id: int
    design_key: str
    indices: Tuple[int, ...]
    stop_on_failure: bool


@dataclass
class ChunkOutcome:
    """The settled results of one task plus solver-work accounting."""

    task_id: int
    design_key: str
    results: List[ClassResult]
    stats: Dict[str, object]
    worker: str
    skipped: bool = False
    #: True when the task's worker died repeatedly and the retry budget ran
    #: out: ``results`` is empty and the scheduler settles the task's classes
    #: as inconclusive ``error`` outcomes instead of aborting the run.
    quarantined: bool = False


def _context_for(
    context: Optional[DesignWorkContext], units: Dict[str, WorkUnit], design_key: str
) -> DesignWorkContext:
    """The work context settling ``design_key``.

    ``context`` itself when it already settles that design, else a fresh
    one: a serial executor or pool worker holds one context at a time, and
    the caller's reassignment drops the previous design's engine.
    """
    if context is None or context.unit.key != design_key:
        context = DesignWorkContext(units[design_key])
    return context


class Executor(ABC):
    """Runs chunk tasks; yields outcomes in submission order."""

    #: Worker processes that died mid-run (pool executors count these; the
    #: serial executor cannot lose a worker).  Reports carry both counters
    #: in their ``execution`` block.
    workers_lost: int = 0
    #: Tasks requeued onto a respawned worker after their worker died.
    tasks_retried: int = 0

    @property
    @abstractmethod
    def workers(self) -> int:
        """Configured parallelism (the sizing intent, e.g. for shard budgets)."""

    def effective_workers(self, task_count: int) -> int:
        """Workers that will actually run ``task_count`` tasks.

        What reports should carry: a pool never forks more processes than
        there are tasks, and a fully cache-warm run forks none at all.
        """
        return self.workers

    @abstractmethod
    def submit(self, tasks: Sequence[ChunkTask]) -> None:
        """Enqueue tasks; they run when capacity (or a ``wait``) demands it."""

    @abstractmethod
    def wait(self, task_id: int) -> ChunkOutcome:
        """Block until the submitted task ``task_id`` finishes; return its outcome."""

    @abstractmethod
    def cancel_design(self, design_key: str) -> None:
        """Best-effort: skip tasks of ``design_key`` not yet handed out."""

    @abstractmethod
    def close(self) -> None:
        """Shut down workers and drop per-design state; idempotent."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process executor: one task at a time, computed when pulled.

    Tasks run design-major, so the executor keeps a single work context:
    the next design's first task drops the previous design's context, and
    with it that design's engine, freed by reference counting.  However
    many designs a batch queues, one context's engine is alive at a time
    (plus, briefly, the engine of a canonical witness re-settle).
    """

    def __init__(self, units: Dict[str, WorkUnit]) -> None:
        self._units = units
        self._context: Optional[DesignWorkContext] = None
        self._cancelled: Set[str] = set()
        self._pending: "deque[ChunkTask]" = deque()
        self._done: Dict[int, ChunkOutcome] = {}

    @property
    def workers(self) -> int:
        return 1

    def submit(self, tasks: Sequence[ChunkTask]) -> None:
        self._pending.extend(tasks)

    def wait(self, task_id: int) -> ChunkOutcome:
        if task_id in self._done:
            return self._done.pop(task_id)
        # Lazy, in submission order: nothing runs until a consumer waits, and
        # waiting on task N runs at most the tasks queued before it.
        while self._pending:
            task = self._pending.popleft()
            outcome = self._execute(task)
            if task.task_id == task_id:
                return outcome
            self._done[task.task_id] = outcome
        raise ReproError(f"unknown task id {task_id}")

    def _execute(self, task: ChunkTask) -> ChunkOutcome:
        if task.design_key in self._cancelled:
            return ChunkOutcome(
                task_id=task.task_id,
                design_key=task.design_key,
                results=[],
                stats={},
                worker="serial-0",
                skipped=True,
            )
        self._context = _context_for(self._context, self._units, task.design_key)
        results, stats = self._context.run_chunk(task.indices, task.stop_on_failure)
        return ChunkOutcome(
            task_id=task.task_id,
            design_key=task.design_key,
            results=results,
            stats=stats,
            worker="serial-0",
        )

    def cancel_design(self, design_key: str) -> None:
        self._cancelled.add(design_key)

    def close(self) -> None:
        self._context = None


# ---------------------------------------------------------------------- #
# Process pool
# ---------------------------------------------------------------------- #


def _pool_worker_main(worker_name, units, task_queue, result_queue, claim_queue) -> None:
    """Worker loop: steal tasks, settle them on the current design's context.

    Runs in the child process.  Every exception is reported as a message,
    never as a dead worker, so the parent can fail loudly with the original
    traceback.  Before executing a task the worker *claims* it on
    ``claim_queue`` (a SimpleQueue: the put writes straight to the pipe, so
    the claim survives even a SIGKILL issued immediately afterwards) —
    that claim is what lets the parent attribute an in-flight task to a
    worker that died without reporting a result.
    """
    # Fork copies the parent's contextvars: a parent-installed tracer or
    # progress sink would silently collect into objects whose consumers live
    # on the other side of the fork.  Worker spans travel through the chunk
    # stats channel instead (run_chunk installs its own tracer), and worker
    # heartbeats are dropped by design — they cannot reach a live consumer.
    from repro.obs import progress as _obs_progress
    from repro.obs import trace as _obs_trace

    _obs_trace.clear()
    _obs_progress.clear()
    # Fault plans are per-process: the forked worker re-reads REPRO_FAULTS so
    # its counters start fresh (a respawned worker does too, which is what
    # makes worker_kill@task:N a retryable fault rather than a fatal loop).
    _faults.set_plan(None)
    context: Optional[DesignWorkContext] = None
    while True:
        task = task_queue.get()
        if task is None:
            # Exit without freeing the heap: tearing down the context's
            # engine object by object is time the parent's close() would
            # wait for.  Everything the parent reads is flushed first: the
            # output streams, and the result queue's feeder thread, as on
            # the worker_kill path below.
            sys.stdout.flush()
            sys.stderr.flush()
            result_queue.close()
            result_queue.join_thread()
            os._exit(0)
        claim_queue.put((worker_name, task.task_id))
        if _faults.fire("worker_kill"):
            # Drain the result feeder before dying.  The planned fault
            # simulates a crash in the *work*, not inside the IPC layer: a
            # SIGKILL landing while the feeder thread holds the shared
            # result queue's write lock would leave the lock held forever,
            # blocking every surviving worker's puts — a hang no supervisor
            # can attribute, since all remaining workers stay alive.
            result_queue.close()
            result_queue.join_thread()
            os.kill(os.getpid(), signal.SIGKILL)
        try:
            context = _context_for(context, units, task.design_key)
            results, stats = context.run_chunk(task.indices, task.stop_on_failure)
            records = [class_result_to_record(result) for result in results]
            result_queue.put((task.task_id, task.design_key, records, stats, worker_name, None))
        except Exception:  # noqa: BLE001 - crossing a process boundary
            result_queue.put(
                (task.task_id, task.design_key, [], {}, worker_name, traceback.format_exc())
            )


class ProcessPoolExecutor(Executor):
    """Multi-process executor over one shared work-stealing task queue.

    Workers are forked lazily on the first :meth:`run` call (fork keeps the
    unit table out of the pickle path and inherits the parent's imports).
    The feeder keeps at most ``2 × workers`` tasks in flight, which bounds
    queue memory and gives :meth:`cancel_design` a window to drop shards
    that a failing class made pointless.
    """

    def __init__(
        self, units: Dict[str, WorkUnit], jobs: int, task_retries: int = 2
    ) -> None:
        if jobs < 2:
            raise ReproError(f"ProcessPoolExecutor needs jobs >= 2, got {jobs}")
        self._units = units
        self._jobs = jobs
        self._task_retries = task_retries
        self._mp = multiprocessing.get_context("fork")
        self._processes: List[multiprocessing.Process] = []
        self._spawned = 0  # monotonic: respawned workers get fresh names
        self._task_queue = None
        self._result_queue = None
        self._claim_queue = None
        self._cancelled: Set[str] = set()
        self._closed = False
        self._pending: "deque[ChunkTask]" = deque()
        self._completed: Dict[int, ChunkOutcome] = {}
        self._outstanding = 0
        # Supervision state: which worker holds which task, the fed-but-
        # unfinished tasks by id (for requeueing), and per-task retry counts.
        self._inflight_by_worker: Dict[str, List[int]] = {}
        self._inflight_tasks: Dict[int, ChunkTask] = {}
        self._retry_counts: Dict[int, int] = {}
        self._unattributed_deaths = 0
        self.workers_lost = 0
        self.tasks_retried = 0

    @property
    def workers(self) -> int:
        return self._jobs

    def effective_workers(self, task_count: int) -> int:
        if task_count <= 0:
            return 1  # nothing to fork for (e.g. a fully cache-warm run)
        return min(self._jobs, task_count)

    def _ensure_workers(self, demand: int) -> None:
        """Fork workers lazily, growing the pool up to ``jobs`` as demand does.

        The first submit sizes the pool to its task count (a pool never
        forks more processes than there is work); respawns after a worker
        death grow it back toward ``jobs``.
        """
        if self._task_queue is None:
            self._task_queue = self._mp.Queue()
            self._result_queue = self._mp.Queue()
            self._claim_queue = self._mp.SimpleQueue()
        target = min(self._jobs, max(demand, 1))
        while len(self._processes) < target:
            worker_name = f"worker-{self._spawned}"
            self._spawned += 1
            process = self._mp.Process(
                target=_pool_worker_main,
                name=worker_name,
                args=(
                    worker_name,
                    self._units,
                    self._task_queue,
                    self._result_queue,
                    self._claim_queue,
                ),
                daemon=True,
            )
            process.start()
            self._processes.append(process)

    def submit(self, tasks: Sequence[ChunkTask]) -> None:
        if self._closed:
            raise ReproError("executor is closed")
        tasks = list(tasks)
        if not tasks:
            return
        self._pending.extend(tasks)
        self._ensure_workers(len(self._pending) + self._outstanding)
        self._feed()

    def _feed(self) -> None:
        """Keep at most ``2 × workers`` tasks in flight.

        The bound keeps queue memory flat and gives ``cancel_design`` a
        window to act on still-pending shards.
        """
        max_outstanding = 2 * max(1, len(self._processes))
        while self._pending and self._outstanding < max_outstanding:
            task = self._pending.popleft()
            if task.design_key in self._cancelled:
                self._completed[task.task_id] = ChunkOutcome(
                    task_id=task.task_id,
                    design_key=task.design_key,
                    results=[],
                    stats={},
                    worker="cancelled",
                    skipped=True,
                )
                continue
            self._task_queue.put(task)
            self._inflight_tasks[task.task_id] = task
            self._outstanding += 1

    def _drain_claims(self) -> None:
        """Apply pending worker → task claims (non-blocking).

        Claims are written to their pipe *before* the corresponding result
        is put, so draining claims before processing a result guarantees
        the in-flight map is current when the result clears it.
        """
        while self._claim_queue is not None and not self._claim_queue.empty():
            worker, task_id = self._claim_queue.get()
            if task_id in self._inflight_tasks:
                self._inflight_by_worker.setdefault(worker, []).append(task_id)

    def _supervise(self) -> bool:
        """Detect dead workers; requeue or quarantine their in-flight tasks.

        Returns True when supervision made progress (a retry or a
        quarantine), so the caller can reset its stall escalation.  Workers
        only exit after the close() sentinel — any mid-run death is a hard
        crash (OOM kill, native segfault, fault injection).
        """
        self._drain_claims()
        dead = [p for p in self._processes if not p.is_alive()]
        if not dead:
            return False
        progressed = False
        for process in dead:
            self._processes.remove(process)
            worker = process.name
            # Every unsettled claim the worker ever made is suspect: a
            # SIGKILL can swallow results still sitting in the worker's
            # queue-feeder buffer, so an *earlier* claimed task may be lost
            # even though the worker had already moved on to a later one.
            claimed = [
                task_id
                for task_id in self._inflight_by_worker.pop(worker, [])
                if task_id in self._inflight_tasks
            ]
            if not claimed:
                # Died idle, or in the microscopic window between stealing a
                # task and claiming it.  Nothing attributable to requeue —
                # the stall escalation in wait() covers the pathological case.
                if self._outstanding:
                    self._unattributed_deaths += 1
                continue
            self.workers_lost += 1
            for task_id in claimed:
                task = self._inflight_tasks[task_id]
                retries = self._retry_counts.get(task_id, 0)
                if retries < self._task_retries:
                    self._retry_counts[task_id] = retries + 1
                    self.tasks_retried += 1
                    self._task_queue.put(task)  # still counted as outstanding
                else:
                    self._settle_task(task_id)
                    self._completed[task_id] = ChunkOutcome(
                        task_id=task_id,
                        design_key=task.design_key,
                        results=[],
                        stats={},
                        worker=worker,
                        quarantined=True,
                    )
            progressed = True
        if self._pending or self._outstanding:
            self._ensure_workers(self._outstanding + len(self._pending))
        return progressed

    def _settle_task(self, task_id: int) -> None:
        """Drop a finished/quarantined task from the supervision state."""
        self._outstanding -= 1
        self._inflight_tasks.pop(task_id, None)
        self._retry_counts.pop(task_id, None)
        for worker, held in list(self._inflight_by_worker.items()):
            if task_id in held:
                held.remove(task_id)
                if not held:
                    del self._inflight_by_worker[worker]

    def wait(self, task_id: int) -> ChunkOutcome:
        if self._closed and task_id not in self._completed:
            raise ReproError("executor is closed")
        stalled_polls = 0
        while task_id not in self._completed:
            self._feed()
            if not self._outstanding and not self._pending:
                raise ReproError(f"unknown task id {task_id}")
            try:
                message = self._result_queue.get(timeout=1.0)
            except _queue.Empty:
                if self._supervise():
                    stalled_polls = 0
                else:
                    stalled_polls += 1
                # A worker that died before claiming its task leaves the
                # loss unattributable; if nothing at all progresses after
                # that, fail loudly instead of waiting forever.
                if self._unattributed_deaths and stalled_polls >= 30:
                    raise ReproError(
                        "parallel worker process(es) died without reporting "
                        "a result or claiming a task, and the run has "
                        "stalled; rerun with --jobs 1 to reproduce the "
                        "failure inline"
                    ) from None
                continue
            stalled_polls = 0
            self._drain_claims()
            done_id, design_key, records, stats, worker, error = message
            if done_id not in self._inflight_tasks:
                # A late duplicate: the task was requeued after its worker
                # was presumed dead, but the original result made it out
                # first (or vice versa).  The first settle wins.
                continue
            self._settle_task(done_id)
            if error is not None:
                raise ReproError(
                    f"parallel worker {worker} failed while settling "
                    f"{design_key!r}:\n{error}"
                )
            name = self._units[design_key].name
            self._completed[done_id] = ChunkOutcome(
                task_id=done_id,
                design_key=design_key,
                results=[class_result_from_record(name, record) for record in records],
                stats=stats,
                worker=worker,
            )
        return self._completed.pop(task_id)

    def cancel_design(self, design_key: str) -> None:
        self._cancelled.add(design_key)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._task_queue is not None:
            for _ in self._processes:
                try:
                    self._task_queue.put(None)
                except (OSError, ValueError):
                    break
        for process in self._processes:
            process.join(timeout=2.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():
                # A worker stuck in an uninterruptible state can survive
                # SIGTERM; SIGKILL cannot be caught, so this join is final —
                # without it the child stays a zombie for the parent's
                # lifetime.
                process.kill()
                process.join()
        for q in (self._task_queue, self._result_queue):
            if q is not None:
                q.cancel_join_thread()
                q.close()
        if self._claim_queue is not None:
            self._claim_queue.close()
        self._processes = []


def create_executor(
    jobs: int, units: Dict[str, WorkUnit], task_retries: int = 2
) -> Executor:
    """Executor factory: serial for ``jobs <= 1``, forked pool otherwise.

    Platforms without the ``fork`` start method (e.g. Windows) degrade to
    the serial executor with a warning rather than failing the audit.
    """
    if jobs <= 1:
        return SerialExecutor(units)
    if "fork" not in multiprocessing.get_all_start_methods():
        warnings.warn(
            "multiprocessing 'fork' start method unavailable; "
            "running with --jobs 1 (serial) instead",
            RuntimeWarning,
            stacklevel=2,
        )
        return SerialExecutor(units)
    return ProcessPoolExecutor(units, jobs, task_retries=task_retries)
