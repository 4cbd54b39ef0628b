"""Persistent, priority-ordered job queue of the audit daemon.

Every job lives in one journal file, ``<root>/jobs/<id>.json``::

    {"serve_schema": 1,
     "job":     {... Job.to_dict() ...},
     "events":  [... RunEvent.to_dict() payloads, once finished ...],
     "report":  {... DetectionReport.to_dict(), once finished ...}}

Journal writes reuse the result cache's crash-safety discipline
(:mod:`repro.exec.cache`): serialize to a temp file in the same directory,
``os.replace`` into place.  A reader therefore sees either the previous
record or the new one, never a torn write.

One queue owns its directory.  The constructor takes an exclusive
``fcntl.flock`` on ``<root>/lock`` and holds it until :meth:`JobQueue.close`;
the kernel drops it when the process dies, so a crash leaves no stale lock
behind.  A second queue on a held directory raises :class:`ReproError`.
Holding the lock proves that no other daemon is alive, which makes restart
recovery trivial: the constructor walks the journal and re-queues every
``queued``/``running`` job (a ``running`` one was interrupted mid-audit, so
its ``restarts`` goes up by one), while ``done``/``failed`` jobs keep serving
their stored events and reports.

The in-memory side is a priority heap ordered by ``(-priority, seq)`` —
higher client priority first, FIFO within a priority — guarded by one lock
and a condition variable that :meth:`JobQueue.claim` blocks on.
Deduplication is a fingerprint index consulted *before* enqueue: a
submission whose fingerprint matches a live (non-failed) job attaches to it
instead of creating work.
"""

from __future__ import annotations

import fcntl
import heapq
import json
import logging
import os
import tempfile
import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.serve.protocol import (
    Job,
    QUEUE_SCHEMA_VERSION,
    QuotaExceededError,
    now_s,
)

logger = logging.getLogger("repro.serve.queue")

class JobQueue:
    """Journaled job store + priority queue (thread-safe, one per directory)."""

    def __init__(
        self,
        root: str,
        default_quota: int = 0,
        quotas: Optional[Dict[str, int]] = None,
    ) -> None:
        """``root`` is the queue directory (created on demand).

        ``default_quota`` caps how many *incomplete* (queued or running)
        jobs one client token may hold at once; ``0`` means unlimited.
        ``quotas`` overrides the cap per token.  Raises
        :class:`ReproError` on a negative quota, or when another live queue
        holds ``root``.
        """
        self._quotas = dict(quotas or {})
        for token, quota in [(None, default_quota), *self._quotas.items()]:
            if quota < 0:
                scope = "default" if token is None else f"token {token!r}"
                raise ReproError(
                    f"the {scope} quota must be 0 (unlimited) or positive, got {quota}"
                )
        self._default_quota = default_quota
        self._jobs_dir = os.path.join(root, "jobs")
        os.makedirs(self._jobs_dir, exist_ok=True)
        lock_path = os.path.join(root, "lock")
        self._lock_file = open(lock_path, "ab")
        try:
            fcntl.flock(self._lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as error:
            self._lock_file.close()
            raise ReproError(
                f"queue directory {root!r} is in use by another daemon "
                f"(cannot lock {lock_path}: {error.strerror})"
            ) from error
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._reports: Dict[str, Optional[Dict[str, Any]]] = {}
        self._by_fingerprint: Dict[str, str] = {}
        self._heap: List[Tuple[int, int, str]] = []
        self._seq = 0
        self._closed = False
        #: Journal files that could not be replayed (corrupt JSON, schema
        #: mismatch, unusable job record).  Never silently absorbed: each
        #: one is logged with its path, counted here, and exported as the
        #: ``repro_journal_corrupt_total`` metric.
        self.corrupt_journals = 0
        self._recovered = self._load()

    # ------------------------------------------------------------------ #
    # journal I/O
    # ------------------------------------------------------------------ #

    def _journal_path(self, job_id: str) -> str:
        return os.path.join(self._jobs_dir, f"{job_id}.json")

    def _write_journal_locked(self, job: Job) -> None:
        record = {
            "serve_schema": QUEUE_SCHEMA_VERSION,
            "job": job.to_dict(),
            "events": self._events.get(job.id, []),
            "report": self._reports.get(job.id),
        }
        payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
        fd, tmp_path = tempfile.mkstemp(
            prefix=f".{job.id}-", suffix=".tmp", dir=self._jobs_dir
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_path, self._journal_path(job.id))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def _load(self) -> int:
        """Replay the journal; returns how many incomplete jobs were re-queued.

        The directory lock proves that the daemon which left a job
        ``running`` is gone, so every such job re-queues at once with
        ``restarts`` bumped.
        """
        recovered = 0
        for entry in sorted(os.listdir(self._jobs_dir)):
            if not entry.endswith(".json"):
                continue
            path = os.path.join(self._jobs_dir, entry)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
                if (
                    not isinstance(record, dict)
                    or record.get("serve_schema") != QUEUE_SCHEMA_VERSION
                ):
                    self.corrupt_journals += 1
                    logger.warning("ignoring journal %s: schema mismatch", path)
                    continue
                job = Job.from_dict(record["job"])
            except (OSError, ValueError, KeyError, ReproError) as error:
                self.corrupt_journals += 1
                logger.warning("ignoring corrupt journal %s: %s", path, error)
                continue
            if not job.terminal:
                if job.state == "running":
                    job.restarts += 1
                job.state = "queued"
                job.started_s = None
                recovered += 1
            self._jobs[job.id] = job
            self._events[job.id] = record.get("events") or []
            self._reports[job.id] = record.get("report")
            if job.state != "failed":
                self._by_fingerprint.setdefault(job.fingerprint, job.id)
            if job.state == "queued":
                self._push_locked(job)
                self._write_journal_locked(job)
        if recovered:
            logger.info("recovered %d incomplete job(s) from the journal", recovered)
        return recovered

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def _push_locked(self, job: Job) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (-job.priority, self._seq, job.id))

    def _quota_for(self, token: str) -> int:
        return self._quotas.get(token, self._default_quota)

    def _incomplete_for_token_locked(self, token: str) -> int:
        return sum(
            1
            for job in self._jobs.values()
            if job.token == token and not job.terminal
        )

    def submit(
        self,
        fingerprint: str,
        submission: Dict[str, Any],
        design_name: str,
        mode: str,
        priority: int = 0,
        token: str = "",
    ) -> Tuple[Job, bool]:
        """Admit one submission; returns ``(job, deduplicated)``.

        A matching live fingerprint attaches to the existing job — the
        attachment still counts a submission and may *raise* the job's
        priority (never lower it), so an urgent resubmission jumps the
        queue.  Failed jobs do not absorb resubmissions: a client retrying
        a failed audit gets a fresh job.
        """
        with self._lock:
            if self._closed:
                raise ReproError("job queue is closed")
            existing_id = self._by_fingerprint.get(fingerprint)
            if existing_id is not None:
                existing = self._jobs[existing_id]
                if not (existing.state == "failed"):
                    existing.submissions += 1
                    if priority > existing.priority:
                        existing.priority = priority
                        if existing.state == "queued":
                            self._push_locked(existing)
                    self._write_journal_locked(existing)
                    self._available.notify_all()
                    return existing, True
            quota = self._quota_for(token)
            if quota > 0 and self._incomplete_for_token_locked(token) >= quota:
                raise QuotaExceededError(
                    f"token {token or '<anonymous>'!r} already has {quota} "
                    f"incomplete job(s); wait for one to finish"
                )
            job = Job(
                id=uuid.uuid4().hex[:12],
                fingerprint=fingerprint,
                state="queued",
                submission=dict(submission),
                design_name=design_name,
                mode=mode,
                priority=priority,
                token=token,
                created_s=now_s(),
            )
            self._jobs[job.id] = job
            self._events[job.id] = []
            self._reports[job.id] = None
            self._by_fingerprint[fingerprint] = job.id
            self._push_locked(job)
            self._write_journal_locked(job)
            self._available.notify()
            return job, False

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #

    def claim(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the highest-priority queued job and mark it running.

        Blocks up to ``timeout`` seconds (forever when ``None``); returns
        ``None`` on timeout or queue shutdown.
        """
        with self._lock:
            while not self._closed:
                job = self._pop_locked()
                if job is not None:
                    job.state = "running"
                    job.started_s = now_s()
                    self._write_journal_locked(job)
                    return job
                if not self._available.wait(timeout=timeout):
                    return None
            return None

    def _pop_locked(self) -> Optional[Job]:
        while self._heap:
            neg_priority, _, job_id = heapq.heappop(self._heap)
            job = self._jobs.get(job_id)
            # Skip stale heap entries: the job was claimed already, or a
            # priority bump re-pushed it with a better key.
            if job is None or job.state != "queued" or -neg_priority != job.priority:
                continue
            return job
        return None

    def finish(
        self,
        job_id: str,
        report: Optional[Dict[str, Any]],
        events: List[Dict[str, Any]],
    ) -> Job:
        with self._lock:
            job = self._require_locked(job_id)
            job.state = "done"
            job.finished_s = now_s()
            job.error = None
            self._events[job_id] = list(events)
            self._reports[job_id] = report
            self._write_journal_locked(job)
            self._available.notify_all()
        return job

    def fail(self, job_id: str, error: str, events: Optional[List[Dict[str, Any]]] = None) -> Job:
        with self._lock:
            job = self._require_locked(job_id)
            job.state = "failed"
            job.finished_s = now_s()
            job.error = error
            if events is not None:
                self._events[job_id] = list(events)
            # Failed jobs stop absorbing resubmissions so retries re-run.
            if self._by_fingerprint.get(job.fingerprint) == job_id:
                del self._by_fingerprint[job.fingerprint]
            self._write_journal_locked(job)
            self._available.notify_all()
        return job

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def _require_locked(self, job_id: str) -> Job:
        if self._closed:
            raise ReproError("job queue is closed")
        job = self._jobs.get(job_id)
        if job is None:
            raise ReproError(f"unknown job {job_id!r}")
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.created_s)

    def events_for(self, job_id: str) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events.get(job_id, []))

    def report_for(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            report = self._reports.get(job_id)
            return dict(report) if report is not None else None

    @property
    def recovered_jobs(self) -> int:
        """How many incomplete jobs the constructor replayed from disk."""
        return self._recovered

    def queued_depth(self) -> int:
        """Jobs currently waiting to be claimed (the ``/metrics`` gauge)."""
        with self._lock:
            return sum(1 for job in self._jobs.values() if job.state == "queued")

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            counts = {state: 0 for state in ("queued", "running", "done", "failed")}
            for job in self._jobs.values():
                counts[job.state] += 1
            return {
                "jobs": len(self._jobs),
                "by_state": counts,
                "recovered": self._recovered,
                "corrupt_journals": self.corrupt_journals,
            }

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is queued or running (True) or timeout (False)."""
        # Monotonic, not wall-clock: an NTP step (or a test patching
        # ``now_s``) must never stretch or collapse the timeout.
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while any(not job.terminal for job in self._jobs.values()):
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._available.wait(timeout=remaining)
            return True

    def close(self) -> None:
        """Wake every blocked :meth:`claim`, stop writing, free the directory.

        After close the queue refuses submissions, claims and verdicts, so
        nothing it does can race the next daemon on the directory; a job
        still running here stays ``running`` on disk and that daemon
        re-queues it.  Idempotent.
        """
        with self._lock:
            self._closed = True
            self._available.notify_all()
            self._lock_file.close()
