"""The audit daemon: HTTP front end, worker pool, shared warm cache.

``repro serve`` runs one :class:`AuditServer`: a stdlib
:class:`http.server.ThreadingHTTPServer` front end over the persistent
:class:`repro.serve.queue.JobQueue`, with ``--jobs`` worker threads each
auditing a claimed job through a :class:`repro.api.DetectionSession`, as
``repro run`` does.  Every audit is forced to ``jobs=1`` internally — the
worker pool is the parallelism, and forking solver processes out of a
multi-threaded daemon is a correctness hazard — and every audit shares one
warm result-cache directory (:class:`repro.exec.cache.ResultCache`), so a
resubmitted design (or a journal-recovered job after a crash) replays its
settled property classes instead of re-solving them.

Endpoints (all JSON unless noted)::

    GET  /v1/health               liveness + protocol/schema versions
    GET  /v1/stats                daemon counters, queue + cache stats
    POST /v1/audits               submit an audit (returns the job, 429 on quota)
    GET  /v1/audits               list jobs
    GET  /v1/audits/<id>          one job
    GET  /v1/audits/<id>/events   live Server-Sent-Events stream of run events
    GET  /v1/audits/<id>/report   the finished report (schema SCHEMA_VERSION)
    GET  /metrics                 Prometheus text exposition (queue, cache,
                                  solver and job counters; not JSON)

Live SSE streams additionally carry transient ``SolverProgress`` heartbeats
emitted by the solver every few thousand conflicts, so a client watching a
hard solve sees it move; heartbeats are never journaled and never appear in
terminal-job replays.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time as _time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.api.session import DetectionSession
from repro.core.events import SolverProgress
from repro.core.report import SCHEMA_VERSION
from repro.errors import ReproError
from repro.exec.cache import ResultCache
from repro.obs.metrics import MetricsRegistry
from repro.serve import sse
from repro.serve.protocol import (
    SERVE_PROTOCOL_VERSION,
    QuotaExceededError,
    build_design,
    effective_config,
    prepare_submission,
    submission_from_dict,
)
from repro.serve.queue import JobQueue

logger = logging.getLogger("repro.serve")

#: Reject submission bodies larger than this (a full Verilog design fits
#: comfortably; anything bigger is a client bug or abuse).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: An oversized submission body up to this many bytes is read and discarded
#: before the 413 answer, so the client, still sending, reads the answer
#: instead of a connection reset.  A larger one is answered unread, and the
#: connection closed, since draining it would cost more than it is worth.
MAX_DRAIN_BYTES = 64 * 1024 * 1024
#: Bytes read per chunk while draining.
_DRAIN_CHUNK_BYTES = 64 * 1024

#: Seconds of stream inactivity between SSE keepalive comments.
KEEPALIVE_INTERVAL_S = 15.0


class _JobRuntime:
    """Live event feed of one running job, shared worker -> streamers.

    The worker appends wire payloads as the scheduler yields events; any
    number of SSE streamers replay from index 0 and block on the condition
    for more.  Once finished, the journal owns the durable copy and this
    object only confirms completion to already-attached streamers.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._more = threading.Condition(self._lock)
        self._events: List[Dict[str, Any]] = []
        self._finished = False

    def append(self, payload: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append(payload)
            self._more.notify_all()

    def finish(self) -> None:
        with self._lock:
            self._finished = True
            self._more.notify_all()

    def wait_beyond(self, index: int, timeout: float) -> Tuple[List[Dict[str, Any]], bool]:
        """Events past ``index`` (may be empty after ``timeout``), + finished."""
        with self._lock:
            if len(self._events) <= index and not self._finished:
                self._more.wait(timeout=timeout)
            return list(self._events[index:]), self._finished


class AuditServer:
    """The long-lived detection service (see module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_dir: str = ".repro-serve",
        jobs: int = 2,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        default_quota: int = 0,
        quotas: Optional[Dict[str, int]] = None,
        max_body_bytes: int = MAX_BODY_BYTES,
    ) -> None:
        """``jobs`` is the worker-thread count; ``0`` accepts jobs without
        running them (journal-only mode, for handover/testing).  The result
        cache defaults to ``<queue_dir>/cache``.  Raises
        :class:`ReproError` on a negative ``jobs`` or quota, or when another
        daemon holds ``queue_dir``."""
        if jobs < 0:
            raise ReproError(f"jobs must be 0 (accept only) or positive, got {jobs}")
        self._host = host
        self._requested_port = port
        self._jobs = jobs
        self._use_cache = use_cache
        self._cache_dir = cache_dir or os.path.join(queue_dir, "cache")
        self._max_body_bytes = max_body_bytes
        self.queue = JobQueue(queue_dir, default_quota=default_quota, quotas=quotas)
        self.cache: Optional[ResultCache] = (
            ResultCache(self._cache_dir) if use_cache else None
        )
        self._runtimes: Dict[str, _JobRuntime] = {}
        self._runtimes_lock = threading.Lock()
        self._counters = {"submitted": 0, "deduplicated": 0, "completed": 0, "failed": 0}
        self._counters_lock = threading.Lock()
        self.metrics = MetricsRegistry()
        self._register_metrics()
        self.metrics.inc("repro_journal_corrupt_total", self.queue.corrupt_journals)
        self._stopping = threading.Event()
        self._workers: List[threading.Thread] = []
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None

    def _register_metrics(self) -> None:
        """Pre-declare every series so a scrape before the first job already
        sees them at zero (Prometheus counters must exist to be monotonic)."""
        metrics = self.metrics
        for state in ("submitted", "deduplicated", "completed", "failed"):
            metrics.counter(f"repro_jobs_{state}_total", f"Jobs {state} since daemon start")
        metrics.gauge(
            "repro_queue_depth",
            "Jobs currently waiting in the queue",
            fn=self.queue.queued_depth,
        )
        metrics.histogram(
            "repro_queue_wait_seconds", "Seconds jobs waited between submit and claim"
        )
        metrics.histogram(
            "repro_audit_run_seconds", "Wall seconds per audit, claim to verdict"
        )
        metrics.counter("repro_cache_hits_total", "Result-cache class replays")
        metrics.counter("repro_cache_misses_total", "Result-cache class misses")
        metrics.counter("repro_solver_conflicts_total", "CDCL conflicts across served audits")
        metrics.counter("repro_solver_restarts_total", "CDCL restarts across served audits")
        metrics.counter(
            "repro_solver_learned_clauses_total", "Learned clauses across served audits"
        )
        metrics.counter(
            "repro_preprocess_nodes_removed_total",
            "AIG cone nodes removed by preprocessing across served audits",
        )
        metrics.counter(
            "repro_journal_corrupt_total",
            "Corrupt or unreadable job journals skipped (counted, never silent)",
        )

    # ------------------------------------------------------------------ #
    # life cycle
    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def start(self) -> None:
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self._host, self._requested_port), handler)
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-http", daemon=True
        )
        self._http_thread.start()
        for index in range(self._jobs):
            worker = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        logger.info(
            "serving on %s (%d worker(s), %d job(s) recovered from journal)",
            self.url,
            self._jobs,
            self.queue.recovered_jobs,
        )

    def stop(self) -> None:
        self._stopping.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        for worker in self._workers:
            worker.join(timeout=10.0)
        if self._http_thread is not None:
            self._http_thread.join(timeout=10.0)
        # Last, so in-flight audits journal their verdicts while this
        # daemon still holds the queue directory.
        self.queue.close()

    def serve_forever(self) -> None:
        """:meth:`start` + block until interrupted (the CLI entry point)."""
        self.start()
        try:
            while not self._stopping.wait(timeout=0.5):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    # ------------------------------------------------------------------ #
    # workers
    # ------------------------------------------------------------------ #

    def _runtime_for(self, job_id: str) -> _JobRuntime:
        with self._runtimes_lock:
            runtime = self._runtimes.get(job_id)
            if runtime is None:
                runtime = self._runtimes[job_id] = _JobRuntime()
            return runtime

    def _worker_loop(self) -> None:
        # Transient claim failures (a full disk, a queue-dir hiccup on
        # shared storage) retry with capped exponential backoff instead of
        # spinning or killing the worker thread.
        backoff = 0.0
        while not self._stopping.is_set():
            try:
                job = self.queue.claim(timeout=0.25)
            except (OSError, ReproError):
                backoff = min(5.0, backoff * 2 if backoff else 0.1)
                logger.warning(
                    "claim failed; retrying in %.1fs", backoff, exc_info=True
                )
                self._stopping.wait(backoff)
                continue
            backoff = 0.0
            if job is None:
                continue
            try:
                self._run_audit(job)
            except Exception:  # pragma: no cover - defensive backstop
                logger.exception("worker crashed on job %s", job.id)

    def _run_audit(self, job) -> None:
        runtime = self._runtime_for(job.id)
        events: List[Dict[str, Any]] = []
        if job.started_s is not None and job.created_s:
            self.metrics.observe(
                "repro_queue_wait_seconds", max(0.0, job.started_s - job.created_s)
            )
        run_started = _time.perf_counter()
        elapsed_observed = False
        try:
            submission = submission_from_dict(job.submission)
            design = build_design(submission)
            session = DetectionSession(
                design,
                config=effective_config(
                    design, submission, self._cache_dir, self._use_cache
                ),
            )
            # Solver heartbeats feed the live SSE stream only: they are
            # transient progress, never journaled with the run's events.
            session.subscribe(
                lambda event: runtime.append(event.to_dict()), SolverProgress
            )
            for event in session.iter_results():
                payload = event.to_dict()
                events.append(payload)
                runtime.append(payload)
            report = session.report.to_dict()
            # Record every metric before queue.finish publishes the terminal
            # state: a client that saw the job finish (and immediately
            # scraped /metrics) must already find it counted.
            elapsed_observed = True
            self.metrics.observe(
                "repro_audit_run_seconds", _time.perf_counter() - run_started
            )
            self._bump("completed")
            self._observe_report(report)
            self.queue.finish(job.id, report, events)
            logger.info("job %s done (%s)", job.id, job.design_name)
        except Exception as error:
            if not elapsed_observed:
                self.metrics.observe(
                    "repro_audit_run_seconds", _time.perf_counter() - run_started
                )
            self._bump("failed")
            if isinstance(error, ReproError):
                # The job's own input is at fault (an unknown config field,
                # a design that does not elaborate): its message says it all.
                logger.warning("job %s failed: %s", job.id, error)
            else:
                logger.exception("job %s failed", job.id)
            self.queue.fail(job.id, f"{type(error).__name__}: {error}", events)
        finally:
            # The runtime stays registered: late-attaching streamers of a
            # finished job replay the journal, but one that raced the
            # completion still needs the finished flag to terminate.
            runtime.finish()

    def _bump(self, counter: str) -> None:
        with self._counters_lock:
            self._counters[counter] += 1
        self.metrics.inc(f"repro_jobs_{counter}_total")

    def _observe_report(self, report: Optional[Dict[str, Any]]) -> None:
        """Fold one finished report's accounting into the daemon counters."""
        if not report:
            return
        solver = report.get("solver") or {}
        self.metrics.inc("repro_solver_conflicts_total", solver.get("conflicts", 0))
        self.metrics.inc("repro_solver_restarts_total", solver.get("restarts", 0))
        self.metrics.inc(
            "repro_solver_learned_clauses_total", solver.get("learned_clauses", 0)
        )
        execution = report.get("execution") or {}
        self.metrics.inc("repro_cache_hits_total", execution.get("cache_hits", 0))
        self.metrics.inc("repro_cache_misses_total", execution.get("cache_misses", 0))
        preprocess = report.get("preprocess") or {}
        removed = preprocess.get("nodes_before", 0) - preprocess.get("nodes_after", 0)
        if removed > 0:
            self.metrics.inc("repro_preprocess_nodes_removed_total", removed)

    # ------------------------------------------------------------------ #
    # request-side helpers (called from handler threads)
    # ------------------------------------------------------------------ #

    def submit(self, body: Dict[str, Any], header_token: Optional[str]) -> Tuple[Dict[str, Any], bool]:
        """Admit one POST body; returns ``(response_dict, deduplicated)``."""
        submission, design, config, fingerprint = prepare_submission(
            body, self._cache_dir, self._use_cache
        )
        token = header_token if header_token is not None else submission.token
        stored = submission.to_dict()
        stored["token"] = token
        job, deduplicated = self.queue.submit(
            fingerprint,
            stored,
            design_name=design.name,
            mode=config.mode,
            priority=submission.priority,
            token=token,
        )
        self._bump("deduplicated" if deduplicated else "submitted")
        return (
            {
                "protocol": SERVE_PROTOCOL_VERSION,
                "job": job.summary_dict(),
                "deduplicated": deduplicated,
            },
            deduplicated,
        )

    def stats(self) -> Dict[str, Any]:
        with self._counters_lock:
            counters = dict(self._counters)
        data = {
            "protocol": SERVE_PROTOCOL_VERSION,
            "report_schema": SCHEMA_VERSION,
            "workers": self._jobs,
            "counters": counters,
            "queue": self.queue.stats(),
        }
        if self.cache is not None:
            data["cache"] = self.cache.stats()
        return data


def _make_handler(server: AuditServer):
    """Bind a request-handler class to one :class:`AuditServer`."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-serve/" + str(SERVE_PROTOCOL_VERSION)

        # -------------------------------------------------------------- #
        # plumbing
        # -------------------------------------------------------------- #

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            logger.debug("%s - %s", self.address_string(), format % args)

        def _send_json(
            self, status: int, payload: Dict[str, Any], close: bool = False
        ) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if close:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _send_error_json(self, status: int, message: str, close: bool = False) -> None:
            self._send_json(status, {"error": message}, close=close)

        def _send_metrics(self) -> None:
            body = server.metrics.render().encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        # -------------------------------------------------------------- #
        # routing
        # -------------------------------------------------------------- #

        def do_GET(self) -> None:  # noqa: N802
            try:
                path = urlsplit(self.path).path.rstrip("/")
                if path == "/v1/health":
                    self._send_json(
                        200,
                        {
                            "status": "ok",
                            "protocol": SERVE_PROTOCOL_VERSION,
                            "report_schema": SCHEMA_VERSION,
                        },
                    )
                elif path == "/v1/stats":
                    self._send_json(200, server.stats())
                elif path == "/metrics":
                    self._send_metrics()
                elif path == "/v1/audits":
                    self._send_json(
                        200,
                        {"jobs": [job.summary_dict() for job in server.queue.jobs()]},
                    )
                elif path.startswith("/v1/audits/"):
                    parts = path[len("/v1/audits/"):].split("/")
                    if len(parts) == 1:
                        self._get_job(parts[0])
                    elif len(parts) == 2 and parts[1] == "report":
                        self._get_report(parts[0])
                    elif len(parts) == 2 and parts[1] == "events":
                        self._stream_events(parts[0])
                    else:
                        self._send_error_json(404, f"no such endpoint: {path}")
                else:
                    self._send_error_json(404, f"no such endpoint: {path}")
            except (BrokenPipeError, ConnectionResetError):
                pass
            except Exception as error:  # pragma: no cover - defensive
                logger.exception("GET %s failed", self.path)
                try:
                    self._send_error_json(500, f"internal error: {error}")
                except OSError:
                    pass

        def do_POST(self) -> None:  # noqa: N802
            try:
                path = urlsplit(self.path).path.rstrip("/")
                if path != "/v1/audits":
                    self._send_error_json(404, f"no such endpoint: {path}")
                    return
                self._post_audit()
            except (BrokenPipeError, ConnectionResetError):
                pass
            except Exception as error:  # pragma: no cover - defensive
                logger.exception("POST %s failed", self.path)
                try:
                    self._send_error_json(500, f"internal error: {error}")
                except OSError:
                    pass

        # -------------------------------------------------------------- #
        # endpoints
        # -------------------------------------------------------------- #

        def _post_audit(self) -> None:
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = -1
            if length < 0:
                self._send_error_json(
                    400, "Content-Length must be a non-negative integer"
                )
                return
            if length > server._max_body_bytes:
                if length <= MAX_DRAIN_BYTES:
                    remaining = length
                    while remaining > 0:
                        chunk = self.rfile.read(min(remaining, _DRAIN_CHUNK_BYTES))
                        if not chunk:
                            break
                        remaining -= len(chunk)
                self._send_error_json(
                    413,
                    f"submission body exceeds {server._max_body_bytes} bytes",
                    close=True,
                )
                return
            raw = self.rfile.read(length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as error:
                self._send_error_json(400, f"submission body is not valid JSON: {error}")
                return
            header_token = self.headers.get("X-Repro-Token")
            try:
                payload, deduplicated = server.submit(body, header_token)
            except QuotaExceededError as error:
                self._send_error_json(429, str(error))
                return
            except ReproError as error:
                self._send_error_json(400, str(error))
                return
            self._send_json(200 if deduplicated else 201, payload)

        def _get_job(self, job_id: str) -> None:
            job = server.queue.get(job_id)
            if job is None:
                self._send_error_json(404, f"unknown job {job_id!r}")
                return
            self._send_json(200, job.summary_dict())

        def _get_report(self, job_id: str) -> None:
            job = server.queue.get(job_id)
            if job is None:
                self._send_error_json(404, f"unknown job {job_id!r}")
                return
            if job.state != "done":
                self._send_json(
                    409,
                    {
                        "error": f"job {job_id} is {job.state}, no report yet"
                        + (f": {job.error}" if job.error else ""),
                        "state": job.state,
                    },
                )
                return
            report = server.queue.report_for(job_id)
            if report is None:  # pragma: no cover - done jobs always store one
                self._send_error_json(500, f"job {job_id} finished without a report")
                return
            self._send_json(200, report)

        def _stream_events(self, job_id: str) -> None:
            job = server.queue.get(job_id)
            if job is None:
                self._send_error_json(404, f"unknown job {job_id!r}")
                return
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.end_headers()
            # Streams run on HTTP/1.0 semantics: no Content-Length, the
            # closed connection marks the end of the stream.
            self.wfile.write(
                sse.encode_event(job.summary_dict(), event=sse.STATE_EVENT)
            )
            if job.terminal:
                self._replay_terminal(job_id)
                return
            self._stream_live(job_id)

        def _replay_terminal(self, job_id: str) -> None:
            job = server.queue.get(job_id)
            for index, payload in enumerate(server.queue.events_for(job_id)):
                self.wfile.write(
                    sse.encode_event(
                        payload, event=payload.get("event"), event_id=index
                    )
                )
            self._finish_stream(job)

        def _stream_live(self, job_id: str) -> None:
            runtime = server._runtime_for(job_id)
            index = 0
            while True:
                payloads, finished = runtime.wait_beyond(
                    index, timeout=KEEPALIVE_INTERVAL_S
                )
                for payload in payloads:
                    self.wfile.write(
                        sse.encode_event(
                            payload, event=payload.get("event"), event_id=index
                        )
                    )
                    index += 1
                if finished and not payloads:
                    break
                if not payloads:
                    self.wfile.write(sse.KEEPALIVE_COMMENT)
                self.wfile.flush()
            self._finish_stream(server.queue.get(job_id))

        def _finish_stream(self, job) -> None:
            if job is not None and job.state == "failed":
                self.wfile.write(
                    sse.encode_event(
                        {"job": job.id, "error": job.error}, event=sse.ERROR_EVENT
                    )
                )
            else:
                summary = job.summary_dict() if job is not None else {}
                self.wfile.write(sse.encode_event(summary, event=sse.END_EVENT))
            self.wfile.flush()

    return Handler
