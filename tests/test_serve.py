"""Tests for the detection-as-a-service subsystem (`repro.serve`).

Covers the submission protocol (validation, effective config, dedup
fingerprints), the persistent journaled job queue (priorities, dedup
attachment, quotas, the one-daemon directory lock, crash recovery), the SSE
codec, and the HTTP daemon end to end: submit -> stream -> report parity
with an in-process session, deduplicated resubmission, restart recovery of
journaled jobs (also after a SIGKILL mid-audit), and the multi-process
result-cache sharing the daemon's warm cache relies on.
"""

import json
import logging
import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.api import Design, DetectionConfig, DetectionSession
from repro.core.events import RunFinished, RunStarted
from repro.errors import DesignError, ReproError
from repro.exec.cache import ResultCache
from repro.exec.fingerprint import class_cache_key
from repro.exec.records import normalized_report_dict
from repro.serve import AuditServer, JobQueue
from repro.serve import sse
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import (
    Job,
    ProtocolError,
    QuotaExceededError,
    prepare_submission,
    submission_from_dict,
)

SMALL_SOURCE = """
module widget(input clk, input [3:0] din, output [3:0] dout);
  reg [3:0] a;
  reg [3:0] b;
  always @(posedge clk) begin
    a <= din + 4'd1;
    b <= a ^ 4'd3;
  end
  assign dout = b;
endmodule
"""

TROJANED_SMALL_SOURCE = """
module widget(input clk, input [3:0] din, output [3:0] dout);
  reg [3:0] a;
  reg [3:0] b;
  reg [3:0] trig;
  always @(posedge clk) begin
    a <= din + 4'd1;
    b <= a ^ 4'd3;
    trig <= trig + 4'd1;
  end
  assign dout = (trig == 4'hf) ? ~b : b;
endmodule
"""

# Secure, but ``(d + pad) - pad`` must be proven zero by SAT calls (fraig's
# bounded proofs; structural hashing cannot fold the adder identity), so an
# audit of this design spends real time in SAT — long enough for a
# crash-recovery test to kill a daemon mid-run, especially with
# solver_stall faults planned.
SLOW_SECURE_SOURCE = """
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


# ---------------------------------------------------------------------- #
# Protocol
# ---------------------------------------------------------------------- #


class TestSubmissionParsing:
    def test_verilog_submission_round_trips(self):
        submission = submission_from_dict(
            {"verilog": SMALL_SOURCE, "top": "widget", "priority": 3}
        )
        assert submission.top == "widget" and submission.priority == 3
        assert submission_from_dict(submission.to_dict()) == submission

    def test_requires_exactly_one_design_source(self):
        with pytest.raises(ProtocolError, match="exactly one design source"):
            submission_from_dict({})
        with pytest.raises(ProtocolError, match="exactly one design source"):
            submission_from_dict(
                {"benchmark": "X", "verilog": SMALL_SOURCE, "top": "widget"}
            )

    def test_verilog_requires_top(self):
        with pytest.raises(ProtocolError, match="'top'"):
            submission_from_dict({"verilog": SMALL_SOURCE})

    def test_benchmark_rejects_golden_overrides(self):
        with pytest.raises(ProtocolError, match="benchmarks use their catalogued"):
            submission_from_dict({"benchmark": "X", "golden_top": "g"})

    def test_golden_verilog_requires_golden_top(self):
        with pytest.raises(ProtocolError, match="'golden_top'"):
            submission_from_dict(
                {"verilog": SMALL_SOURCE, "top": "widget", "golden_verilog": "..."}
            )

    def test_unknown_field_is_rejected(self):
        with pytest.raises(ProtocolError, match="unknown submission field"):
            submission_from_dict({"benchmark": "X", "designe": "typo"})

    def test_bad_scalar_types_are_rejected(self):
        with pytest.raises(ProtocolError, match="'priority'"):
            submission_from_dict({"benchmark": "X", "priority": "high"})
        with pytest.raises(ProtocolError, match="'token'"):
            submission_from_dict({"benchmark": "X", "token": 7})
        with pytest.raises(ProtocolError, match="'config'"):
            submission_from_dict({"benchmark": "X", "config": []})


class TestPrepareSubmission:
    def test_fills_inputs_and_forces_execution_knobs(self, tmp_path):
        body = {"verilog": SMALL_SOURCE, "top": "widget", "config": {"jobs": 16}}
        _, design, config, fingerprint = prepare_submission(
            body, str(tmp_path / "cache"), True
        )
        assert design.name == "widget"
        assert config.jobs == 1  # the daemon's worker pool is the parallelism
        assert config.cache_dir == str(tmp_path / "cache")
        assert config.inputs == list(design.data_inputs)
        assert len(fingerprint) == 64

    def test_fingerprint_ignores_submitted_execution_knobs(self, tmp_path):
        base = {"verilog": SMALL_SOURCE, "top": "widget"}
        tuned = {
            "verilog": SMALL_SOURCE,
            "top": "widget",
            "config": {"jobs": 8, "cache_dir": "/elsewhere", "use_cache": False},
            "priority": 9,
            "token": "someone-else",
        }
        fp_base = prepare_submission(base, str(tmp_path), True)[3]
        fp_tuned = prepare_submission(tuned, str(tmp_path), True)[3]
        assert fp_base == fp_tuned

    def test_fingerprint_tracks_semantic_config_and_source(self, tmp_path):
        base = {"verilog": SMALL_SOURCE, "top": "widget"}
        # cumulative_assumptions is a semantic knob (it enters the config
        # fingerprint).
        strict = {
            "verilog": SMALL_SOURCE,
            "top": "widget",
            "config": {"cumulative_assumptions": False},
        }
        mutated = {"verilog": SMALL_SOURCE.replace("4'd3", "4'd5"), "top": "widget"}
        fingerprints = {
            prepare_submission(body, str(tmp_path), True)[3]
            for body in (base, strict, mutated)
        }
        assert len(fingerprints) == 3

    @pytest.mark.parametrize("schedule", [{"max_class": 1}, {"stop_at_first_failure": False}])
    def test_fingerprint_tracks_the_schedule(self, tmp_path, schedule):
        # The class cache ignores these knobs, but they decide which classes
        # a report contains: a truncated audit must not stand in for a full
        # one, nor a first-failure audit for a check-all one.
        base = {"verilog": SMALL_SOURCE, "top": "widget"}
        scheduled = dict(base, config=schedule)
        fp_base = prepare_submission(base, str(tmp_path), True)[3]
        fp_scheduled = prepare_submission(scheduled, str(tmp_path), True)[3]
        assert fp_base != fp_scheduled

    def test_unknown_benchmark_raises_design_error(self, tmp_path):
        with pytest.raises(DesignError, match="unknown benchmark"):
            prepare_submission({"benchmark": "AES-T0"}, str(tmp_path), True)

    def test_sequential_without_golden_is_rejected_at_submit_time(self, tmp_path):
        body = {
            "verilog": SMALL_SOURCE,
            "top": "widget",
            "config": {"mode": "sequential"},
        }
        with pytest.raises(ProtocolError, match="no golden model"):
            prepare_submission(body, str(tmp_path), True)


class TestJobRecord:
    def test_round_trip(self):
        job = Job(
            id="abc123",
            fingerprint="f" * 64,
            state="running",
            submission={"benchmark": "X"},
            design_name="X",
            mode="combinational",
            priority=2,
            token="ci",
            created_s=1.5,
            started_s=2.5,
            submissions=3,
            restarts=1,
        )
        assert Job.from_dict(job.to_dict()) == job

    def test_rejects_unknown_state(self):
        data = Job(
            id="a", fingerprint="f", state="queued", submission={}, design_name="d",
            mode="combinational",
        ).to_dict()
        data["state"] = "paused"
        with pytest.raises(ReproError, match="unknown job state"):
            Job.from_dict(data)

    def test_summary_hides_the_submission_body(self):
        job = Job(
            id="a", fingerprint="f", state="queued",
            submission={"verilog": SMALL_SOURCE}, design_name="d",
            mode="combinational",
        )
        summary = job.summary_dict()
        assert "submission" not in summary and summary["id"] == "a"


# ---------------------------------------------------------------------- #
# SSE codec
# ---------------------------------------------------------------------- #


class TestSseCodec:
    def test_encode_parse_round_trip(self):
        import io

        frames = (
            sse.encode_event({"a": 1}, event="RunStarted", event_id=0)
            + sse.KEEPALIVE_COMMENT
            + sse.encode_event({"b": [1, 2]}, event="end")
        )
        parsed = list(sse.iter_events(io.BytesIO(frames)))
        assert [frame.event for frame in parsed] == ["RunStarted", "end"]
        assert parsed[0].json() == {"a": 1} and parsed[0].id == "0"
        assert parsed[1].json() == {"b": [1, 2]}

    def test_multiline_data_concatenates(self):
        import io

        raw = b"event: x\ndata: line1\ndata: line2\n\n"
        (frame,) = sse.iter_events(io.BytesIO(raw))
        assert frame.data == "line1\nline2"

    def test_unterminated_final_frame_still_yields(self):
        import io

        raw = b"data: {\"a\": 1}\n"
        (frame,) = sse.iter_events(io.BytesIO(raw))
        assert frame.json() == {"a": 1} and frame.event is None


# ---------------------------------------------------------------------- #
# Job queue
# ---------------------------------------------------------------------- #


def _submit(queue, fingerprint, priority=0, token=""):
    return queue.submit(
        fingerprint,
        {"benchmark": "X"},
        design_name="X",
        mode="combinational",
        priority=priority,
        token=token,
    )


@pytest.fixture()
def open_queue(tmp_path):
    """Open a :class:`JobQueue` on ``tmp_path``; each is closed at teardown."""
    opened = []

    def factory(**kwargs):
        queue = JobQueue(str(tmp_path), **kwargs)
        opened.append(queue)
        return queue

    yield factory
    for queue in opened:
        queue.close()


class TestJobQueue:
    def test_priority_order_then_fifo(self, open_queue):
        queue = open_queue()
        low1, _ = _submit(queue, "a" * 64, priority=0)
        high, _ = _submit(queue, "b" * 64, priority=5)
        low2, _ = _submit(queue, "c" * 64, priority=0)
        claimed = [queue.claim(timeout=0.1).id for _ in range(3)]
        assert claimed == [high.id, low1.id, low2.id]
        assert queue.claim(timeout=0.05) is None

    def test_dedup_attaches_and_bumps_priority(self, open_queue):
        queue = open_queue()
        first, dedup1 = _submit(queue, "a" * 64, priority=0)
        _submit(queue, "b" * 64, priority=3)
        again, dedup2 = _submit(queue, "a" * 64, priority=9)
        assert not dedup1 and dedup2
        assert again.id == first.id and again.submissions == 2
        # The bump reorders the queue: the deduplicated job now runs first.
        assert queue.claim(timeout=0.1).id == first.id

    def test_dedup_attaches_to_completed_job(self, open_queue):
        queue = open_queue()
        job, _ = _submit(queue, "a" * 64)
        queue.claim(timeout=0.1)
        queue.finish(job.id, {"verdict": "secure"}, [])
        again, deduplicated = _submit(queue, "a" * 64)
        assert deduplicated and again.id == job.id and again.state == "done"

    def test_failed_job_does_not_absorb_resubmission(self, open_queue):
        queue = open_queue()
        job, _ = _submit(queue, "a" * 64)
        queue.claim(timeout=0.1)
        queue.fail(job.id, "worker exploded")
        retry, deduplicated = _submit(queue, "a" * 64)
        assert not deduplicated and retry.id != job.id

    def test_quota_counts_incomplete_jobs_per_token(self, open_queue):
        queue = open_queue(default_quota=1)
        job, _ = _submit(queue, "a" * 64, token="alice")
        with pytest.raises(QuotaExceededError, match="alice"):
            _submit(queue, "b" * 64, token="alice")
        _submit(queue, "c" * 64, token="bob")  # other tokens unaffected
        # A deduplicated resubmission is not new work: never quota-blocked.
        again, deduplicated = _submit(queue, "a" * 64, token="alice")
        assert deduplicated and again.id == job.id
        # Completion frees the quota slot.
        queue.claim(timeout=0.1)
        queue.claim(timeout=0.1)
        queue.finish(job.id, {}, [])
        _submit(queue, "d" * 64, token="alice")

    def test_per_token_quota_override(self, open_queue):
        queue = open_queue(default_quota=1, quotas={"ci": 2})
        _submit(queue, "a" * 64, token="ci")
        _submit(queue, "b" * 64, token="ci")
        with pytest.raises(QuotaExceededError):
            _submit(queue, "c" * 64, token="ci")

    def test_journal_survives_reopen(self, open_queue):
        queue = open_queue()
        job, _ = _submit(queue, "a" * 64)
        queue.claim(timeout=0.1)
        queue.finish(job.id, {"verdict": "secure"}, [{"event": "RunStarted"}])
        queue.close()

        reopened = open_queue()
        stored = reopened.get(job.id)
        assert stored.state == "done" and stored.submissions == 1
        assert reopened.report_for(job.id) == {"verdict": "secure"}
        assert reopened.events_for(job.id) == [{"event": "RunStarted"}]
        assert reopened.recovered_jobs == 0

    def test_incomplete_jobs_requeue_on_reopen(self, open_queue):
        queue = open_queue()
        queued_job, _ = _submit(queue, "a" * 64)
        running_job, _ = _submit(queue, "b" * 64, priority=1)
        claimed = queue.claim(timeout=0.1)
        assert claimed.id == running_job.id and claimed.state == "running"

        # Simulate a crash: the daemon goes away mid-audit and a fresh
        # queue reopens the directory.  A closed queue writes nothing more,
        # so a late verdict cannot race the next daemon.
        queue.close()
        assert queue.claim(timeout=0.1) is None
        with pytest.raises(ReproError, match="closed"):
            queue.finish(running_job.id, {"verdict": "secure"}, [])
        reopened = open_queue()
        assert reopened.recovered_jobs == 2
        recovered = reopened.get(running_job.id)
        assert recovered.state == "queued"
        assert recovered.restarts == 1  # only the mid-run job counts a restart
        assert reopened.get(queued_job.id).restarts == 0
        # Both are claimable again, original priority order preserved.
        assert reopened.claim(timeout=0.1).id == running_job.id
        assert reopened.claim(timeout=0.1).id == queued_job.id

    def test_second_queue_on_a_held_directory_fails_closed(self, tmp_path, open_queue):
        queue = open_queue()
        with pytest.raises(ReproError, match="in use by another daemon"):
            open_queue()
        # The lock holds across processes too: ``repro serve`` exits 2.
        src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        second = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--queue-dir", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": os.path.abspath(src_dir)},
            capture_output=True, text=True, timeout=60,
        )
        assert second.returncode == 2, second.stderr
        assert "in use by another daemon" in second.stderr
        queue.close()
        open_queue()  # a closed queue frees the directory

    def test_negative_quotas_are_rejected(self, open_queue):
        with pytest.raises(ReproError, match="default quota"):
            open_queue(default_quota=-1)
        with pytest.raises(ReproError, match="token 'ci' quota"):
            open_queue(quotas={"ci": -2})
        # Zero means unlimited, and the refusals left the directory unlocked.
        open_queue(default_quota=0, quotas={"ci": 0})

    def test_recovered_jobs_keep_dedup_identity(self, open_queue):
        queue = open_queue()
        job, _ = _submit(queue, "a" * 64)
        queue.close()
        reopened = open_queue()
        again, deduplicated = _submit(reopened, "a" * 64)
        assert deduplicated and again.id == job.id

    def test_corrupt_journal_entry_is_ignored(self, tmp_path, open_queue):
        queue = open_queue()
        job, _ = _submit(queue, "a" * 64)
        jobs_dir = tmp_path / "jobs"
        (jobs_dir / "zzzz.json").write_text("{not json")
        (jobs_dir / "not-an-object.json").write_text("[]")
        good = json.loads((jobs_dir / f"{job.id}.json").read_text())
        good["serve_schema"] = 999
        (jobs_dir / "wrong-schema.json").write_text(json.dumps(good))
        queue.close()

        reopened = open_queue()
        assert [j.id for j in reopened.jobs()] == [job.id]
        # Corruption is counted and surfaced (repro_journal_corrupt_total),
        # never silently absorbed.
        assert reopened.corrupt_journals == 3
        assert reopened.stats()["corrupt_journals"] == 3

    def test_claim_blocks_until_submit(self, open_queue):
        queue = open_queue()
        claimed = []
        worker = threading.Thread(
            target=lambda: claimed.append(queue.claim(timeout=5.0))
        )
        worker.start()
        job, _ = _submit(queue, "a" * 64)
        worker.join(timeout=5.0)
        assert not worker.is_alive() and claimed[0].id == job.id

    def test_stats_counts_by_state(self, open_queue):
        queue = open_queue()
        job, _ = _submit(queue, "a" * 64)
        _submit(queue, "b" * 64)
        queue.claim(timeout=0.1)
        queue.fail(job.id, "boom")
        stats = queue.stats()
        assert stats["jobs"] == 2
        assert stats["by_state"] == {
            "queued": 1, "running": 0, "done": 0, "failed": 1,
        }

    def test_wait_idle_timeout_ignores_wall_clock_jumps(self, open_queue, monkeypatch):
        import repro.serve.queue as queue_mod

        queue = open_queue()
        _submit(queue, "a" * 64)  # a non-terminal job keeps the queue busy
        # An NTP-style step of the wall clock (now_s) must not stretch the
        # timeout: wait_idle is specified over the monotonic clock.
        monkeypatch.setattr(queue_mod, "now_s", lambda: 1e12)
        started = time.monotonic()
        assert queue.wait_idle(timeout=0.2) is False
        assert time.monotonic() - started < 2.0


# ---------------------------------------------------------------------- #
# HTTP daemon, end to end
# ---------------------------------------------------------------------- #


@pytest.fixture()
def server(tmp_path):
    instance = AuditServer(port=0, queue_dir=str(tmp_path / "serve"), jobs=2)
    instance.start()
    yield instance
    instance.stop()


@pytest.fixture()
def client(server):
    return ServeClient(server.url, timeout=30.0)


class TestServeHTTP:
    def test_health_and_stats(self, client):
        health = client.health()
        assert health["status"] == "ok" and health["protocol"] == 1
        stats = client.stats()
        assert stats["workers"] == 2 and "queue" in stats and "cache" in stats

    def test_submitted_audit_matches_in_process_session(self, client):
        handle = client.submit({"verilog": TROJANED_SMALL_SOURCE, "top": "widget"})
        assert not handle["deduplicated"]
        job_id = handle["job"]["id"]

        events = list(client.stream_events(job_id))
        assert isinstance(events[0], RunStarted)
        assert isinstance(events[-1], RunFinished)

        served = client.report(job_id)
        direct = DetectionSession(
            Design.from_source(TROJANED_SMALL_SOURCE, top="widget")
        ).run()
        assert served.trojan_detected
        assert normalized_report_dict(served.to_dict()) == normalized_report_dict(
            direct.to_dict()
        )
        # The SSE stream's RunFinished carries the same report.
        assert events[-1].report.to_dict() == served.to_dict()

    def test_duplicate_submission_attaches_without_new_work(self, client):
        body = {"verilog": SMALL_SOURCE, "top": "widget"}
        first = client.submit(body)
        client.wait(first["job"]["id"], timeout=60.0)
        solver_calls_before = client.stats()["counters"]["completed"]

        second = client.submit(body)
        assert second["deduplicated"]
        assert second["job"]["id"] == first["job"]["id"]
        assert second["job"]["submissions"] == 2
        stats = client.stats()
        assert stats["counters"]["deduplicated"] == 1
        assert stats["counters"]["completed"] == solver_calls_before  # no re-run

    def test_full_audit_is_not_served_a_truncated_report(self, client):
        truncated = client.submit(
            {"verilog": SMALL_SOURCE, "top": "widget", "config": {"max_class": 1}}
        )
        client.wait(truncated["job"]["id"], timeout=60.0)
        assert client.report(truncated["job"]["id"]).verdict.value == "uncovered-signals"

        full = client.submit({"verilog": SMALL_SOURCE, "top": "widget"})
        assert not full["deduplicated"]
        client.wait(full["job"]["id"], timeout=60.0)
        assert client.report(full["job"]["id"]).is_secure

    def test_terminal_job_replays_event_stream(self, client):
        handle = client.submit({"verilog": SMALL_SOURCE, "top": "widget"})
        job_id = handle["job"]["id"]
        client.wait(job_id, timeout=60.0)
        live = [type(e).__name__ for e in client.stream_events(job_id)]
        replay = [type(e).__name__ for e in client.stream_events(job_id)]
        assert live == replay and replay[-1] == "RunFinished"

    def test_bad_submission_is_http_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit({"verilog": "module broken(", "top": "broken"})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.submit({"benchmark": "AES-T0"})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.submit({"top": "widget"})
        assert excinfo.value.status == 400

    def test_unknown_job_is_http_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.report_dict("doesnotexist")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client.job("doesnotexist")
        assert excinfo.value.status == 404

    def test_unknown_endpoint_is_http_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("/v2/audits")
        assert excinfo.value.status == 404

    def test_malformed_content_length_is_http_400(self, server):
        # Raw sockets: a client library would refuse to send these headers.
        # The timeout turns a handler blocked on the body into a failure.
        for length in ("abc", "-1"):
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as conn:
                conn.sendall(
                    b"POST /v1/audits HTTP/1.0\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + length.encode("ascii") + b"\r\n\r\n"
                )
                response = b""
                while True:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    response += chunk
            head, _, body = response.partition(b"\r\n\r\n")
            assert head.split(b" ")[1] == b"400", (length, response)
            assert "Content-Length" in json.loads(body)["error"]

    def test_jobs_listing(self, client):
        client.submit({"verilog": SMALL_SOURCE, "top": "widget"})
        listing = client.jobs()
        assert len(listing["jobs"]) == 1
        assert "submission" not in listing["jobs"][0]


class TestServeAdmission:
    def test_quota_is_http_429_and_priority_orders_jobs(self, tmp_path):
        # jobs=0: the daemon accepts and journals but never runs — queued
        # jobs stay queued, making admission behaviour deterministic.
        server = AuditServer(
            port=0, queue_dir=str(tmp_path / "serve"), jobs=0, default_quota=2
        )
        server.start()
        try:
            alice = ServeClient(server.url, token="alice", timeout=10.0)
            bob = ServeClient(server.url, token="bob", timeout=10.0)
            alice.submit({"verilog": SMALL_SOURCE, "top": "widget"})
            alice.submit(
                {"verilog": TROJANED_SMALL_SOURCE, "top": "widget", "priority": 7}
            )
            with pytest.raises(ServeError) as excinfo:
                alice.submit({"benchmark": "RS232-HT-FREE"})
            assert excinfo.value.status == 429
            bob.submit({"benchmark": "RS232-HT-FREE"})  # bob has his own quota

            with pytest.raises(ServeError) as excinfo:
                alice.report_dict(alice.jobs()["jobs"][0]["id"])
            assert excinfo.value.status == 409  # queued, no report yet

            # The worker-side claim order honours the priority field.
            assert server.queue.claim(timeout=0.1).priority == 7
        finally:
            server.stop()

    def test_negative_jobs_or_quota_is_rejected(self, tmp_path):
        queue_dir = str(tmp_path / "serve")
        with pytest.raises(ReproError, match="jobs must be 0"):
            AuditServer(port=0, queue_dir=queue_dir, jobs=-1)
        with pytest.raises(ReproError, match="token 'ci' quota"):
            AuditServer(port=0, queue_dir=queue_dir, quotas={"ci": -1})
        # Both were refused before the queue directory was locked.
        JobQueue(queue_dir).close()

    def test_oversized_submission_is_http_413(self, tmp_path):
        # The daemon reads and discards the body before answering, so a
        # client still sending it gets the 413, not a reset connection.  The
        # body outgrows the socket buffers, so answering it unread fails
        # every time, not only sometimes.
        server = AuditServer(
            port=0, queue_dir=str(tmp_path / "serve"), jobs=0, max_body_bytes=1024
        )
        server.start()
        try:
            client = ServeClient(server.url, timeout=30.0)
            with pytest.raises(ServeError) as excinfo:
                client.submit({"verilog": "x" * 16_000_000, "top": "widget"})
            assert excinfo.value.status == 413
            assert client.stats()["queue"]["jobs"] == 0
        finally:
            server.stop()

    def test_restart_completes_journaled_jobs(self, tmp_path):
        queue_dir = str(tmp_path / "serve")
        accept_only = AuditServer(port=0, queue_dir=queue_dir, jobs=0)
        accept_only.start()
        try:
            submitter = ServeClient(accept_only.url, timeout=10.0)
            handle = submitter.submit(
                {"verilog": TROJANED_SMALL_SOURCE, "top": "widget"}
            )
            job_id = handle["job"]["id"]
            assert submitter.job(job_id)["state"] == "queued"
        finally:
            accept_only.stop()

        # "Restart" the daemon with workers on the same queue directory: the
        # journaled job must complete without being resubmitted.
        restarted = AuditServer(port=0, queue_dir=queue_dir, jobs=1)
        restarted.start()
        try:
            assert restarted.queue.recovered_jobs == 1
            client = ServeClient(restarted.url, timeout=30.0)
            final = client.wait(job_id, timeout=60.0)
            assert final["state"] == "done"
            served = client.report(job_id)
            direct = DetectionSession(
                Design.from_source(TROJANED_SMALL_SOURCE, top="widget")
            ).run()
            assert normalized_report_dict(
                served.to_dict()
            ) == normalized_report_dict(direct.to_dict())
        finally:
            restarted.stop()

    def test_failed_audit_streams_error_and_allows_retry(self, tmp_path):
        # An unknown golden module elaborates only at run time? No — design
        # errors are caught at submit time.  Force a runtime failure by
        # journaling a job whose stored submission no longer parses.
        server = AuditServer(port=0, queue_dir=str(tmp_path / "serve"), jobs=1)
        server.start()
        try:
            job, _ = server.queue.submit(
                "e" * 64,
                {"verilog": "module broken(", "top": "broken"},
                design_name="broken",
                mode="combinational",
            )
            client = ServeClient(server.url, timeout=10.0)
            final = client.wait(job.id, timeout=30.0)
            assert final["state"] == "failed" and final["error"]
            from repro.serve.client import AuditFailedError

            with pytest.raises(AuditFailedError):
                list(client.stream_events(job.id))
            with pytest.raises(ServeError) as excinfo:
                client.report_dict(job.id)
            assert excinfo.value.status == 409
        finally:
            server.stop()


    def test_a_job_failing_on_its_own_input_logs_one_line(self, tmp_path, caplog):
        # An unknown config field is the job's own fault: the daemon logs
        # its message as one warning, with no traceback.
        caplog.set_level(logging.WARNING, logger="repro.serve")
        server = AuditServer(port=0, queue_dir=str(tmp_path / "serve"), jobs=1)
        server.start()
        try:
            job, _ = server.queue.submit(
                "f" * 64,
                {"benchmark": "RS232-HT-FREE", "config": {"simplify": False}},
                design_name="RS232-HT-FREE",
                mode="combinational",
            )
            final = ServeClient(server.url, timeout=10.0).wait(job.id, timeout=30.0)
        finally:
            server.stop()
        assert final["state"] == "failed" and "simplify" in final["error"]
        [record] = [
            record
            for record in caplog.records
            if record.name == "repro.serve" and job.id in record.getMessage()
        ]
        assert record.levelno == logging.WARNING
        assert "simplify" in record.getMessage()
        assert record.exc_info is None


# ---------------------------------------------------------------------- #
# Multi-process result-cache sharing
# ---------------------------------------------------------------------- #


def _cache_writer(root: str, worker: int, keys, results) -> None:
    """Write every key (contended), then verify own reads; run in a child."""
    cache = ResultCache(root)
    for index, key in enumerate(keys):
        cache.put(key, {"worker": worker, "index": index})
    hits = sum(1 for key in keys if cache.get(key) is not None)
    results.put((worker, hits, cache.corrupt_skipped))


class TestMultiProcessCacheSharing:
    def test_concurrent_writers_no_corruption_no_lost_hits(self, tmp_path):
        root = str(tmp_path / "shared-cache")
        keys = [class_cache_key("m" * 8, "c" * 8, index) for index in range(64)]
        context = multiprocessing.get_context("fork")
        results = context.Queue()
        writers = [
            context.Process(target=_cache_writer, args=(root, worker, keys, results))
            for worker in range(2)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=60)
            assert process.exitcode == 0

        outcomes = {results.get(timeout=10)[0]: None for _ in writers}
        assert set(outcomes) == {0, 1}

        # Every entry is readable afterwards (no torn writes), attributable
        # to one of the two writers, and stats agree with the key count.
        reader = ResultCache(root)
        for key in keys:
            record = reader.get(key)
            assert record is not None, "lost or corrupt entry"
            assert record["worker"] in (0, 1)
        assert reader.corrupt_skipped == 0
        stats = reader.stats()
        assert stats["entries"] == len(keys)
        assert stats["bytes"] > 0 and stats["cache_schema"] >= 1

    def test_writer_processes_see_full_hit_rate(self, tmp_path):
        root = str(tmp_path / "shared-cache")
        keys = [class_cache_key("n" * 8, "d" * 8, index) for index in range(32)]
        context = multiprocessing.get_context("fork")
        results = context.Queue()
        writers = [
            context.Process(target=_cache_writer, args=(root, worker, keys, results))
            for worker in range(2)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=60)
        for _ in writers:
            worker, hits, corrupt = results.get(timeout=10)
            # Reads that race another process's atomic replace still hit:
            # os.replace guarantees the old or the new entry, never neither.
            assert hits == len(keys), f"worker {worker} lost hits"
            assert corrupt == 0


# ---------------------------------------------------------------------- #
# Daemon crash recovery (SIGKILL a real process, restart on its queue dir)
# ---------------------------------------------------------------------- #


_VICTIM_DAEMON_SCRIPT = """
import sys, time
from repro.serve import AuditServer

server = AuditServer(
    host="127.0.0.1", port=0, queue_dir=sys.argv[1], jobs=1, use_cache=False,
)
server.start()
print(server.url, flush=True)
while True:
    time.sleep(1.0)
"""


class TestDaemonCrashRecovery:
    def test_killed_daemon_job_reruns_once_after_restart(self, tmp_path):
        """SIGKILL a daemon mid-audit; a restarted daemon on its dir finishes it.

        The victim runs in a real subprocess with solver_stall faults planned
        (every SAT call sleeps), so its audit is reliably still in flight
        when the kill lands.  The kernel frees the dead daemon's directory
        lock, so the restarted daemon (default settings, fault-free in this
        process) opens the directory, re-queues the interrupted job at
        construction with ``restarts`` bumped, and finishes it exactly once.
        """
        queue_dir = str(tmp_path / "queue")
        src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src_dir)
        env["REPRO_FAULTS"] = ",".join(
            f"solver_stall@check:{n}" for n in range(1, 101)
        )
        victim = subprocess.Popen(
            [sys.executable, "-c", _VICTIM_DAEMON_SCRIPT, queue_dir],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            url = victim.stdout.readline().strip()
            assert url.startswith("http"), f"victim daemon failed to start: {url!r}"
            victim_client = ServeClient(url, timeout=10.0)
            handle = victim_client.submit({
                "verilog": SLOW_SECURE_SOURCE,
                "top": "widget",
            })
            job_id = handle["job"]["id"]
            # Kill the instant the audit is observably mid-run: the claim
            # journals the job as running *before* the (stall-slowed)
            # solving starts, so the kill always lands mid-audit.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if victim_client.job(job_id)["state"] == "running":
                    break
                time.sleep(0.02)
            else:
                pytest.fail("victim daemon never started running the job")
            victim.kill()  # SIGKILL: no shutdown hooks run
            victim.wait(timeout=10.0)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=10.0)
            victim.stdout.close()

        restarted = AuditServer(port=0, queue_dir=queue_dir)
        try:
            assert restarted.queue.recovered_jobs == 1
            restarted.start()
            client = ServeClient(restarted.url, timeout=30.0)
            job = client.wait(job_id, timeout=60.0)
            assert job["state"] == "done", f"job ended as {job!r}"
            assert job["restarts"] == 1
            assert client.report_dict(job_id)["verdict"] == "secure"
            # Exactly once: only the restarted daemon's completion counts.
            stats = client.stats()
            assert stats["counters"]["completed"] == 1
            assert stats["queue"]["by_state"]["running"] == 0
        finally:
            restarted.stop()
