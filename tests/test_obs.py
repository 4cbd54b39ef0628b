"""Tests for the observability subsystem (:mod:`repro.obs`).

Covers the span tracer (ambient install, no-op default, Chrome trace
export, cross-process merge via the chunk-result channel), the exclusive
phase profile, the metrics registry's Prometheus exposition, the solver
progress heartbeats, and the hard invariant of the whole subsystem:
observability is a pure execution knob — a traced run's normalized report
is byte-identical to an untraced one, at any worker count.
"""

import json
import threading
import urllib.request

import pytest

from repro.api import Design, DetectionConfig, DetectionSession, SolverProgress
from repro.exec.records import normalized_report_dict
from repro.obs import metrics as obs_metrics
from repro.obs import progress as obs_progress
from repro.obs import trace as obs_trace
from repro.obs.trace import Tracer, install_tracer, phase_profile, span
from repro.rtl import elaborate_source
from repro.utils.timing import Stopwatch


# ---------------------------------------------------------------------- #
# Tracer and spans
# ---------------------------------------------------------------------- #


class TestTracer:
    def test_span_is_noop_without_tracer(self):
        assert obs_trace.current_tracer() is None
        with span("solve", cls=1):
            pass  # must not raise, must not record anywhere

    def test_spans_record_on_the_ambient_tracer(self):
        with install_tracer(Tracer()) as tracer:
            with span("outer", design="d"):
                with span("inner"):
                    pass
        events = tracer.export()
        assert [event["name"] for event in events] == ["inner", "outer"]
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["dur"] >= 0
        assert events[1]["args"] == {"design": "d"}

    def test_install_restores_previous_tracer(self):
        outer = Tracer()
        with install_tracer(outer):
            with install_tracer(Tracer()):
                pass
            assert obs_trace.current_tracer() is outer
        assert obs_trace.current_tracer() is None

    def test_absorb_merges_foreign_events(self):
        tracer = Tracer()
        with install_tracer(tracer):
            obs_trace.absorb([{"name": "settle", "ph": "X", "ts": 1.0, "dur": 2.0,
                              "pid": 999, "tid": 1, "cat": "repro"}])
        assert len(tracer) == 1
        assert tracer.export()[0]["pid"] == 999

    def test_chrome_trace_shape_is_json_native(self):
        tracer = Tracer()
        tracer.record("solve", started=0.5, duration=0.25, args={"cls": 3})
        document = json.loads(json.dumps(tracer.to_chrome_trace()))
        assert document["displayTimeUnit"] == "ms"
        (event,) = document["traceEvents"]
        assert event["ts"] == pytest.approx(0.5e6)
        assert event["dur"] == pytest.approx(0.25e6)


class TestPhaseProfile:
    def test_nested_spans_count_self_time_only(self):
        # settle [0, 10] contains solve [2, 6]: settle's self time is 6.
        events = [
            {"name": "settle", "ph": "X", "ts": 0.0, "dur": 10e6, "pid": 1, "tid": 1},
            {"name": "solve", "ph": "X", "ts": 2e6, "dur": 4e6, "pid": 1, "tid": 1},
        ]
        profile = phase_profile(events)
        assert profile["phases"]["settle"]["total_s"] == pytest.approx(6.0)
        assert profile["phases"]["solve"]["total_s"] == pytest.approx(4.0)
        assert profile["solve_s"] == pytest.approx(4.0)
        assert profile["total_s"] == pytest.approx(10.0)

    def test_lanes_do_not_nest_across_processes(self):
        # Identical timestamps in different pids are siblings, not nested.
        events = [
            {"name": "solve", "ph": "X", "ts": 0.0, "dur": 5e6, "pid": 1, "tid": 1},
            {"name": "solve", "ph": "X", "ts": 0.0, "dur": 5e6, "pid": 2, "tid": 1},
        ]
        profile = phase_profile(events)
        assert profile["phases"]["solve"]["count"] == 2
        assert profile["phases"]["solve"]["total_s"] == pytest.approx(10.0)

    def test_preprocess_solve_split(self):
        events = [
            {"name": "preprocess", "ph": "X", "ts": 0.0, "dur": 3e6, "pid": 1, "tid": 1},
            {"name": "solve", "ph": "X", "ts": 4e6, "dur": 1e6, "pid": 1, "tid": 1},
        ]
        profile = phase_profile(events)
        assert profile["preprocess_s"] == pytest.approx(3.0)
        assert profile["solve_s"] == pytest.approx(1.0)


# ---------------------------------------------------------------------- #
# Metrics registry
# ---------------------------------------------------------------------- #


class TestMetricsRegistry:
    def test_counters_are_monotonic(self):
        registry = obs_metrics.MetricsRegistry()
        registry.inc("repro_jobs_total")
        registry.inc("repro_jobs_total", 2)
        assert registry.value("repro_jobs_total") == 3
        with pytest.raises(ValueError):
            registry.inc("repro_jobs_total", -1)

    def test_kind_mismatch_is_an_error(self):
        registry = obs_metrics.MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(TypeError):
            registry.gauge("x_total")

    def test_render_is_valid_prometheus_text(self):
        registry = obs_metrics.MetricsRegistry()
        registry.inc("repro_jobs_total", 2, help_text="Jobs")
        registry.set_gauge("repro_queue_depth", 1, help_text="Depth")
        registry.observe("repro_wait_seconds", 0.03, help_text="Wait")
        text = registry.render()
        assert text.endswith("\n")
        lines = text.splitlines()
        # Every line is a comment or `name{labels} value` with a float value.
        for line in lines:
            if line.startswith("#"):
                kind = line.split()
                assert kind[1] in ("HELP", "TYPE")
                continue
            name, value = line.rsplit(" ", 1)
            float(value)  # must parse
        assert "# TYPE repro_jobs_total counter" in lines
        assert "repro_jobs_total 2" in lines
        assert "# TYPE repro_queue_depth gauge" in lines
        assert "# TYPE repro_wait_seconds histogram" in lines
        assert 'repro_wait_seconds_bucket{le="+Inf"} 1' in lines
        assert "repro_wait_seconds_count 1" in lines

    def test_histogram_buckets_are_cumulative(self):
        registry = obs_metrics.MetricsRegistry()
        for value in (0.001, 0.03, 10.0):
            registry.observe("lat", value, buckets=(0.01, 1.0, 60.0))
        histogram = registry.histogram("lat")
        assert histogram.bucket_counts == [1, 2, 3]

    def test_gauge_callable_evaluates_at_render(self):
        registry = obs_metrics.MetricsRegistry()
        depth = [4]
        registry.gauge("depth", fn=lambda: depth[0])
        assert "depth 4" in registry.render().splitlines()
        depth[0] = 7
        assert "depth 7" in registry.render().splitlines()


# ---------------------------------------------------------------------- #
# Progress heartbeats
# ---------------------------------------------------------------------- #


class TestProgressHeartbeats:
    def test_no_sink_means_no_heartbeat(self):
        assert obs_progress.active_heartbeat() is None
        with obs_progress.progress_scope("d", 0, "init"):
            assert obs_progress.active_heartbeat() is None  # sink missing

    def test_sink_without_scope_is_inactive(self):
        with obs_progress.progress_sink(lambda event: None):
            assert obs_progress.active_heartbeat() is None  # scope missing

    def test_heartbeat_emits_solver_progress(self, monkeypatch):
        monkeypatch.setattr(obs_progress, "HEARTBEAT_CONFLICTS", 100)
        got = []
        with obs_progress.progress_sink(got.append):
            with obs_progress.progress_scope("dsn", 2, "fanout"):
                heartbeat = obs_progress.active_heartbeat()
                assert heartbeat is not None and heartbeat.interval == 100
                heartbeat.emit(
                    conflicts=200, restarts=1, learned_clauses=150, decision_level=9
                )
        (event,) = got
        assert isinstance(event, SolverProgress)
        assert (event.design, event.index, event.kind) == ("dsn", 2, "fanout")
        assert event.conflicts == 200
        # exact wire round-trip (dataclass equality, scalar payload)
        from repro.core.events import event_from_dict

        assert event_from_dict(event.to_dict()) == event

    def test_session_run_emits_heartbeats_on_hard_solves(self, monkeypatch, sat_trojan_module):
        monkeypatch.setattr(obs_progress, "HEARTBEAT_CONFLICTS", 2)
        design = Design.from_module(sat_trojan_module)
        session = DetectionSession(design)
        beats = []
        session.subscribe(beats.append, event_type=SolverProgress)
        report = session.run()
        assert report.solver_conflicts >= 2
        assert beats, "a conflict-heavy solve must heartbeat"
        for beat in beats:
            assert beat.design == design.name
            assert beat.conflicts % 2 == 0 and beat.conflicts > 0

    def test_heartbeats_never_enter_the_result_stream(self, monkeypatch, sat_trojan_module):
        monkeypatch.setattr(obs_progress, "HEARTBEAT_CONFLICTS", 2)
        yielded = list(DetectionSession(sat_trojan_module).iter_results())
        assert not any(isinstance(event, SolverProgress) for event in yielded)


# ---------------------------------------------------------------------- #
# The hard invariant: observability is a pure execution knob
# ---------------------------------------------------------------------- #


class TestTraceIsAnExecutionKnob:
    def _normalized(self, module, **overrides):
        config = DetectionConfig(**overrides)
        report = DetectionSession(module, config=config).run()
        return normalized_report_dict(report.to_dict())

    def test_trace_not_in_fingerprint(self):
        from repro.exec.fingerprint import config_fingerprint

        traced = config_fingerprint(DetectionConfig(trace=True))
        untraced = config_fingerprint(DetectionConfig(trace=False))
        assert traced == untraced

    def test_normalized_report_identical_traced_or_not(self, trojaned_module):
        baseline = self._normalized(trojaned_module, trace=False)
        assert self._normalized(trojaned_module, trace=True) == baseline

    def test_normalized_report_identical_across_jobs_with_trace(
        self, trojaned_module
    ):
        baseline = self._normalized(trojaned_module, jobs=1, trace=False)
        assert self._normalized(trojaned_module, jobs=2, trace=True) == baseline

    def test_traced_run_attaches_profile_and_strips_it_normalized(
        self, trojaned_module
    ):
        report = DetectionSession(
            trojaned_module, config=DetectionConfig(trace=True)
        ).run()
        assert report.profile is not None
        assert "settle" in report.profile["phases"]
        data = report.to_dict()
        assert data["profile"] == report.profile
        assert "profile" not in normalized_report_dict(data)

    def test_untraced_run_has_no_profile(self, trojaned_module):
        report = DetectionSession(trojaned_module).run()
        assert report.profile is None

    def test_worker_spans_merge_into_ambient_tracer(self, trojaned_module):
        with install_tracer(Tracer()) as tracer:
            DetectionSession(
                trojaned_module, config=DetectionConfig(jobs=2, trace=True)
            ).run()
        names = {event["name"] for event in tracer.export()}
        assert "settle" in names and "bitblast" in names
        pids = {event["pid"] for event in tracer.export()}
        assert len(pids) >= 2, "worker-process spans must come home"


# ---------------------------------------------------------------------- #
# Serve daemon /metrics
# ---------------------------------------------------------------------- #


@pytest.fixture
def audit_server(tmp_path):
    from repro.serve import AuditServer

    server = AuditServer(
        port=0, queue_dir=str(tmp_path / "queue"), jobs=1, use_cache=False
    )
    server.start()
    try:
        yield server
    finally:
        server.stop()


class TestServeMetrics:
    def _scrape(self, server):
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            assert "version=0.0.4" in response.headers["Content-Type"]
            return response.read().decode("utf-8")

    def test_metrics_exposed_before_any_job(self, audit_server):
        text = self._scrape(audit_server)
        lines = text.splitlines()
        assert "repro_jobs_completed_total 0" in lines
        assert "repro_queue_depth 0" in lines
        assert "# TYPE repro_audit_run_seconds histogram" in lines

    def test_counters_increase_monotonically_across_runs(self, audit_server):
        from repro.serve.client import ServeClient

        client = ServeClient(audit_server.url)
        submitted = 0
        for benchmark in ("RS232-T2400", "RS232-HT-FREE"):
            handle = client.submit({"benchmark": benchmark, "config": {}})
            submitted += 1
            for _ in client.stream_events(handle["job"]["id"]):
                pass
        text = self._scrape(audit_server)
        values = {}
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            values[name] = float(value)
        assert values["repro_jobs_submitted_total"] == submitted
        assert values["repro_jobs_completed_total"] == submitted
        assert values["repro_audit_run_seconds_count"] == submitted
        assert values["repro_queue_wait_seconds_count"] == submitted
        assert values["repro_queue_depth"] == 0


# ---------------------------------------------------------------------- #
# Stopwatch thread safety
# ---------------------------------------------------------------------- #


class TestStopwatchThreadSafety:
    def test_concurrent_records_are_all_kept(self):
        stopwatch = Stopwatch()

        def hammer():
            for _ in range(500):
                stopwatch.record("solve", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(stopwatch.durations("solve")) == 8 * 500
        assert stopwatch.total("solve") == pytest.approx(8 * 500 * 0.001)
