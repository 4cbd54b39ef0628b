"""Tests for the persistent result cache and its content fingerprints.

Correctness contract under test:

* the cache key changes on *any* netlist, config, or property mutation, so
  a stale entry can never be replayed for changed inputs;
* corrupt or foreign cache entries are ignored (plain misses), never fatal;
* ``use_cache=False`` (the CLI's ``--no-cache``) bypasses reads *and* writes;
* a warm rerun replays every proven class with zero SAT solver calls and a
  semantically identical report.
"""

import json

import pytest

from repro.api import Design, DetectionConfig, DetectionSession, Waiver
from repro.core.events import (
    ClassProven,
    PropertyScheduled,
    RunStarted,
    StructurallyDischarged,
)
from repro.exec import (
    ResultCache,
    class_cache_key,
    config_fingerprint,
    module_fingerprint,
    normalized_report_dict,
)
from repro.rtl import elaborate_source

CLEAN_SOURCE = """
module widget(input clk, input [7:0] d, output [7:0] q);
  reg [7:0] s1;
  reg [7:0] s2;
  always @(posedge clk) begin
    s1 <= d ^ 8'h5a;
    s2 <= s1 + 8'h01;
  end
  assign q = s2;
endmodule
"""

MUTATED_SOURCE = CLEAN_SOURCE.replace("8'h01", "8'h02")

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


class TestFingerprints:
    def test_module_fingerprint_is_deterministic_across_elaborations(self):
        one = module_fingerprint(elaborate_source(CLEAN_SOURCE, "widget"))
        two = module_fingerprint(elaborate_source(CLEAN_SOURCE, "widget"))
        assert one == two

    def test_module_fingerprint_changes_on_netlist_mutation(self):
        clean = module_fingerprint(elaborate_source(CLEAN_SOURCE, "widget"))
        mutated = module_fingerprint(elaborate_source(MUTATED_SOURCE, "widget"))
        assert clean != mutated

    def test_module_fingerprint_handles_deep_expressions(self):
        # The AES core's S-box muxing produces deep trees; the canonical
        # walk must stay iterative.
        design = Design.from_benchmark("AES-HT-FREE")
        assert len(module_fingerprint(design.module)) == 64

    def test_config_fingerprint_covers_semantic_fields(self):
        base = config_fingerprint(DetectionConfig())
        assert base != config_fingerprint(DetectionConfig(inputs=["a"]))
        assert base != config_fingerprint(DetectionConfig(cumulative_assumptions=False))
        assert base != config_fingerprint(DetectionConfig(waivers=[Waiver("x")]))

    def test_config_fingerprint_ignores_execution_only_fields(self):
        # jobs / cache settings / stop & truncation policy never change a
        # single class's result, so they must share cache entries.
        base = config_fingerprint(DetectionConfig())
        assert base == config_fingerprint(DetectionConfig(jobs=4))
        assert base == config_fingerprint(DetectionConfig(cache_dir="/tmp/x", use_cache=False))
        assert base == config_fingerprint(DetectionConfig(stop_at_first_failure=False))
        assert base == config_fingerprint(DetectionConfig(max_class=1))

    def test_class_key_distinguishes_indices(self):
        keys = {class_cache_key("m", "c", index) for index in range(8)}
        assert len(keys) == 8

    # Every (field, mutation) pair that can change a property's outcome.
    # The base config each mutation is compared against must already enable
    # the field (depth/reset_values are sequential-only), hence the
    # per-entry base kwargs.  If a future DetectionConfig field lands
    # without a row here *and* without a fingerprint feed, the completeness
    # check below fails — the cache can never be silently poisoned again.
    _SEMANTIC_MUTATIONS = [
        (dict(), dict(inputs=["a"])),
        (dict(), dict(cumulative_assumptions=False)),
        (dict(), dict(waivers=[Waiver("x")])),
        (dict(), dict(mode="sequential")),
        (dict(mode="sequential"), dict(mode="sequential", depth=11)),
        (
            dict(mode="sequential"),
            dict(mode="sequential", reset_values={"count": 1}),
        ),
        # A check deadline changes which classes settle vs. degrade to an
        # inconclusive timeout outcome, so timed and untimed runs (and runs
        # with different deadlines) must never share cache entries.
        (dict(), dict(check_timeout_s=5.0)),
    ]
    # ``task_retries`` only decides how many times a task is re-queued after
    # a worker crash before quarantine; a surviving task's record is
    # byte-identical however many retries it took.
    _EXECUTION_ONLY_FIELDS = {
        "stop_at_first_failure", "max_class", "jobs", "cache_dir", "use_cache",
        "trace", "task_retries",
    }
    @pytest.mark.parametrize("base_kwargs, mutated_kwargs", _SEMANTIC_MUTATIONS)
    def test_every_semantic_field_flips_the_fingerprint(self, base_kwargs, mutated_kwargs):
        base = config_fingerprint(DetectionConfig(**base_kwargs))
        mutated = config_fingerprint(DetectionConfig(**mutated_kwargs))
        assert base != mutated, f"fingerprint blind to {mutated_kwargs}"

    def test_semantic_mutation_table_covers_every_config_field(self):
        # Regression guard: a newly added DetectionConfig field must either
        # appear in the mutation table (it affects results and is hashed) or
        # be explicitly listed as execution-only (it never affects results).
        import dataclasses

        all_fields = {field.name for field in dataclasses.fields(DetectionConfig)}
        mutated = {name for _base, change in self._SEMANTIC_MUTATIONS for name in change}
        unaccounted = all_fields - mutated - self._EXECUTION_ONLY_FIELDS
        assert not unaccounted, (
            f"DetectionConfig field(s) {sorted(unaccounted)} are neither in the "
            f"fingerprint-sensitivity table nor declared execution-only; add "
            f"them to one (and to config_fingerprint if they change results)"
        )

    def test_sequential_fingerprint_ignores_combinational_only_knobs(self):
        # Waivers, traced inputs and the property-shape switches play no
        # role in the golden-model check; hashing them would make a warm
        # sequential cache go cold on e.g. --no-recommended-waivers.
        base = config_fingerprint(DetectionConfig(mode="sequential"))
        assert base == config_fingerprint(
            DetectionConfig(mode="sequential", waivers=[Waiver("x")])
        )
        assert base == config_fingerprint(DetectionConfig(mode="sequential", inputs=["a"]))
        assert base == config_fingerprint(
            DetectionConfig(mode="sequential", cumulative_assumptions=False)
        )
        # ... and symmetrically, sequential-only knobs never touch
        # combinational keys (asserted for depth/reset in the table above).

    def test_pair_fingerprint_covers_the_golden_model(self):
        from repro.exec.fingerprint import pair_module_fingerprint

        design = module_fingerprint(elaborate_source(CLEAN_SOURCE, "widget"))
        golden = module_fingerprint(elaborate_source(MUTATED_SOURCE, "widget"))
        paired = pair_module_fingerprint(design, golden)
        assert paired != pair_module_fingerprint(design, design)
        assert paired != pair_module_fingerprint(golden, design)  # order matters
        assert paired != design and paired != golden


class TestResultCacheStore:
    def test_round_trip_and_stats(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = class_cache_key("m", "c", 0)
        assert cache.get(key) is None
        cache.put(key, {"payload": 1})
        assert cache.get(key) == {"payload": 1}
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["bytes"] > 0

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for index in range(3):
            cache.put(class_cache_key("m", "c", index), {"index": index})
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = class_cache_key("m", "c", 0)
        cache.put(key, {"payload": 1})
        cache._path_for(key).write_text("garbage, not json")
        assert cache.get(key) is None
        assert cache.corrupt_skipped == 1

    def test_key_mismatch_is_a_miss(self, tmp_path):
        # A file renamed/copied to the wrong address must not be trusted.
        cache = ResultCache(str(tmp_path))
        key_a = class_cache_key("m", "c", 0)
        key_b = class_cache_key("m", "c", 1)
        cache.put(key_a, {"payload": 1})
        path_b = cache._path_for(key_b)
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_b.write_text(cache._path_for(key_a).read_text())
        assert cache.get(key_b) is None
        assert cache.corrupt_skipped == 1

    def test_wrong_cache_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = class_cache_key("m", "c", 0)
        cache.put(key, {"payload": 1})
        path = cache._path_for(key)
        entry = json.loads(path.read_text())
        entry["cache_schema"] = 999
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None


def _run(source, cache_dir, **overrides):
    design = Design.from_source(source, top="widget")
    config = DetectionConfig(cache_dir=cache_dir, **overrides)
    return DetectionSession(design, config=config).run()


class TestCachedAudits:
    def test_warm_rerun_replays_without_solver_work(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = _run(CLEAN_SOURCE, cache_dir)
        warm = _run(CLEAN_SOURCE, cache_dir)
        assert cold.cache_hits == 0 and cold.cache_misses == len(cold.outcomes)
        assert warm.cache_hits == len(warm.outcomes) and warm.cache_misses == 0
        assert warm.solver_calls == 0
        assert normalized_report_dict(warm.to_dict()) == normalized_report_dict(
            cold.to_dict()
        )

    def test_warm_rerun_emits_replay_marked_events(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        _run(CLEAN_SOURCE, cache_dir)
        design = Design.from_source(CLEAN_SOURCE, top="widget")
        session = DetectionSession(design, config=DetectionConfig(cache_dir=cache_dir))
        terminals = [
            event
            for event in session.iter_results()
            if isinstance(event, (StructurallyDischarged, ClassProven))
        ]
        assert terminals and all(event.from_cache for event in terminals)

    def test_netlist_mutation_invalidates_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        _run(CLEAN_SOURCE, cache_dir)
        mutated = _run(MUTATED_SOURCE, cache_dir)
        assert mutated.cache_hits == 0

    def test_config_mutation_invalidates_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        _run(CLEAN_SOURCE, cache_dir)
        strict = _run(CLEAN_SOURCE, cache_dir, cumulative_assumptions=False)
        assert strict.cache_hits == 0

    def test_no_cache_bypasses_reads_and_writes(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = _run(CLEAN_SOURCE, cache_dir, use_cache=False)
        assert first.cache_hits == 0 and first.cache_misses == 0
        # Nothing was written, so a cache-enabled run is fully cold...
        cold = _run(CLEAN_SOURCE, cache_dir)
        assert cold.cache_hits == 0
        # ...and --no-cache on a warm directory still re-proves everything.
        bypass = _run(CLEAN_SOURCE, cache_dir, use_cache=False)
        assert bypass.cache_hits == 0

    def test_corrupt_entry_forces_reproof_of_that_class_only(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = _run(CLEAN_SOURCE, cache_dir)
        assert len(cold.outcomes) >= 2
        cache = ResultCache(cache_dir)
        corrupted = next(iter(cache._entry_paths()))
        corrupted.write_text("{ not json")
        warm = _run(CLEAN_SOURCE, cache_dir)
        assert warm.cache_hits == len(cold.outcomes) - 1
        assert warm.cache_misses == 1
        assert normalized_report_dict(warm.to_dict()) == normalized_report_dict(
            cold.to_dict()
        )

    def test_cached_failure_replays_counterexample_and_diagnosis(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = _run(TROJANED_SOURCE, cache_dir)
        assert cold.trojan_detected and cold.counterexample is not None
        warm = _run(TROJANED_SOURCE, cache_dir)
        assert warm.solver_calls == 0
        assert warm.cache_hits == len(cold.outcomes)
        assert warm.detected_by == cold.detected_by
        assert warm.counterexample is not None
        assert warm.counterexample.failing_signals == cold.counterexample.failing_signals
        assert warm.diagnosis is not None
        assert [c.signal for c in warm.diagnosis.causes] == [
            c.signal for c in cold.diagnosis.causes
        ]
        assert normalized_report_dict(warm.to_dict()) == normalized_report_dict(
            cold.to_dict()
        )

    def test_unusable_cache_dir_degrades_to_cache_off(self, tmp_path):
        # A path that cannot become a directory (a file in the way) must not
        # abort the audit; the run completes with cache-off behaviour.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        report = _run(CLEAN_SOURCE, str(blocker))
        assert report.is_secure
        assert report.cache_hits == 0
        assert blocker.is_file()  # nothing clobbered it

    def test_stats_does_not_create_the_directory(self, tmp_path):
        missing = tmp_path / "never-created"
        stats = ResultCache(str(missing)).stats()
        assert stats["entries"] == 0
        assert not missing.exists()

    def test_truncated_run_warms_the_full_run(self, tmp_path):
        # max_class is not part of the fingerprint: classes proven by a
        # truncated audit replay inside a later, deeper audit.
        cache_dir = str(tmp_path / "cache")
        _run(CLEAN_SOURCE, cache_dir, max_class=1)
        full = _run(CLEAN_SOURCE, cache_dir)
        assert full.cache_hits == 1
        assert full.cache_misses == len(full.outcomes) - 1


class TestWarmCacheReads:
    def test_warm_reaudit_reads_each_scheduled_class_once(self, tmp_path, monkeypatch):
        # BasicRSA-T200 fails its init property, so the audit schedules only
        # class 0 and stops.  The warm re-audit must read the cache once for
        # that class: no lookups of classes past the cached failure, and no
        # other record kinds to probe for.
        design = Design.from_benchmark("BasicRSA-T200")
        config = design.default_config(cache_dir=str(tmp_path))
        cold = DetectionSession(design, config=config).run()
        assert cold.trojan_detected

        reads = []
        original_get = ResultCache.get

        def counting_get(cache, key):
            reads.append(key)
            return original_get(cache, key)

        monkeypatch.setattr(ResultCache, "get", counting_get)
        events = list(DetectionSession(design, config=config).iter_results())
        scheduled = [event for event in events if isinstance(event, PropertyScheduled)]
        started = next(event for event in events if isinstance(event, RunStarted))
        assert started.scheduled_classes > len(scheduled) == 1
        assert len(reads) == len(scheduled)
        assert all(event.from_cache for event in events if hasattr(event, "from_cache"))
