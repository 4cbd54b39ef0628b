"""Tests for repro.utils.timing and repro.utils.graphs."""

import time

import pytest

from repro.utils.graphs import bfs_distances, find_cycle
from repro.utils.timing import PeakMemoryTracker, Stopwatch


class TestStopwatch:
    def test_records_named_duration(self):
        watch = Stopwatch()
        with watch.time("proof"):
            time.sleep(0.01)
        assert len(watch.durations("proof")) == 1
        assert watch.durations("proof")[0] >= 0.005

    def test_total_accumulates(self):
        watch = Stopwatch()
        watch.record("a", 1.0)
        watch.record("a", 2.0)
        watch.record("b", 0.5)
        assert watch.total("a") == pytest.approx(3.0)
        assert watch.total() == pytest.approx(3.5)

    def test_names(self):
        watch = Stopwatch()
        watch.record("x", 0.1)
        assert watch.names() == ["x"]

    def test_unknown_name_empty(self):
        assert Stopwatch().durations("missing") == []


class TestPeakMemoryTracker:
    def test_tracks_allocation(self):
        with PeakMemoryTracker() as tracker:
            data = bytearray(4 * 1024 * 1024)
            del data
        assert tracker.peak_bytes >= 4 * 1024 * 1024
        assert tracker.peak_megabytes >= 4.0

    def test_nested_tracking_does_not_crash(self):
        with PeakMemoryTracker() as outer:
            with PeakMemoryTracker() as inner:
                _ = list(range(1000))
        assert inner.peak_bytes >= 0
        assert outer.peak_bytes >= 0


class TestGraphHelpers:
    def _chain(self):
        return {"a": ["b"], "b": ["c"], "c": ["d"], "x": ["c"]}

    def test_bfs_distances(self):
        distances = bfs_distances(self._chain(), ["a"])
        assert distances == {"a": 0, "b": 1, "c": 2, "d": 3}

    def test_bfs_distances_multiple_sources_take_minimum(self):
        distances = bfs_distances(self._chain(), ["a", "x"])
        assert distances["c"] == 1
        assert distances["d"] == 2

    def test_bfs_distances_ignores_unknown_sources(self):
        assert bfs_distances(self._chain(), ["nope"]) == {}

    def test_find_cycle_on_dag_is_empty(self):
        assert find_cycle(self._chain()) == []

    def test_find_cycle_detects_loop(self):
        graph = self._chain()
        graph["d"] = ["a"]
        cycle = find_cycle(graph)
        assert set(cycle) == {"a", "b", "c", "d"}
        for position, node in enumerate(cycle):
            assert cycle[(position + 1) % len(cycle)] in graph[node]

    def test_find_cycle_self_loop(self):
        assert find_cycle({"w": ["w"]}) == ["w"]

    def test_find_cycle_skips_acyclic_prefix(self):
        graph = {"a": ["b"], "b": ["c"], "c": ["b"]}
        assert sorted(find_cycle(graph)) == ["b", "c"]

    def test_find_cycle_deep_chain_is_iterative(self):
        depth = 20000
        graph = {index: [index + 1] for index in range(depth)}
        assert find_cycle(graph) == []
        graph[depth] = [0]
        assert len(find_cycle(graph)) == depth + 1
