"""Tests for the verdict benchmark's own code (``perfbench/``)."""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _load(name):
    # run.py imports its sibling as ``child``, as it does when run as a script.
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


child = _load("child")
run = _load("run")


def _env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def test_expected_outcome_covers_the_whole_catalogue():
    from repro.trusthub import catalog

    designs = catalog()
    assert len(designs) == 35
    expected = {name: run.expected_outcome(d.expected_detection) for name, d in designs.items()}
    assert expected["AES-HT-FREE"] == "secure"
    assert expected["AES-SEQ-T3000"] == "secure"
    assert expected["RS232-SEQ-T3100"] == "secure"
    assert expected["AES-T100"] == "init property"
    assert expected["AES-T1900"] == "coverage check"
    assert expected["AES-T2600"] == "fanout property 7"
    assert expected["RS232-T2400"] == "fanout property"


def test_outcome_matching():
    assert run.outcome_matches("fanout property", "fanout property 2")
    assert not run.outcome_matches("fanout property", "init property")
    assert run.outcome_matches("fanout property 21", "fanout property 21")
    assert not run.outcome_matches("fanout property 2", "fanout property 21")
    assert not run.outcome_matches("secure", None)
    assert run.report_outcome({"verdict": "secure", "detected_by": None}) == "secure"
    assert run.report_outcome(
        {"verdict": "uncovered-signals", "detected_by": "coverage check"}) == "coverage check"
    with pytest.raises(ValueError):
        run.expected_outcome("golden model")


def test_self_time_subtracts_directly_nested_spans():
    # begin_check [0, 10] holds preprocess [1, 6], which holds a fraig
    # solve [2, 5]; a second solve [7, 8] sits directly in begin_check.
    spans = [
        ["ipc.begin_check", 0.0, 10.0, -1, True],
        ["aig.preprocess", 1.0, 6.0, 0, False],
        ["sat.solve", 2.0, 5.0, 1, False],
        ["sat.solve", 7.0, 8.0, 0, False],
        ["exec.cache_get", 11.0, 11.5, -1, True],
    ]
    totals = child.layer_totals(spans)
    layers = totals["layers"]
    assert layers["ipc.begin_check"] == {"calls": 1, "flagged": 1, "self_s": 4.0}
    assert layers["aig.preprocess"] == {"calls": 1, "flagged": 0, "self_s": 2.0}
    assert layers["sat.solve"] == {"calls": 2, "flagged": 0, "self_s": 4.0}
    assert totals["top_level_s"] == 10.5
    assert sum(entry["self_s"] for entry in layers.values()) == totals["top_level_s"]


def test_cube_widget_rewrite_is_seeded():
    text = run.CUBE_WIDGET.read_text(encoding="utf-8")
    assert run.rewrite_cube_widget(text, 0) == text
    variants = {run.rewrite_cube_widget(text, seed) for seed in range(1, 6)}
    assert len(variants) > 1
    for seed in (1, 2, 3):
        first = run.rewrite_cube_widget(text, seed)
        assert first == run.rewrite_cube_widget(text, seed)
        assert sorted(first.splitlines()) == sorted(text.splitlines())


def _audit_cube_widget(source, output):
    status = subprocess.call(
        [sys.executable, "-m", "repro.cli", "run", "--verilog", str(source),
         "--top", "cube_widget", "--output", str(output)],
        cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
    )
    assert status == 0
    return json.loads(output.read_text(encoding="utf-8"))


def test_rewritten_cube_widget_stays_secure(tmp_path):
    source = tmp_path / "cube_widget.v"
    source.write_text(run.rewrite_cube_widget(
        run.CUBE_WIDGET.read_text(encoding="utf-8"), 5), encoding="utf-8")
    rewritten = _audit_cube_widget(source, tmp_path / "rewritten.json")
    committed = _audit_cube_widget(run.CUBE_WIDGET, tmp_path / "committed.json")
    assert run.report_outcome(rewritten) == "secure"
    # About as SAT-bound as the committed file, so seeds add little input
    # variation to the spread of sat-hard.
    conflicts = committed["solver"]["conflicts"]
    assert abs(rewritten["solver"]["conflicts"] - conflicts) <= 0.1 * conflicts


def test_warm_gate_needs_hits_and_no_misses(tmp_path):
    runner = run.Runner("table1-warm", 1, tmp_path)
    runner.expected = {"A": "secure", "B": "init property"}

    def invocation(second):
        first = {"cache_hits": 4, "cache_misses": 0}
        return run.Invocation(1.0, 0.1, 10.0, 0.0, 1, {"reports": [
            {"design": "A", "verdict": "secure", "execution": first},
            {"design": "B", "verdict": "trojan-suspected", "detected_by": "init property",
             "execution": second},
        ]})

    assert runner.check(invocation({"cache_hits": 3, "cache_misses": 0})) == (2, 0)
    assert runner.check(invocation({"cache_hits": 3, "cache_misses": 1})) == (2, 1)
    cache_off = invocation({"cache_hits": 0, "cache_misses": 0})
    assert runner.check(cache_off) == (2, 1)
    assert runner.check(cache_off, warm=False) == (2, 0)


def test_source_digest_tracks_sources_only(tmp_path):
    package = tmp_path / "src" / "pkg"
    (package / "__pycache__").mkdir(parents=True)
    (package / "mod.py").write_text("x = 1\n")
    first = run.source_digest(tmp_path)
    (package / "__pycache__" / "mod.cpython.pyc").write_bytes(b"\0")
    assert run.source_digest(tmp_path) == first
    (package / "mod.py").write_text("x = 2\n")
    assert run.source_digest(tmp_path) != first


def test_traced_child_wraps_every_frontend_entry_point(tmp_path):
    source = tmp_path / "spurious.v"
    source.write_text(
        "module spurious(input clk, input a, output y);\n"
        "  reg r1; reg r2; reg mixer;\n"
        "  always @(posedge clk) begin r1 <= a; r2 <= r1; mixer <= a ^ r2; end\n"
        "  assign y = r2 ^ mixer;\n"
        "endmodule\n", encoding="utf-8")
    trace = tmp_path / "trace.json"
    status = subprocess.call(
        [sys.executable, str(BENCH_DIR / "child.py"), "--stamp", str(tmp_path / "stamp"),
         "--trace", str(trace), "--", "run", "--verilog", str(source), "--top", "spurious"],
        cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
    )
    assert status == 0
    layers = json.loads(trace.read_text(encoding="utf-8"))["layers"]
    for name in ("verilog.parse", "rtl.elaborate", "rtl.netlist", "rtl.fanout",
                 "exec.plan", "ipc.begin_check"):
        assert layers[name]["calls"] >= 1, name


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in [*end_to_end, *per_layer]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sat-hard", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
