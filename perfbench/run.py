"""Verdict benchmark: time to a Trojan-detection verdict through the CLI.

Run from the repository root::

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 10 --trace 0

Every invocation is a fresh ``PYTHONPATH=src`` process running
``repro.cli`` (through ``perfbench/child.py``), one at a time: a closed
loop with one client.  A timed run makes at least the workload's
``min_rounds`` rounds of back-to-back invocations, and more until
``--seconds`` have passed.  The fixed reference workload runs before the
first invocation and after every one, and each invocation is scaled by
the reference runs on either side of it; the run reports the fastest.
``--trace 1`` instead makes one plain, one traced and one counted
invocation and reports per-layer metrics.  The last line of standard
output is the JSON result; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from child import COUNTED_PACKAGES, LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
CUBE_WIDGET = ROOT / "benchmarks" / "cube_widget.v"
WORK_ROOT = ROOT / ".perfbench_work"
#: Timed results are seconds at the host speed at which the reference
#: workload (``child.reference()``) takes this long.
REFERENCE_S = 1.0

#: Share of the traced run's in-process time that may stay outside every
#: wrapped span before the traced run counts as failed.
MAX_UNATTRIBUTED = 0.05

CATALOG_SCRIPT = (
    "import json, sys, repro.cli\n"
    "from repro.trusthub import catalog\n"
    "json.dump({n: d.expected_detection for n, d in catalog().items()}, sys.stdout)\n"
)


@dataclass(frozen=True)
class Workload:
    kind: str  # "table1" (the 35 catalogue designs) or "sat" (cube_widget)
    warm: bool  # audit against a cache filled by an untimed audit
    min_rounds: int  # k of fastest-of-k, from the measured spread
    jobs: int = 1


#: Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    "sat-hard": Workload("sat", False, 4),
    "table1-cold": Workload("table1", False, 2),
    "table1-warm": Workload("table1", True, 2),
    "table1-cold-j2": Workload("table1", False, 2, jobs=2),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_TIMES = tuple(span for _module, _path, span, _flag in LAYERS)
LAYER_CALLS = ("rtl.netlist", "exec.cache_put", "ipc.begin_check", "sat.solve")
LAYER_RATIOS = {
    "exec.cache_hit_ratio": "exec.cache_get",
    "ipc.discharged_ratio": "ipc.begin_check",
    "aig.sim_falsified_ratio": "aig.preprocess",
}
#: Fault totals of the pool; every report of a run carries the run's totals.
FAULT_COUNTS = ("tasks_retried", "workers_lost")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{name}_s": "s" for name in LAYER_TIMES}
    units.update({f"{name}_calls": "count" for name in LAYER_CALLS})
    units.update({name: "ratio" for name in LAYER_RATIOS})
    units["sat.conflicts"] = "count"
    units["exec.workers"] = "count"
    units["exec.worker_rss_mb"] = "MB"
    units.update({f"exec.{name}": "count" for name in FAULT_COUNTS})
    units.update({f"{package}.py_calls": "count" for package in COUNTED_PACKAGES})
    units["unattributed_s"] = "s"
    units["trace_overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------- #
# Verdict gate
# ---------------------------------------------------------------------- #


def expected_outcome(expected_detection: str) -> str:
    """Map a catalogue ``expected_detection`` to the expected outcome.

    The outcome is ``"secure"`` or the report's ``detected_by``.  The SEQ
    family's ``sequential mode (...)`` designs are SECURE in the default
    combinational flow: their waivers hide them from it by design.
    """
    if expected_detection == "secure" or expected_detection.startswith("sequential mode ("):
        return "secure"
    if expected_detection in ("init property", "coverage check") or \
            expected_detection.startswith("fanout property"):
        return expected_detection
    raise ValueError(f"unknown expected_detection {expected_detection!r}")


def report_outcome(report: dict) -> Optional[str]:
    """The outcome a report states: ``"secure"`` or its ``detected_by``."""
    if report.get("verdict") == "secure":
        return "secure"
    return report.get("detected_by")


def outcome_matches(expected: str, actual: Optional[str]) -> bool:
    if actual is None:
        return False
    if expected == "fanout property":  # no class number catalogued
        return actual.startswith("fanout property ")
    return actual == expected


# ---------------------------------------------------------------------- #
# Seeded inputs
# ---------------------------------------------------------------------- #


def rewrite_cube_widget(text: str, seed: int) -> str:
    """A semantics-preserving variant of ``cube_widget.v`` for ``seed``.

    Seed 0 keeps the committed file; other seeds shuffle the order of its
    ``reg`` declarations.  The operand order of the two products stays as
    committed: swapping it costs 6216 conflicts instead of 5554, which would
    put input variation into the spread across seeds.
    """
    if seed == 0:
        return text
    lines = text.split("\n")
    slots = [i for i, line in enumerate(lines) if line.lstrip().startswith("reg ")]
    declarations = [lines[i] for i in slots]
    random.Random(seed).shuffle(declarations)
    for slot, declaration in zip(slots, declarations):
        lines[slot] = declaration
    return "\n".join(lines)


def source_digest(root: Path = ROOT) -> str:
    """SHA-256 over the path and content of every file under ``root/src``.

    The warm cache is keyed by it, so each version of the program fills and
    reads its own cache and never replays records another version wrote.
    """
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# Invocations
# ---------------------------------------------------------------------- #


@dataclass
class Invocation:
    wall_s: float
    setup_s: float  # NaN when the child stopped before its import returned
    rss_mb: float  # peak RSS of the audit process itself
    worker_rss_mb: float  # largest peak RSS of the workers it reaped
    status: int
    output: Optional[dict]  # the --output report
    trace: Optional[dict] = None  # the --trace or --count document


class BenchmarkError(Exception):
    """The benchmark itself cannot run here (no program, unknown input)."""


class Runner:
    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.count = 0
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(("REPRO_", "PYTHON"))}
        self.env["PYTHONPATH"] = "src"
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.expected: Dict[str, str] = {}
        self.argv: List[str] = []
        self.warm_cache: Optional[Path] = None

    # -- set-up ---------------------------------------------------------- #

    def prepare(self) -> None:
        """Untimed: read the catalogue, write the input, fill a warm cache.

        The warm cache is filled once per source digest, so it is never
        read by another version of the program; warm invocations only
        read it.
        """
        done = subprocess.run(
            [sys.executable, "-c", CATALOG_SCRIPT], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False,
        )
        if done.returncode != 0:
            raise BenchmarkError(f"cannot read the catalogue:\n{done.stderr.strip()}")
        catalogue = json.loads(done.stdout)
        if self.workload.kind == "table1":
            self.expected = {n: expected_outcome(d) for n, d in catalogue.items()}
            # Catalogue order, whatever the seed: peak RSS depends on the
            # audit order (228-341 MB over three shuffles), so a shuffled
            # order would put input variation into peak_rss_mb's spread.
            self.argv = ["batch", *sorted(catalogue), "--jobs", str(self.workload.jobs)]
        else:
            path = self.work / "cube_widget.v"
            path.write_text(rewrite_cube_widget(CUBE_WIDGET.read_text(encoding="utf-8"),
                                                self.seed), encoding="utf-8")
            self.argv = ["run", "--verilog", str(path), "--top", "cube_widget",
                         "--jobs", str(self.workload.jobs)]
            self.expected = {"cube_widget": "secure"}
        if not self.workload.warm:
            return
        self.warm_cache = WORK_ROOT / f"warm-cache-{source_digest()[:16]}"
        if not self.warm_cache.is_dir():
            filling = self.work / "warm-cache"
            attempted, failed = self.check(self.invoke(cache=filling), warm=False)
            if failed:
                raise BenchmarkError(
                    f"cache fill run failed {failed} of {attempted} audits")
            try:
                filling.rename(self.warm_cache)
            except OSError:  # another run filled it first
                pass

    # -- one child ----------------------------------------------------------- #

    def reference(self) -> float:
        """Duration of the fixed reference workload in a fresh child."""
        self.count += 1
        stamp = self.work / f"stamp-{self.count:04d}"
        status = subprocess.call(
            [sys.executable, str(CHILD), "--stamp", str(stamp), "--reference"],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL)
        if status != 0 or not stamp.exists():
            raise BenchmarkError(f"reference child exited {status}")
        duration = float(stamp.read_text())
        stamp.unlink()
        return duration

    def invoke(self, mode: Sequence[str] = (), cache: Optional[Path] = None) -> Invocation:
        """One audit child; ``mode`` is ``("--trace",)`` or ``("--count",)``."""
        self.count += 1
        tag = f"{self.count:04d}"
        stamp = self.work / f"stamp-{tag}"
        output = self.work / f"out-{tag}.json"
        errors = self.work / f"err-{tag}.txt"
        argv = self.argv + ["--output", str(output)]
        fresh_cache = None
        if self.workload.kind == "table1":
            if cache is None:
                cache = self.warm_cache or self.work / f"cache-{tag}"
                fresh_cache = None if self.workload.warm else cache
            argv += ["--cache-dir", str(cache)]
        trace_file = None
        extra = list(mode)
        if extra:
            trace_file = self.work / f"{extra[0].lstrip('-')}-{tag}.json"
            extra.append(str(trace_file))
        command = [sys.executable, str(CHILD), "--stamp", str(stamp), *extra, "--", *argv]
        with open(errors, "wb") as stderr:
            started = time.perf_counter()
            process = subprocess.Popen(command, cwd=ROOT, env=self.env,
                                       stdout=subprocess.DEVNULL, stderr=stderr)
            try:
                process.wait()
            except BaseException:
                process.kill()
                process.wait()
                raise
            ended = time.perf_counter()
        stamped = _read_json(stamp) or {}
        nan = float("nan")
        document = _read_json(output)
        trace = _read_json(trace_file) if trace_file is not None else None
        if process.returncode not in (0, 1) or document is None:
            tail = errors.read_text(errors="replace").strip().splitlines()[-5:]
            print(f"[{self.name}] invocation {tag} exited {process.returncode}: "
                  + " | ".join(tail), file=sys.stderr)
        for path in (stamp, output, errors, trace_file):
            if path is not None and path.exists():
                path.unlink()
        if fresh_cache is not None:
            shutil.rmtree(fresh_cache, ignore_errors=True)
        return Invocation(ended - started, stamped.get("imported", nan) - started,
                          stamped.get("peak_rss_mb", 0.0), stamped.get("worker_rss_mb", 0.0),
                          process.returncode, document, trace)

    # -- verdict gate ------------------------------------------------------ #

    def reports(self, invocation: Invocation) -> Dict[str, dict]:
        """Per-design reports of an invocation's ``--output`` document."""
        document = invocation.output or {}
        if self.workload.kind == "table1":
            return {r.get("design"): r for r in document.get("reports", [])}
        return {"cube_widget": document} if document else {}

    def check(self, invocation: Invocation, warm: Optional[bool] = None) -> tuple:
        """(audits attempted, audits failed) for one invocation.

        An audit fails on a crash, exit status 2, an outcome other than the
        catalogued one, or, on the warm workload, a cache miss or no cache
        hit at all (a run with the cache off has neither).
        """
        warm = self.workload.warm if warm is None else warm
        attempted = len(self.expected)
        if invocation.status not in (0, 1) or invocation.output is None:
            return attempted, attempted
        reports = self.reports(invocation)
        failed = 0
        for name, expected in self.expected.items():
            report = reports.get(name)
            if report is None or not outcome_matches(expected, report_outcome(report)):
                failed += 1
            elif warm:
                execution = report.get("execution", {})
                if execution.get("cache_misses", 1) != 0 or execution.get("cache_hits", 0) == 0:
                    failed += 1
        return attempted, failed

    def outcomes(self, invocation: Invocation) -> Dict[str, Optional[str]]:
        return {n: report_outcome(r) for n, r in self.reports(invocation).items()}

    # -- runs ---------------------------------------------------------------- #

    def timed(self, seconds: float) -> dict:
        invocations: List[Invocation] = []
        references = [self.reference()]
        attempted = failed = 0
        started = time.perf_counter()
        while len(invocations) < self.workload.min_rounds or \
                time.perf_counter() - started < seconds:
            invocation = self.invoke()
            invocations.append(invocation)
            references.append(self.reference())
            a, f = self.check(invocation)
            attempted, failed = attempted + a, failed + f
        walls = [i.wall_s for i in invocations]
        imported = [i for i in invocations if i.setup_s == i.setup_s]
        if not imported:
            raise BenchmarkError("no invocation got as far as importing repro.cli")
        print("invocations " + json.dumps({
            "wall_s": [round(w, 4) for w in walls],
            "reference_s": [round(r, 4) for r in references],
        }))
        # Each wall in units of the mean of the reference runs on either
        # side of it; then the fastest of k.
        scaled = [wall / ((before + after) / 2)
                  for wall, before, after in zip(walls, references, references[1:])]
        values = {
            "wall_s": REFERENCE_S * min(scaled),
            "setup_s": REFERENCE_S * min(i.setup_s for i in imported)
                       / statistics.fmean(references),
            "peak_rss_mb": max(i.rss_mb for i in imported),
        }
        return _result(attempted, failed, values, END_TO_END)

    def traced(self) -> dict:
        plain = self.invoke()
        traced = self.invoke(("--trace",))
        counted = self.invoke(("--count",))
        attempted = failed = 0
        for invocation in (plain, traced, counted):
            a, f = self.check(invocation)
            attempted, failed = attempted + a, failed + f
        spans = traced.trace or {"wall_s": 0.0, "top_level_s": 0.0, "layers": {}}
        counts = counted.trace or {}
        sound = traced.trace is not None and counted.trace is not None
        if self.outcomes(traced) != self.outcomes(plain) or \
                self.outcomes(counted) != self.outcomes(plain):
            print(f"[{self.name}] traced or counted verdicts differ from the plain run",
                  file=sys.stderr)
            sound = False
        in_process = spans["wall_s"]
        unattributed = in_process - spans["top_level_s"]
        if unattributed > MAX_UNATTRIBUTED * in_process:
            print(f"[{self.name}] {unattributed:.3f} s of {in_process:.3f} s traced "
                  f"time is outside every span", file=sys.stderr)
            sound = False
        layers = spans["layers"]
        empty = {"calls": 0, "flagged": 0, "self_s": 0.0}
        values: Dict[str, float] = {}
        for name in LAYER_TIMES:
            values[f"{name}_s"] = layers.get(name, empty)["self_s"]
        for name in LAYER_CALLS:
            values[f"{name}_calls"] = layers.get(name, empty)["calls"]
        for metric, name in LAYER_RATIOS.items():
            entry = layers.get(name, empty)
            values[metric] = entry["flagged"] / entry["calls"] if entry["calls"] else 0.0
        reports = self.reports(traced).values()
        values["sat.conflicts"] = sum(report.get("solver", {}).get("conflicts", 0)
                                      for report in reports)
        values["exec.workers"] = (traced.output or {}).get("execution", {}).get("workers", 0)
        # Workers' peaks depend on which designs each one steals, so they
        # are reported here rather than in the bounded peak_rss_mb.
        values["exec.worker_rss_mb"] = plain.worker_rss_mb
        for name in FAULT_COUNTS:
            values[f"exec.{name}"] = max(
                (report.get("execution", {}).get(name, 0) for report in reports), default=0)
        for package in COUNTED_PACKAGES:
            values[f"{package}.py_calls"] = counts.get(package, 0)
        values["unattributed_s"] = unattributed
        values["trace_overhead_ratio"] = traced.wall_s / plain.wall_s
        result = _result(attempted, failed, values, per_layer_units())
        result["correct"] = result["correct"] and sound
        return result


def _read_json(path: Optional[Path]) -> Optional[dict]:
    if path is None or not path.exists():
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError:
        return None


def _result(attempted: int, failed: int, values: Dict[str, float],
            units: Dict[str, str]) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file() or not CUBE_WIDGET.is_file():
        print(f"error: {ROOT} holds no repro sources to benchmark", file=sys.stderr)
        return 2
    # A terminated run still kills its child and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(options.workload, options.seed, work)
        runner.prepare()
        result = runner.traced() if options.trace else runner.timed(options.seconds)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # kept while it holds the warm cache
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
