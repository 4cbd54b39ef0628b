"""Child side of the verdict benchmark: one ``repro`` CLI invocation.

Usage, from the repository root with ``PYTHONPATH=src``::

    python3 perfbench/child.py --stamp FILE [--trace FILE | --count FILE] -- CLI-ARGS...
    python3 perfbench/child.py --stamp FILE --reference

It imports ``repro.cli`` and runs ``repro.cli.main(CLI-ARGS)`` exactly as
``python -m repro.cli`` would.  The exit status is the CLI's.  On the way
out it writes to ``--stamp``, as JSON, the ``time.perf_counter()`` reading
taken right after the import (``perf_counter`` is ``CLOCK_MONOTONIC``, so
the parent can subtract its own spawn reading), its own peak RSS and the
largest peak RSS of the worker processes it reaped.

``--trace FILE`` wraps each layer's public entry point (:data:`LAYERS`) from
outside the program and writes per-layer calls and self times to FILE as
JSON.  ``--count FILE``
runs the CLI under ``cProfile`` and writes Python call counts grouped by
``repro`` subpackage.  Both are for the separate traced run; the timed runs
use neither.

``--reference`` imports nothing from ``repro``: it runs :func:`reference`,
a fixed pure-Python workload, and writes its duration to ``--stamp``.  The
timed runs express wall time in units of it, so slowdowns of the shared
host that last longer than one invocation largely cancel out.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import resource
import sys
import time

#: (module, attribute path, span name, flag) for every wrapped entry point.
#: ``flag`` names a boolean attribute of the return value (or ``"not_none"``)
#: that the span records, so ratios are counted where the work happens.
LAYERS = (
    ("repro.verilog.parser", "parse_source", "verilog.parse", None),
    ("repro.rtl.elaborate", "elaborate", "rtl.elaborate", None),
    ("repro.rtl.netlist", "DependencyGraph.__init__", "rtl.netlist", None),
    ("repro.rtl.fanout", "compute_fanout_classes", "rtl.fanout", None),
    ("repro.exec.scheduler", "DesignPlan.build", "exec.plan", None),
    ("repro.exec.executor", "ProcessPoolExecutor.wait", "exec.pool_wait", None),
    ("repro.exec.cache", "ResultCache.get", "exec.cache_get", "not_none"),
    ("repro.exec.cache", "ResultCache.put", "exec.cache_put", None),
    ("repro.ipc.engine", "IpcEngine.begin_check", "ipc.begin_check", "discharged"),
    ("repro.ipc.engine", "IpcEngine.finish_check", "ipc.finish_check", None),
    ("repro.aig.preprocess", "Preprocessor.run", "aig.preprocess", "sim_falsified"),
    ("repro.sat.context", "SolverContext.solve", "sat.solve", None),
    ("repro.core.falsealarm", "diagnose_counterexample", "core.diagnose", None),
)

#: ``repro`` subpackages whose Python calls the counted run reports.
COUNTED_PACKAGES = ("verilog", "rtl", "aig", "ipc", "sat", "exec", "core")


class _Node:
    __slots__ = ("name", "width", "inputs")

    def __init__(self, name: str, width: int, inputs: tuple) -> None:
        self.name = name
        self.width = width
        self.inputs = inputs


def reference() -> float:
    """Seconds taken by a fixed workload of dicts, small objects and sorts.

    It must never change: every timed result is scaled by its duration.
    """
    started = time.perf_counter()
    total = 0
    for rep in range(4):
        nodes = {}
        for i in range(60000):
            name = f"n{rep}_{i}"
            nodes[name] = _Node(name, i & 63, (f"n{rep}_{i // 2}", f"n{rep}_{i // 3}"))
        for node in sorted(nodes.values(), key=lambda n: (n.width, n.name)):
            total += sum(1 for source in node.inputs if source in nodes) + len(node.name)
        table = [[(i * j) & 255 for j in range(64)] for i in range(600)]
        total += sum(map(sum, table))
    if total <= 0:
        raise AssertionError("reference workload miscounted")
    return time.perf_counter() - started


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent index, flag]`` each."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, function, flag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if flag == "not_none":
                record[4] = result is not None
            elif flag is not None:
                record[4] = bool(getattr(result, flag))
            return result

        return wrapper


def install_wrappers(recorder: SpanRecorder) -> None:
    """Replace every :data:`LAYERS` entry point by a span-recording wrapper.

    Functions are also replaced in every loaded ``repro.*`` module that
    imported them by name; modules come from ``sys.modules`` because a
    package attribute can shadow its submodule (``repro.rtl.elaborate`` is
    the function the package re-exports).
    """
    for module_name, path, span_name, flag in LAYERS:
        module = importlib.import_module(module_name)
        owner_name, _, attribute = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                wrapped = classmethod(recorder.wrap(span_name, raw.__func__, flag))
            else:
                wrapped = recorder.wrap(span_name, raw, flag)
            setattr(owner, attribute, wrapped)
            continue
        original = getattr(module, attribute)
        wrapped = recorder.wrap(span_name, original, flag)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(loaded, attribute, None) is original:
                setattr(loaded, attribute, wrapped)


def layer_totals(spans) -> dict:
    """Per span name: calls, flagged calls and self time.

    Self time is a span's duration minus the durations of the spans directly
    nested in it (``parent`` is an index into ``spans``, ``-1`` at top
    level).  The returned ``"top_level_s"`` is the time all top-level spans
    cover, which equals the sum of every self time.
    """
    totals: dict = {}
    child_time = [0.0] * len(spans)
    top_level = 0.0
    for name, start, end, parent, _flag in spans:
        if parent < 0:
            top_level += end - start
        else:
            child_time[parent] += end - start
    for index, (name, start, end, _parent, flag) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "flagged": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["flagged"] += bool(flag)
        entry["self_s"] += (end - start) - child_time[index]
    return {"layers": totals, "top_level_s": top_level}


def package_call_counts(stats: dict, package_root: str) -> dict:
    """Group ``cProfile`` call counts by ``repro`` subpackage."""
    counts = {package: 0 for package in COUNTED_PACKAGES}
    prefix = os.path.join(package_root, "")
    for (filename, _line, _function), (_primitive, calls, *_rest) in stats.items():
        if not filename.startswith(prefix):
            continue
        package = filename[len(prefix):].split(os.sep, 1)[0]
        if package in counts:
            counts[package] += calls
    return counts


def _write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--stamp", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace")
    mode.add_argument("--count")
    mode.add_argument("--reference", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    options = parser.parse_args(argv)
    cli_args = options.cli_args[1:] if options.cli_args[:1] == ["--"] else options.cli_args
    if options.reference:
        with open(options.stamp, "w", encoding="utf-8") as handle:
            handle.write(repr(reference()))
        return 0

    import repro.cli

    imported = time.perf_counter()
    try:
        return _run_cli(repro.cli, cli_args, options)
    finally:
        # Written last, so the file write is outside the timed audit.
        _write_json(options.stamp, {
            "imported": imported,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "worker_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        })


def _run_cli(cli, cli_args, options) -> int:
    if options.trace:
        recorder = SpanRecorder()
        install_wrappers(recorder)
        started = time.perf_counter()
        try:
            return cli.main(cli_args)
        finally:
            finished = time.perf_counter()
            _write_json(options.trace, {
                "wall_s": finished - started,
                **layer_totals(recorder.spans),
            })
    if options.count:
        import cProfile

        profile = cProfile.Profile(builtins=False)  # counts only Python calls
        profile.enable()
        try:
            return cli.main(cli_args)
        finally:
            profile.disable()
            profile.create_stats()
            root = os.path.dirname(os.path.abspath(cli.__file__))
            _write_json(options.count, package_call_counts(profile.stats, root))
    return cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main())
