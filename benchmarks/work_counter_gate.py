"""Work-counter gate over a cold Table I audit.

Runs ``repro batch --all --jobs 1 --no-cache`` in this process, counting
the AIGs built and the ``AIG.and_`` calls made, and fails (exit 1) when
either exceeds its committed ceiling.  Both counts are deterministic: they
are the same under every hash seed and on every host, so unlike wall time
they can gate CI exactly.

Usage::

    PYTHONPATH=src python benchmarks/work_counter_gate.py

A change that lowers a count lowers its ceiling here and quotes old -> new
in its change notes; raising a ceiling is a gate change that must give its
reason.
"""

from __future__ import annotations

import contextlib
import io
import sys

from repro.aig.aig import AIG
from repro import cli

#: Ceilings: the counts of a cold serial Table I audit.  A class whose
#: commitments settle on the RTL bit-blasts only the assumptions it leaves
#: over, and each failing class is bit-blasted once, on its design's own
#: engine.
MAX_AND_CALLS = 140_142
MAX_AIGS = 35


def count_cold_table1() -> dict:
    """AIGs built and ``AIG.and_`` calls of one cold serial Table I audit."""
    counts = {"aigs": 0, "and_calls": 0}
    original_init, original_and = AIG.__init__, AIG.and_

    def counting_init(self):
        counts["aigs"] += 1
        original_init(self)

    def counting_and(self, a, b):
        counts["and_calls"] += 1
        return original_and(self, a, b)

    AIG.__init__, AIG.and_ = counting_init, counting_and
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["batch", "--all", "--jobs", "1", "--no-cache"])
    finally:
        AIG.__init__, AIG.and_ = original_init, original_and
    if status not in (0, 1):
        raise SystemExit(f"the audit failed with exit status {status}")
    return counts


def main() -> int:
    counts = count_cold_table1()
    failures = []
    for label, value, ceiling in (
        ("AIG.and_ calls", counts["and_calls"], MAX_AND_CALLS),
        ("AIGs built", counts["aigs"], MAX_AIGS),
    ):
        verdict = "ok" if value <= ceiling else "REGRESSION"
        print(f"{label:16s} {value:9d}  ceiling {ceiling:9d}  {verdict}")
        if value > ceiling:
            failures.append(f"{label}: {value} > {ceiling}")
    if failures:
        print("work-counter gate FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
