"""Run the verdict benchmark over several seeds and report its spread.

Usage, from the repository root::

    python3 perfbench/record.py --workload sat-hard --seeds 1-10 --seconds 10 \\
        [--append perfbench/estimator.json --label "set 1"]

For each run it reads the per-invocation walls and reference times that
``run.py`` prints, and for the wall time it reports four estimators over the
same invocations: the first (single) invocation of each input or the
fastest of the run's ``k``, each raw or divided by the mean of the
reference runs on either side (``wall_s``, the reported metric, is the
fastest scaled one).
Spread is the distance between the first and third quartile of the per-run
values (``statistics.quantiles(values, n=4)``) as a share of their median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values):
    """(median, IQR as a share of the median) of per-run values."""
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (quartiles[2] - quartiles[0]) / median


def parse_seeds(text: str):
    if "-" in text:
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    run_s = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = next(json.loads(line.split(" ", 1)[1]) for line in lines
                  if line.startswith("invocations "))
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"seed {seed}: run was not correct: {lines[-1]}")
    walls, references = record["wall_s"], record["reference_s"]
    return {
        "seed": seed,
        "run_s": round(run_s, 1),
        "single_raw_s": walls[0],
        "fastest_raw_s": min(walls),
        "single_scaled_s": walls[0] / ((references[0] + references[1]) / 2),
        **{name: metric["value"] for name, metric in result["metrics"].items()},
        "invocations": record,
    }


ESTIMATORS = ("single_raw_s", "fastest_raw_s", "single_scaled_s", "wall_s",
              "setup_s", "peak_rss_mb")


def summarize(runs) -> dict:
    summary = {}
    for key in ESTIMATORS:
        median, share = spread([run[key] for run in runs])
        summary[key] = {"median": round(median, 4), "iqr_share": round(share, 4)}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--append", help="JSON file that collects recorded sets")
    parser.add_argument("--label", default="")
    options = parser.parse_args(argv)

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs = []
    for seed in parse_seeds(options.seeds):
        runs.append(run_once(options.workload, seed, options.seconds))
        print(json.dumps(runs[-1]), file=sys.stderr)
    record = {
        "workload": options.workload,
        "label": options.label,
        "started": started,
        "seconds": options.seconds,
        "runs": runs,
        "summary": summarize(runs),
    }
    print(json.dumps(record["summary"]))
    if options.append:
        path = Path(options.append)
        sets = json.loads(path.read_text()) if path.exists() else []
        sets.append(record)
        path.write_text(json.dumps(sets, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
