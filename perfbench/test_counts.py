#!/usr/bin/env python3
"""Checks that the traced run's counts repeat exactly for a fixed seed.

Usage, from the root of a checkout:

    python3 perfbench/test_counts.py

For every workload listed in BENCHMARK.json, runs the traced benchmark twice
with seed 7, then asserts that every count (walk pairs, edges explored,
products, Spark jobs, hop bytes and the rest of the per-layer metrics measured
in counts or bytes) is the same in both runs, and that the traced run
reproduced the untraced scores. Exits 0 on success.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = {"count", "bytes"}
SEED = 7


def traced_metrics(workload):
    p = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                        "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
                       cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"traced run of {workload} failed (exit {p.returncode}):\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])["metrics"]


def check(workload):
    """Returns the failures on one workload, after printing them."""
    first, second = traced_metrics(workload), traced_metrics(workload)
    counts = sorted(k for k, m in first.items() if m["unit"] in COUNT_UNITS)
    failures = [f"{k}: {first[k]['value']} != {second[k]['value']}" for k in counts
                if first[k]["value"] != second[k]["value"]]
    if any(run["trace.scores_match"]["value"] != 1 for run in (first, second)):
        failures.append("trace.scores_match: traced scores differ from untraced ones")
    for f in failures:
        print(f"FAIL {workload} {f}")
    if not failures:
        print(f"ok: {len(counts)} counts repeat exactly on {workload} seed {SEED}")
    return failures


def main():
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    failures = [f for w in workloads for f in check(w)]
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
