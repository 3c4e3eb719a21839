"""Reference figures: the benchmark run on many seeds, summarised.

    python3 bench/reference.py

Runs bench/run.py once per workload of BENCHMARK.json and seed 1 to 10,
for its run_seconds, with tracing off, then once per workload with
tracing on (seed 1), and prints Markdown tables:
each end-to-end metric's median over the seeds with its spread (distance
between first and third quartile, as a share of the median), and each
per-layer metric of the traced run. Takes about half a minute per run.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(workload, seed, json.dumps(result), file=sys.stderr, flush=True)
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    print("| workload | metric | median | spread | bound |\n|---|---|---|---|---|")
    for name in names:
        runs = [bench(name, seed, seconds, 0) for seed in SEEDS]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            print(f"| {name} | {m['name']} ({m['unit']}) | {med:.4g} | {(q[2] - q[0]) / med:.3f} "
                  f"| {m['bound']} |")
        print(f"| {name} | failed / attempted frames | {failed} / {attempted} | | |"
              f"{'' if all(r['correct'] for r in runs) else ' CHECKS FAILED'}")

    print("\n| metric | " + " | ".join(names) + " |\n|---|" + "---|" * len(names))
    traced = [bench(name, SEEDS[0], seconds, 1)["metrics"] for name in names]
    for m in spec["per_layer"]:
        print(f"| {m['name']} ({m['unit']}) | "
              + " | ".join(f"{t[m['name']]['value']:.4g}" for t in traced) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
