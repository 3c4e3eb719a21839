"""Benchmark of `stridelink match` on simulated walking scenes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's scenes from the seed when they are absent
(untimed), then measures for about S seconds: it runs whole rounds of
sessions, one at a time, each in a fresh interpreter (bench/session.py).
A round is one session without hooks on each of the workload's scenes;
with --trace 1 each is followed by a traced session on the same scene,
and their difference is the tracing overhead. The load is closed-loop:
one session at a time, with the whole log available.

The last line of standard output is one JSON object: whether every check
held, frames attempted and failed, and the metrics. The line before it
gives the sha256 of each scene's assignments.jsonl, which must be the
same for every session on that scene.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(HERE, "_work")
RUN_LIMIT_S = 170.0  # a run must end within 180 s, generation included


class HarnessError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def session(inputs: str, out: str, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "session.py"), inputs, out]
    if traced:
        cmd.append("--trace")
    # A fixed hash seed keeps dict and set layouts, and so timings, the
    # same from one interpreter to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"session did not end within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"session exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(scenes: list[tuple[str, dict]], out: str, seconds: float, trace: bool,
            deadline: float) -> list[list[dict]]:
    """Whole rounds until another round would overrun `seconds`. A round
    runs a session on each scene in turn, and with `trace` a traced one
    right after it."""
    rounds: list[list[dict]] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rnd = []
        for inputs, meta in scenes:
            for traced in (False, True) if trace else (False,):
                record = session(inputs, os.path.join(out, str(meta["scene"])), traced,
                                 deadline - time.perf_counter())
                rnd.append({**record, "scene": meta["scene"], "traced": traced,
                            "attempted": meta["frames"]})
        rounds.append(rnd)
        durations.append(time.perf_counter() - r0)
        now = time.perf_counter()
        longest = max(durations)
        if now - start + longest > seconds or now + longest > deadline:
            return rounds


def _ratio(records: list[dict], num, den) -> float:
    total = sum(den(r) for r in records)
    return sum(num(r) for r in records) / total if total else 0.0


def summarize(rounds: list[list[dict]], trace: bool, units: dict[str, str]) -> dict:
    """The result line: check outcome, frame accounting and each metric
    named in `units`."""
    records = [r for rnd in rounds for r in rnd]
    attempted = sum(r["attempted"] for r in records)
    failed = 0
    problems: list[str] = []
    for r in records:
        if "raised" in r:
            failed += r["attempted"]
            print(f"session on scene {r['scene']} raised:\n{r['raised']}", file=sys.stderr)
        else:
            failed += r["failed_frames"]
            problems += r["problems"]
    ok = [r for r in records if "raised" not in r]
    if not ok:
        raise HarnessError("every session raised; nothing to measure")
    digests = {}
    for r in ok:
        digests.setdefault(r["scene"], set()).add(r["digest"])
    for scene, found in sorted(digests.items()):
        if len(found) > 1:
            problems.append(f"scene {scene}: assignments.jsonl differs between sessions")
    print("assignments.jsonl sha256 " + " ".join(
        f"{scene}:{d}" for scene, found in sorted(digests.items()) for d in sorted(found)))

    if trace:
        traced = [r["layers"] for r in ok if r["traced"]]
        if not traced:
            raise HarnessError("no traced session completed")
        values = {name: statistics.median(t[name] for t in traced)
                  for name in units if name != "pipeline.tracing_overhead_s"}
        overheads = [b["pipeline_s"] - a["pipeline_s"]
                     for rnd in rounds for a, b in zip(rnd[::2], rnd[1::2])
                     if "raised" not in a and "raised" not in b]
        values["pipeline.tracing_overhead_s"] = statistics.median(overheads) if overheads else 0.0
    else:
        # Times are medians over sessions, so one scene on which the
        # pairing happens to be slow does not set the figure. R_cd and
        # coverage pool the claims of a round; every round makes the same.
        first = [r for r in rounds[0] if "raised" not in r]
        values = {
            "frames_per_s": statistics.median(r["frames"] / r["pipeline_s"] for r in ok),
            "setup_s": statistics.median(r["setup_s"] for r in ok),
            "match_s": statistics.median(r["match_s"] for r in ok),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            "r_cd_raw": _ratio(first, lambda r: r["claims"]["raw"][0], lambda r: r["claims"]["raw"][1]),
            "r_cd_refined": _ratio(first, lambda r: r["claims"]["refined"][0],
                                   lambda r: r["claims"]["refined"][1]),
            "coverage_refined": _ratio(first, lambda r: r["refined_claims"], lambda r: r["sensor_frames"]),
        }
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "stridelink")):
        print(f"error: no stridelink sources in {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, src)
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description="Benchmark of stridelink match.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    wl = workloads.WORKLOADS[args.workload]
    scenes = workloads.ensure_inputs(wl, args.seed, os.path.join(WORK_DIR, "inputs"))
    try:
        rounds = measure(scenes, os.path.join(WORK_DIR, "out", wl.name), args.seconds,
                         bool(args.trace), deadline)
        result = summarize(rounds, bool(args.trace), units)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
