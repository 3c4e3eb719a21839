"""Output checks for one session, computed apart from the program.

Frame checks return the frames whose outputs break a property the method
must have; session checks return readable problems. Neither raises on bad
output: a broken output is a finding, not a crash of the benchmark.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

import numpy as np
from scipy.optimize import linear_sum_assignment


def frame_failures(frames, sensor_ids, run, params) -> set[int]:
    """Frames whose tracing or pairing breaks a structural property:

    - every box of the frame belongs to exactly one trace, the trace's own
      entries agree, and no trace takes two boxes in one frame;
    - each stage's pairs are one-to-one and name a known sensor and a
      trace that is still live;
    - no pair is claimed before both of its streams cover the ts gate.
    """
    if len(run.frames) != len(frames):
        return {f.frame_index for f in frames}
    gate = params.ts_gate * params.fps
    max_gap = params.tracer.max_gap
    entries_at: dict[int, list] = defaultdict(list)
    for trace_id, trace in run.traces.items():
        for f, box in trace.entries:
            entries_at[f].append((trace_id, box))

    failed: set[int] = set()
    first_seen: dict[str, int] = {}
    last_seen: dict[str, int] = {}
    for pos, (frame, result) in enumerate(zip(frames, run.frames)):
        f = frame.frame_index
        owners = result.box_traces
        ok = result.frame_index == f and sorted(owners) == list(range(len(frame.boxes)))
        ok = ok and len(set(owners.values())) == len(owners)
        held = entries_at.get(f, [])
        ok = ok and len({t for t, _ in held}) == len(held)
        ok = ok and dict(held) == {owners[k]: frame.boxes[k] for k in owners}
        for trace_id in owners.values():
            first_seen.setdefault(trace_id, f)
            last_seen[trace_id] = f
        for assignment in (result.raw, result.refined):
            traces = [t for t, _ in assignment.pairs]
            sensors = [s for _, s in assignment.pairs]
            ok = ok and len(set(traces)) == len(traces) and len(set(sensors)) == len(sensors)
            for t, s in assignment.pairs:
                ok = (ok and s in sensor_ids and t in last_seen
                      and f - last_seen[t] <= max_gap
                      and last_seen[t] - first_seen[t] + 1 >= gate
                      and pos + 1 >= gate)
        if not ok:
            failed.add(f)
    return failed


def optimum(weights: dict) -> float:
    """Best total weight of a one-to-one matching, by SciPy's solver."""
    if not weights:
        return 0.0
    rows = {t: i for i, t in enumerate(sorted({t for t, _ in weights}))}
    cols = {s: j for j, s in enumerate(sorted({s for _, s in weights}))}
    m = np.zeros((len(rows), len(cols)))
    for (t, s), w in weights.items():
        m[rows[t], cols[s]] = w
    r, c = linear_sum_assignment(m, maximize=True)
    return float(m[r, c].sum())


def _objective_ok(assignment, weights: dict) -> bool:
    if any(weights.get(p, 0.0) <= 0.0 for p in assignment.pairs):
        return False
    own = sum(weights[p] for p in assignment.pairs)
    tol = 1e-9 * max(1.0, abs(own))
    return (abs(assignment.objective - own) <= tol
            and abs(assignment.objective - optimum(weights)) <= tol)


def objective_failures(run, trace) -> set[int]:
    """Frames whose raw or refined objective is not the optimum on the
    weights that stage was given (pairs of zero weight are never claimed)."""
    if not len(run.frames) == len(trace.raw_weights) == len(trace.refined_counts):
        return {fr.frame_index for fr in run.frames}
    failed = set()
    for fr, raw_w, counts in zip(run.frames, trace.raw_weights, trace.refined_counts):
        refined_w = {k: math.log2(1 + c) for k, c in counts.items() if c > 0}
        if not (_objective_ok(fr.raw, raw_w) and _objective_ok(fr.refined, refined_w)):
            failed.add(fr.frame_index)
    return failed


def trace_owners(run, box_owners) -> dict[str, str]:
    """Owner of each trace: the person behind most of its boxes, ties to
    the smallest person id."""
    votes: dict[str, Counter] = defaultdict(Counter)
    for fr in run.frames:
        people = box_owners.get(fr.frame_index, ())
        for k, trace_id in fr.box_traces.items():
            if k < len(people):
                votes[trace_id][people[k]] += 1
    return {t: min(c, key=lambda p: (-c[p], p)) for t, c in votes.items()}


def claims(run, stage: str, owners: dict, sensor_owners: dict) -> tuple[int, int]:
    """(correct claims, claims) of one stage over the whole run."""
    correct = total = 0
    for fr in run.frames:
        for t, s in (fr.raw if stage == "raw" else fr.refined).pairs:
            total += 1
            correct += owners.get(t) is not None and owners.get(t) == sensor_owners.get(s)
    return correct, total


def session_problems(run, evals, sensor_owners, box_owners, meta) -> list[str]:
    """Whole-run checks: R_cd agrees with a majority vote made here, and the
    run identifies its walkers as well as the workload promises."""
    problems = []
    owners = trace_owners(run, box_owners)
    rates = {}
    for stage, counters in evals.items():
        correct, total = claims(run, stage, owners, sensor_owners)
        if (correct, total) != (counters.total_cd, counters.total_id):
            problems.append(f"{stage}: evaluate_run counts {counters.total_cd}/{counters.total_id}, "
                            f"majority vote here gives {correct}/{total}")
        rates[stage] = correct / total if total else 0.0
    if meta["expect"] == "identify":
        final = {s: owners.get(t) for t, s in run.frames[-1].refined.pairs} if run.frames else {}
        if final != dict(sensor_owners):
            problems.append(f"final refined pairing names owners {final}, truth is {dict(sensor_owners)}")
    else:
        floor = 2.0 / meta["walkers"]
        for stage, rate in rates.items():
            if rate < floor:
                problems.append(f"{stage}: R_cd {rate:.4f} is below twice chance ({floor:.4f})")
    return problems
