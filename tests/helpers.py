"""Independent reference implementations the tests check the package against.

Deliberately written in the most literal way possible, sharing no code with
the package: plain neighbor scans, exhaustive enumeration, and the
canonical pairing walk that re-solves for every candidate column. Only
`solve_lsap`, the package's solver driven through a dict of pair
weights, is not a reference.
"""

import collections
import itertools
import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from stridelink.acc_features import step_features
from stridelink.pairing import solve_matrix


def solve_lsap(weights):
    """`solve_matrix` over the given pair weights; missing pairs weigh zero."""
    row_ids = sorted({t for t, _ in weights})
    col_ids = sorted({s for _, s in weights})
    row_index = {t: i for i, t in enumerate(row_ids)}
    col_index = {s: j for j, s in enumerate(col_ids)}
    w = np.zeros((len(row_ids), len(col_ids)))
    for (t, s), wv in weights.items():
        w[row_index[t], col_index[s]] = wv
    return solve_matrix(w, row_ids, col_ids)


def oracle_assignment_lines(run, stages):
    """Literal line formula of assignments.jsonl: one json.dumps per frame
    per stage, in frame order, each line ending in a newline."""
    lines = []
    for fr in run.frames:
        for stage in stages:
            assignment = fr.raw if stage == "raw" else fr.refined
            lines.append(json.dumps({
                "frame": fr.frame_index,
                "stage": stage,
                "pairs": [list(p) for p in sorted(assignment.pairs)],
            }, separators=(",", ":")) + "\n")
    return lines


def oracle_marks(seq, d):
    """Literal extremum rule: strictly above (below) every value within
    ceil(d/2) positions on each side, window cut at the edges."""
    half = (d + 1) // 2
    seq = list(seq)
    out = []
    for x in range(len(seq)):
        neighbors = seq[max(0, x - half):x] + seq[x + 1:x + half + 1]
        if neighbors and seq[x] > max(neighbors):
            out.append(1)
        elif neighbors and seq[x] < min(neighbors):
            out.append(-1)
        else:
            out.append(0)
    return out


def oracle_mark_cost(marks, pos, sign, d, penalty):
    """Literal nearest-mark rule: the distance from position pos to the
    nearest entry of marks equal to sign at most d positions away, or
    penalty when there is none; positions outside marks hold no mark."""
    dists = [abs(q - pos) for q, m in enumerate(marks) if m == sign and abs(q - pos) <= d]
    return float(min(dists)) if dists else penalty


def oracle_ratios(sightings):
    """Literal fill rule of a trace's ratio stream: sightings are (frame,
    h/w) pairs in frame order. One value per frame from the first sighting
    to the last; a frame between two sightings p < f < n takes
    r_p + (r_n - r_p) / (n - p) * (f - p)."""
    seen = dict(sightings)
    frames = sorted(seen)
    out = []
    for f in range(frames[0], frames[-1] + 1):
        if f in seen:
            out.append(seen[f])
            continue
        p = max(g for g in frames if g < f)
        n = min(g for g in frames if g > f)
        out.append(seen[p] + (seen[n] - seen[p]) / (n - p) * (f - p))
    return out


def oracle_frame_times(frames):
    """Literal frame grid of a detection log: one time per frame index
    from the first to the last, each index at its own timestamp or, where
    the log skips it, at the linear time between its neighbours."""
    return np.array(oracle_ratios([(fr.frame_index, float(fr.timestamp)) for fr in frames]))


def oracle_sim(t, a, d=10, t_start=0, a_start=0, penalty=None, floor=0.5):
    """Literal score rule: the number of trace marks over the summed
    distance from each trace mark to the nearest same-sign sensor mark at
    most d frames away (1.5 * d when there is none), floored. t and a are
    ternary lists whose first entries sit at frames t_start and a_start."""
    if penalty is None:
        penalty = 1.5 * d
    sensor_marks = [(a_start + k, m) for k, m in enumerate(a) if m != 0]
    n = 0
    total = 0.0
    for x, mark in enumerate(t):
        if mark == 0:
            continue
        n += 1
        frame = t_start + x
        dists = [abs(g - frame) for g, m in sensor_marks if m == mark and abs(g - frame) <= d]
        total += min(dists) if dists else penalty
    if n == 0:
        return 0.0
    return n / max(total, floor)


def oracle_tracks(frames, params):
    """Literal greedy tracer. Per frame: traces unseen for more than
    max_gap frames die first; every (live trace, box) pair whose centers
    lie within radius_factor * h * (frames since the trace's last box) is
    a candidate; candidates are taken by increasing distance, then older
    trace, then lower box ordinal, each trace and box at most once; every
    box left over starts a trace. Returns, per frame, the box ordinal ->
    trace id map and the ids of the live traces; each trace's sightings as
    (frame, box) pairs; and, for every box that lay within the radius of
    two or more live traces, its frame and ordinal with the last sightings
    of those traces."""
    sightings = {}  # trace id -> its (frame, box) pairs, in order of birth
    dead = set()
    per_frame = []
    contested = []
    for frame in frames:
        f = frame.frame_index
        for tid, seen in sightings.items():
            if f - seen[-1][0] > params.max_gap:
                dead.add(tid)
        live = [tid for tid in sightings if tid not in dead]
        candidates = []
        for age, tid in enumerate(live):
            last_f, last = sightings[tid][-1]
            for k, box in enumerate(frame.boxes):
                dist = math.hypot(box.cx - last.cx, box.cy - last.cy)
                if dist <= params.radius_factor * last.h * (f - last_f):
                    candidates.append((dist, age, k, tid))
        for k in range(len(frame.boxes)):
            rivals = [sightings[c[3]][-1] for c in candidates if c[2] == k]
            if len(rivals) > 1:
                contested.append((f, k, rivals))
        box_traces = {}
        for _, _, k, tid in sorted(candidates):
            if k not in box_traces and tid not in box_traces.values():
                box_traces[k] = tid
        for k, box in enumerate(frame.boxes):
            if k not in box_traces:
                box_traces[k] = f"t{len(sightings):04d}"
                sightings[box_traces[k]] = []
            sightings[box_traces[k]].append((f, box))
        per_frame.append((box_traces, [tid for tid in sightings if tid not in dead]))
    return per_frame, sightings, contested


def oracle_pipeline(frames, streams, params):
    """Each frame's (box_traces, raw, refined) recomputed from scratch by
    the literal rules, raw and refined as (pairs, objective).

    On frame f, with f0 the first frame of the log and the gate
    ts_gate * fps: once f - f0 + 1 reaches the gate, each live trace whose
    ratios (`oracle_ratios` of its sightings through f) number at least
    the gate scores against every sensor. It scores the marks of its
    ratios that f finalizes (those at least ceil(d/2) values before the
    last), keeping a mark at frame F only once F + ceil(d/2) + d <= f,
    against the marks of the sensor's step features through f. The raw
    stage pairs those scores; every raw pair of frames through f whose
    trace is still live counts one, and the refined stage pairs
    log2(1 + count)."""
    sim_params = params.similarity
    d, half = sim_params.d, (sim_params.d + 1) // 2
    gate = params.ts_gate * params.fps
    f0 = frames[0].frame_index
    times = oracle_frame_times(frames)
    features = {s.sensor_id: step_features(s, times).tolist() for s in streams}
    per_frame, sightings, _ = oracle_tracks(frames, params.tracer)
    out = []
    raws = []
    for frame, (box_traces, live) in zip(frames, per_frame):
        f = frame.frame_index
        scores = {}
        if features and f - f0 + 1 >= gate:
            sensor_marks = {sid: oracle_marks(v[:f - f0 + 1], d) for sid, v in features.items()}
            for tid in live:
                seen = [(g, box.h / box.w) for g, box in sightings[tid] if g <= f]
                ratios = oracle_ratios(seen)
                if len(ratios) < gate:
                    continue
                start = seen[0][0]
                final = oracle_marks(ratios, d)[:max(0, len(ratios) - half)]
                folded = [m if start + x + half + d <= f else 0 for x, m in enumerate(final)]
                for sid, marks in sensor_marks.items():
                    scores[tid, sid] = oracle_sim(folded, marks, d, start, f0)
        raws.append(oracle_lsap(scores) if scores else (frozenset(), 0.0))
        counts = collections.Counter(pair for pairs, _ in raws for pair in pairs if pair[0] in live)
        refined = oracle_lsap({k: math.log2(1 + c) for k, c in counts.items()}) if counts else (frozenset(), 0.0)
        out.append((box_traces, raws[-1], refined))
    return out


def brute_force_lsap(weights):
    """All injective row->column maps by enumeration; returns the optimal
    objective and every optimal positive-weight pair set."""
    rows = sorted({r for r, _ in weights})
    cols = sorted({c for _, c in weights})
    n = max(len(rows), len(cols))
    padded = cols + [("__pad__", k) for k in range(n - len(cols))]
    best_obj = None
    best_sets = []
    for combo in itertools.permutations(padded, len(rows)):
        obj = 0.0
        for r, c in zip(rows, combo):
            obj += weights.get((r, c), 0.0)
        pairs = frozenset(
            (r, c) for r, c in zip(rows, combo) if weights.get((r, c), 0.0) > 0
        )
        if best_obj is None or obj > best_obj:
            best_obj, best_sets = obj, [pairs]
        elif obj == best_obj and pairs not in best_sets:
            best_sets.append(pairs)
    return best_obj, best_sets


def oracle_lsap(weights):
    """The canonical pairing walk without the uniqueness certificate:
    (pairs, objective) of the lexicographically smallest optimum, totals
    within a relative 1e-9 of the optimum counting as optimal. Rows are
    visited in id order; a positive-weight column is accepted iff forcing
    it admits such a completion, checked by a reduced solve unless the
    walk is still on the solver's own optimum."""
    for key, wv in weights.items():
        if not math.isfinite(wv) or wv < 0:
            raise ValueError(f"weight for {key} must be finite and >= 0, got {wv}")
    row_ids = sorted({t for t, _ in weights})
    col_ids = sorted({s for _, s in weights})
    nr, nc = len(row_ids), len(col_ids)
    row_index = {t: i for i, t in enumerate(row_ids)}
    col_index = {c: j for j, c in enumerate(col_ids)}
    w = np.zeros((nr, nc))
    for (t, s), wv in weights.items():
        w[row_index[t], col_index[s]] = wv

    rows, cols = linear_sum_assignment(w, maximize=True)
    best = float(w[rows, cols].sum())
    base_cols = dict(zip(rows.tolist(), cols.tolist()))
    eps = 1e-9 * max(1.0, abs(best))

    on_base = True
    free_cols = list(range(nc))
    fixed = []
    fixed_sum = 0.0
    for i in range(nr):
        later_rows = list(range(i + 1, nr))
        base_j = base_cols.get(i, -1)
        chosen = -1
        for j in free_cols:
            if w[i, j] <= 0.0:
                continue
            if on_base and j == base_j:
                chosen = j
                break
            rest = w[np.ix_(later_rows, [c for c in free_cols if c != j])]
            r, c = linear_sum_assignment(rest, maximize=True)
            if fixed_sum + w[i, j] + rest[r, c].sum() >= best - eps:
                chosen = j
                break
        if chosen >= 0:
            if chosen != base_j:
                on_base = False
            fixed.append((row_ids[i], col_ids[chosen]))
            fixed_sum += w[i, chosen]
            free_cols.remove(chosen)
    objective = 0.0
    for t, s in fixed:
        objective += weights.get((t, s), 0.0)
    return frozenset(fixed), objective


def lex_smallest(pair_sets):
    return min(pair_sets, key=lambda s: sorted(s))


def strict_interior_maxima(values):
    """Count of samples strictly above both immediate neighbors."""
    return sum(
        1
        for i in range(1, len(values) - 1)
        if values[i] > values[i - 1] and values[i] > values[i + 1]
    )
