"""Independent reference implementations the tests check the package against.

Deliberately written in the most literal way possible, sharing no code with
the package: plain neighbor scans, exhaustive enumeration, and the
canonical pairing walk that re-solves for every candidate column. Only
`solve_lsap`, the package's solver driven through a dict of pair
weights, is not a reference.
"""

import itertools
import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

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
    out = []
    for x in range(len(seq)):
        lo = max(0, x - half)
        hi = min(len(seq) - 1, x + half)
        neighbors = [seq[k] for k in range(lo, hi + 1) if k != x]
        if neighbors and all(seq[x] > v for v in neighbors):
            out.append(1)
        elif neighbors and all(seq[x] < v for v in neighbors):
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
