"""One-to-one trace/sensor pairing by maximum-weight assignment.

Both stages reduce to the same combinatorial core: given nonnegative
weights on (trace, sensor) pairs, pick a partial matching maximizing the
total weight, each trace and each sensor used at most once. The raw stage
weighs pairs by their current similarity score; the refined stage weighs
them by log2(1 + rsim), where rsim counts how many past frames paired
them, so one noisy frame cannot flip an entrenched pairing.

The solver is the classical potentials/augmenting-path Hungarian method,
O(n^3), run on the rectangle padded to a square with zero weights.
Zero-weight pairs carry no evidence and are dropped from the result, so
"matched to a padding column" and "matched to a real but worthless
column" both come out as unpaired.

Optima can tie. For reproducibility the result is polished to the
canonical optimum: the one whose sorted (row, col) pair list is
lexicographically smallest. Rows are visited in id order; a candidate
column is accepted iff forcing it still admits a completion worth the
optimal total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .similarity import SimilarityMatrix

_REL_EPS = 1e-9


def _hungarian_min(cost: list[list[float]]) -> list[int]:
    """Column matched to each row of a square cost matrix, minimizing total
    cost. Potentials-based augmenting path search, deterministic."""
    n = len(cost)
    if n == 0:
        return []
    inf = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = 0
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    match = [0] * n
    for j in range(1, n + 1):
        match[p[j] - 1] = j - 1
    return match


def _max_weight(w: list[list[float]]) -> tuple[float, list[int]]:
    """Optimal total weight of a non-empty square nonnegative matrix, and
    the column each row takes in the optimum found."""
    top = max(max(row) for row in w)
    match = _hungarian_min([[top - x for x in row] for row in w])
    return sum(w[i][match[i]] for i in range(len(w))), match


def _solve_reduced(w: list[list[float]], rows: list[int], cols: list[int]) -> float:
    """Optimal total over the given row/col subsets, padded square."""
    n = max(len(rows), len(cols))
    if n == 0:
        return 0.0
    sub = [[w[i][j] for j in cols] + [0.0] * (n - len(cols)) for i in rows]
    sub += [[0.0] * n for _ in range(n - len(rows))]
    return _max_weight(sub)[0]


@dataclass(frozen=True)
class Assignment:
    """A pairing decision: pairs holds only positive-weight matches, ids
    appearing at most once on each side; objective is their weight sum."""

    pairs: frozenset[tuple[str, str]]
    objective: float

    def sorted_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.pairs)

    def trace_for_sensor(self) -> dict[str, str]:
        return {s: t for t, s in self.pairs}


def solve_lsap(weights: Mapping[tuple[str, str], float]) -> Assignment:
    """Maximum-weight partial matching over the given pair weights.

    Missing pairs weigh zero. Of all optimal matchings, returns the one
    whose sorted pair list is lexicographically smallest, with zero-weight
    pairs dropped; ties therefore resolve identically on every platform.
    """
    for key, wv in weights.items():
        if not math.isfinite(wv) or wv < 0:
            raise ValueError(f"weight for {key} must be finite and >= 0, got {wv}")
    row_ids = sorted({t for t, _ in weights})
    col_ids = sorted({s for _, s in weights})
    nr, nc = len(row_ids), len(col_ids)
    n = max(nr, nc)
    if n == 0:
        return Assignment(frozenset(), 0.0)
    row_index = {t: i for i, t in enumerate(row_ids)}
    col_index = {c: j for j, c in enumerate(col_ids)}
    w = [[0.0] * n for _ in range(n)]
    for (t, s), wv in weights.items():
        w[row_index[t]][col_index[s]] = wv

    best, base_cols = _max_weight(w)
    eps = _REL_EPS * max(1.0, abs(best))

    # Walk rows in id order, fixing the smallest column that still allows
    # an optimal completion. Solving a reduced problem per candidate is
    # n^4-ish in the worst case but the matrices here are tiny. While the
    # walk still coincides with the full solve's optimum (base_cols), that
    # optimum's own column needs no verification solve.
    on_base = True
    free_cols = set(range(n))
    fixed: list[tuple[str, str]] = []
    fixed_sum = 0.0
    for i in range(nr):
        rest_rows = list(range(i + 1, nr))
        base_j = base_cols[i]
        chosen = -1
        for j in sorted(free_cols):
            if j >= nc or w[i][j] <= 0.0:
                continue
            if on_base and j == base_j:
                chosen = j
                break
            rest = _solve_reduced(w, rest_rows, sorted(free_cols - {j}))
            if fixed_sum + w[i][j] + rest >= best - eps:
                chosen = j
                break
        if chosen >= 0:
            if chosen != base_j:
                on_base = False
            fixed.append((row_ids[i], col_ids[chosen]))
            fixed_sum += w[i][chosen]
            free_cols.discard(chosen)
        # An unpaired row consumes no column: partial-matching semantics.
        # If on_base, the base solution parked this row on a worthless
        # column, which stays available to later rows.
    objective = 0.0
    for t, s in fixed:
        objective += weights.get((t, s), 0.0)
    return Assignment(frozenset(fixed), objective)


def raw_pair(matrix: SimilarityMatrix) -> Assignment:
    """Frame-local pairing straight from the similarity scores."""
    return solve_lsap(matrix.scores)


@dataclass
class RefinedState:
    """Accumulated pairing evidence: counts[(trace, sensor)] is the number
    of frames the raw stage paired them so far."""

    counts: dict[tuple[str, str], int] = field(default_factory=dict)
    frames_processed: int = 0

    def retire_trace(self, trace_id: str) -> None:
        """Forget a trace that ended; a dead trace must not keep a sensor
        bound to it."""
        for key in [k for k in self.counts if k[0] == trace_id]:
            del self.counts[key]


def update_rsim(state: RefinedState, assignment: Assignment) -> RefinedState:
    for pair in assignment.pairs:
        state.counts[pair] = state.counts.get(pair, 0) + 1
    state.frames_processed += 1
    return state


def refined_pair(state: RefinedState) -> Assignment:
    """History-weighted pairing: weight log2(1 + count) grows slowly, so a
    pairing must persist across many frames to displace another."""
    weights = {k: math.log2(1 + c) for k, c in state.counts.items() if c > 0}
    return solve_lsap(weights)
