"""One-to-one trace/sensor pairing by maximum-weight assignment.

Both stages reduce to the same combinatorial core: given nonnegative
weights on (trace, sensor) pairs, pick a partial matching maximizing the
total weight, each trace and each sensor used at most once. The raw stage
weighs pairs by their current similarity score; the refined stage weighs
them by log2(1 + rsim), where rsim counts how many past frames paired
them, so one noisy frame cannot flip an entrenched pairing.

The optimum comes from SciPy's rectangular assignment solver
(`linear_sum_assignment`, Crouse 2016) run on the traces x sensors weight
matrix. With nonnegative weights, a maximum-weight full rectangular
matching is also a maximum-weight partial one. Zero-weight pairs carry no
evidence and are dropped from the result, so a row matched to a worthless
column comes out as unpaired.

Optima can tie. For reproducibility the result is made canonical: the
optimum whose sorted (row, col) pair list is lexicographically smallest,
whichever optimum the solver returns. Rows are visited in id order; a
candidate column is accepted iff forcing it still admits a completion
worth the optimal total, checked by solving the later rows against the
columns still free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.optimize import linear_sum_assignment

from .similarity import SimilarityMatrix

_REL_EPS = 1e-9


@dataclass(frozen=True)
class Assignment:
    """A pairing decision: pairs holds only positive-weight matches, ids
    appearing at most once on each side; objective is their weight sum."""

    pairs: frozenset[tuple[str, str]]
    objective: float

    def sorted_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.pairs)


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
    row_index = {t: i for i, t in enumerate(row_ids)}
    col_index = {c: j for j, c in enumerate(col_ids)}
    w = np.zeros((nr, nc))
    for (t, s), wv in weights.items():
        w[row_index[t], col_index[s]] = wv

    rows, cols = linear_sum_assignment(w, maximize=True)
    best = float(w[rows, cols].sum())
    base_cols = dict(zip(rows.tolist(), cols.tolist()))
    eps = _REL_EPS * max(1.0, abs(best))

    # Walk rows in id order, fixing the smallest column that still allows
    # an optimal completion. Solving a reduced problem per candidate is
    # n^4-ish in the worst case but the matrices here are tiny. While the
    # walk still coincides with the full solve's optimum (base_cols), that
    # optimum's own column needs no verification solve. Rows the solver
    # left out when columns ran short have no base column.
    on_base = True
    free_cols = list(range(nc))
    fixed: list[tuple[str, str]] = []
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
        # An unpaired row consumes no column: partial-matching semantics.
        # If on_base, the base solution left this row out or parked it on a
        # worthless column, which stays available to later rows.
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

    def retire_trace(self, trace_id: str) -> None:
        """Forget a trace that ended; a dead trace must not keep a sensor
        bound to it."""
        for key in [k for k in self.counts if k[0] == trace_id]:
            del self.counts[key]


def update_rsim(state: RefinedState, assignment: Assignment) -> RefinedState:
    for pair in assignment.pairs:
        state.counts[pair] = state.counts.get(pair, 0) + 1
    return state


def refined_pair(state: RefinedState) -> Assignment:
    """History-weighted pairing: weight log2(1 + count) grows slowly, so a
    pairing must persist across many frames to displace another."""
    weights = {k: math.log2(1 + c) for k, c in state.counts.items() if c > 0}
    return solve_lsap(weights)
