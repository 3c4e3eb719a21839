"""One-to-one trace/sensor pairing by maximum-weight assignment.

Both stages reduce to the same combinatorial core: given nonnegative
weights on (trace, sensor) pairs, pick a partial matching maximizing the
total weight, each trace and each sensor used at most once. The raw stage
weighs pairs by their current similarity score; the refined stage weighs
them by log2(1 + rsim), where rsim counts how many past frames paired
them, so one noisy frame cannot flip an entrenched pairing.

The optimum comes from one run of SciPy's rectangular assignment solver
(`linear_sum_assignment`, Crouse 2016) on the traces x sensors weight
matrix. With nonnegative weights, a maximum-weight full rectangular
matching is also a maximum-weight partial one. Zero-weight pairs carry no
evidence and are dropped from the result, so a row matched to a worthless
column comes out as unpaired.

Optima can tie. For reproducibility the result is made canonical: the
optimum whose sorted (row, col) pair list is lexicographically smallest,
whichever optimum the solver returns, where totals within eps (1e-9 of
the optimal total, at least 1e-9) of the optimum count as optimal. Rows
are visited in id order; a candidate column is accepted iff forcing it
still admits a completion within eps of the optimum, checked by solving
the later rows against the columns still free. While the walk follows
the solver's own optimum (the base), the base's column needs no check.

Most optima are unique, and then no re-solve is needed: the first time
the walk would check a column, it is still on the base, and it first
tries a uniqueness certificate. The walk leaves the base only for a
positive pair outside it, so it keeps exactly the base's positive pairs
if every matching holding such a pair lies more than eps below best. Lower
each of the k positive base pairs by delta = 2 eps and solve once more,
for the lowered optimum L. A positive pair outside the base that shares
no row and no column with a positive base pair would make the base
heavier, which only rounding can hide; the certificate requires that
there is none. Any other one displaces a positive base pair, so a
matching holding it, completed to a full matching, keeps at most k - 1
of them and weighs at most L + (k - 1) delta. If L <= best - k delta +
eps / 2, that is at most best - 1.5 eps, and the base's positive pairs
are returned at once. Otherwise (a real near-tie) the walk goes on as
above. The certificate is a proof, so it changes no result, only how
many solves it takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

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


def solve_matrix(w: np.ndarray, row_ids: Sequence[str], col_ids: Sequence[str]) -> Assignment:
    """Maximum-weight partial matching on the weight matrix w, whose rows
    are row_ids and columns col_ids, each list in increasing id order.

    Of all optimal matchings, returns the one whose sorted pair list is
    lexicographically smallest, with zero-weight pairs dropped; ties
    therefore resolve identically on every platform.
    """
    # NaN fails both comparisons: numpy's min and max propagate it
    if w.size and not (0.0 <= np.minimum.reduce(w, axis=None) and np.maximum.reduce(w, axis=None) < math.inf):
        i, j = np.argwhere(~((w >= 0.0) & (w < math.inf)))[0].tolist()
        raise ValueError(f"weight for {(row_ids[i], col_ids[j])} must be finite and >= 0, got {w[i, j]}")
    rows, cols = linear_sum_assignment(w, maximize=True)
    base_cols = dict(zip(rows.tolist(), cols.tolist()))

    # Walk rows in id order, fixing the smallest column that still allows
    # an optimal completion. While the walk still follows the solver's
    # optimum (base_cols), that optimum's own column needs no check, so
    # the first column that does is met on the base: only there is the
    # optimal total first needed and the certificate tried. Rows the
    # solver left out when columns ran short have no base column.
    nr, nc = w.shape
    best = eps = -1.0
    on_base = True
    free_cols = list(range(nc))
    fixed: list[tuple[int, int, float]] = []
    fixed_sum = 0.0
    for i in range(nr):
        row = w[i].tolist()
        base_j = base_cols.get(i, -1)
        chosen = -1
        for j in free_cols:
            if row[j] <= 0.0:
                continue
            if on_base and j == base_j:
                chosen = j
                break
            if best < 0.0:
                base_w = w[rows, cols]
                best = float(np.add.reduce(base_w))
                eps = _REL_EPS * max(1.0, best)
                base = [(r, c, v) for (r, c), v in zip(base_cols.items(), base_w.tolist()) if v > 0.0]
                if _base_is_unique(w, base, best, eps):
                    return _assignment(base, row_ids, col_ids)
            rest = w[np.ix_(range(i + 1, nr), [c for c in free_cols if c != j])]
            r, c = linear_sum_assignment(rest, maximize=True)
            if fixed_sum + row[j] + rest[r, c].sum() >= best - eps:
                chosen = j
                break
        if chosen >= 0:
            if chosen != base_j:
                on_base = False
            fixed.append((i, chosen, row[chosen]))
            fixed_sum += row[chosen]
            free_cols.remove(chosen)
        # An unpaired row consumes no column: partial-matching semantics.
        # If on_base, the base solution left this row out or parked it on a
        # worthless column, which stays available to later rows.
    return _assignment(fixed, row_ids, col_ids)


def _base_is_unique(w: np.ndarray, base: list[tuple[int, int, float]], best: float, eps: float) -> bool:
    """Whether every matching holding a positive pair outside base, the
    optimum's positive pairs as (row, column, weight) triples, lies more
    than eps below best (the argument is in the module docstring)."""
    delta = 2.0 * eps
    rows = [i for i, _, _ in base]
    cols = [j for _, j, _ in base]
    if len(base) < min(w.shape):  # some row and some column lack a positive base pair
        open_rows = sorted(set(range(w.shape[0])).difference(rows))
        open_cols = sorted(set(range(w.shape[1])).difference(cols))
        if w[np.ix_(open_rows, open_cols)].any():
            return False
    lowered = w.copy()
    lowered[rows, cols] -= delta
    r, c = linear_sum_assignment(lowered, maximize=True)
    return np.add.reduce(lowered[r, c]) <= best - delta * len(base) + eps / 2


def _assignment(pairs: list[tuple[int, int, float]], row_ids: Sequence[str],
                col_ids: Sequence[str]) -> Assignment:
    """The Assignment of (row, column, weight) triples, summed in row order."""
    objective = 0.0
    for _, _, v in pairs:
        objective += v
    return Assignment(frozenset((row_ids[i], col_ids[j]) for i, j, _ in pairs), objective)


def solve_lsap(weights: Mapping[tuple[str, str], float]) -> Assignment:
    """`solve_matrix` over the given pair weights; missing pairs weigh zero."""
    row_ids = sorted({t for t, _ in weights})
    col_ids = sorted({s for _, s in weights})
    row_index = {t: i for i, t in enumerate(row_ids)}
    col_index = {s: j for j, s in enumerate(col_ids)}
    w = np.zeros((len(row_ids), len(col_ids)))
    for (t, s), wv in weights.items():
        w[row_index[t], col_index[s]] = wv
    return solve_matrix(w, row_ids, col_ids)


def raw_pair(matrix: SimilarityMatrix) -> Assignment:
    """Frame-local pairing straight from the similarity scores."""
    return solve_matrix(matrix.values, matrix.trace_ids, matrix.sensor_ids)


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
