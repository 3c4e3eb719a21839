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

The refined stage keeps its counts from frame to frame, and most frames
add only to the pairs it already holds, so it skips the solve when the
answer provably stands. This is the exact special case of the dynamic
Hungarian algorithm (Mills-Tettey, Stentz and Dias 2007) for weights
that grow only on the held matching. Let M be the pairing a solve
returned, with a gap bound g: every matching holding a positive pair
outside M lies at least g below M's total. Suppose that since then every
raw pair fell in M and no trace holding counts retired. Then the rows,
the columns and the set of positive pairs are unchanged, and only pairs
of M gained weight. The solve sets g in one of three ways.

- The certificate held: g = best - (L + (k - 1) delta), the bound shown
  above. A matching N holding a positive pair outside M shares a row or a
  column with a positive pair of M (the certificate ruled out the rest,
  and no pair became positive since), so N lacks a pair of M and gains at
  most what M gains: g never shrinks. While g > 1.5 eps for the current
  total's eps, the argument above applies with that eps: M is an
  optimum, no column outside M passes a check, and each column of M is
  met on the base or passes its check, so the walk returns M.
- The walk returned without needing the optimal total: every row took
  its first positive free column, so M is the lexicographically smallest
  of all matchings, and, as the solver's base, an optimum. Any other
  matching gains at most what M gains, so M stays optimal, and while no
  pair turns positive it stays the smallest: g = +inf.
- The walk went on past a real near-tie: g = -inf, so the next frame
  solves.

A skipped frame returns M's pairs, with M's weights summed in row order
as a solve sums them, so its objective is bitwise the one a solve gives.

The raw stage skips a solve without any bound. Its scores move only
when a trace scorer folds a new mark; on a frame where none moved and no
gated trace came or went, the pipeline hands over last frame's
`SimilarityMatrix` object, whose values are read-only, so they are the
same bit for bit. `raw_pair` caches its last result keyed by the
matrix's identity, and the cache keeps that matrix alive, so no new
matrix can take its id: each matrix object costs one solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
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
    return _assignment(_solve(w, row_ids, col_ids)[0], row_ids, col_ids)


def _solve(w: np.ndarray, row_ids: Sequence[str],
           col_ids: Sequence[str]) -> tuple[list[tuple[int, int, float]], float]:
    """`solve_matrix`'s pairs as (row, column, weight) triples in row
    order, and the gap bound the refined stage carries (see the module
    docstring): +inf when the walk never needed the optimal total, the
    certificate's bound when it held, -inf after a real near-tie."""
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
                gap = _certificate(w, base, best, eps)
                if gap is not None:
                    return base, gap
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
    return fixed, (math.inf if best < 0.0 else -math.inf)


def _certificate(w: np.ndarray, base: list[tuple[int, int, float]], best: float,
                 eps: float) -> float | None:
    """None unless every matching holding a positive pair outside base,
    the optimum's positive pairs as (row, column, weight) triples, lies
    more than eps below best; then a bound g such that all of them lie at
    least g below best (the argument is in the module docstring)."""
    delta = 2.0 * eps
    rows = [i for i, _, _ in base]
    cols = [j for _, j, _ in base]
    if len(base) < min(w.shape):  # some row and some column lack a positive base pair
        open_rows = sorted(set(range(w.shape[0])).difference(rows))
        open_cols = sorted(set(range(w.shape[1])).difference(cols))
        if w[np.ix_(open_rows, open_cols)].any():
            return None
    lowered = w.copy()
    lowered[rows, cols] -= delta
    r, c = linear_sum_assignment(lowered, maximize=True)
    lowered_best = float(np.add.reduce(lowered[r, c]))
    if lowered_best > best - delta * len(base) + eps / 2:
        return None
    return best - (lowered_best + delta * (len(base) - 1))


def _assignment(pairs: list[tuple[int, int, float]], row_ids: Sequence[str],
                col_ids: Sequence[str]) -> Assignment:
    """The Assignment of (row, column, weight) triples, summed in row order."""
    objective = 0.0
    for _, _, v in pairs:
        objective += v
    return Assignment(frozenset((row_ids[i], col_ids[j]) for i, j, _ in pairs), objective)


@functools.lru_cache(maxsize=1)
def raw_pair(matrix: SimilarityMatrix) -> Assignment:
    """Frame-local pairing straight from the similarity scores, solved
    once per matrix object (see the module docstring)."""
    return solve_matrix(matrix.values, matrix.trace_ids, matrix.sensor_ids)


class RefinedState:
    """Accumulated pairing evidence: how many frames the raw stage paired
    each (trace, sensor), one dict of positive counts that callers read as
    `counts`. `_layout` lays the solver's view out from it: `trace_ids` and
    `sensor_ids`, the traces and sensors holding a count in id order, and
    their weights log2(1 + count) as an array, by math.log2 (np.log2
    differs from it for some integers). The state also keeps the last
    refined pairing and its gap bound, so that `refined_pair` can skip a
    solve that cannot change the result (see the module docstring)."""

    def __init__(self, counts: Mapping[tuple[str, str], int] | None = None) -> None:
        self._counts = {k: c for k, c in (counts or {}).items() if c > 0}
        self._layout()

    @property
    def counts(self) -> Mapping[tuple[str, str], int]:
        """The positive counts keyed by (trace, sensor)."""
        return MappingProxyType(self._counts)

    def _layout(self) -> None:
        """Lay the ids, index maps and weights out from the counts; drop the held pairing."""
        self.trace_ids = sorted({t for t, _ in self._counts})
        self.sensor_ids = sorted({s for _, s in self._counts})
        self._rows = {t: i for i, t in enumerate(self.trace_ids)}
        self._cols = {s: j for j, s in enumerate(self.sensor_ids)}
        self._weights = np.zeros((len(self.trace_ids), len(self.sensor_ids)))
        for (t, s), c in self._counts.items():
            self._weights[self._rows[t], self._cols[s]] = math.log2(1 + c)
        # The last refined pairing while no frame since could have changed
        # it (else None), its pairs as (row, column) and its gap bound.
        self._held: Assignment | None = None
        self._held_at: list[tuple[int, int]] = []
        self._gap = -math.inf

    def retire_trace(self, trace_id: str) -> None:
        """Forget a trace that ended: a dead trace must not keep a sensor bound to it."""
        if trace_id in self._rows:
            for key in [k for k in self._counts if k[0] == trace_id]:
                del self._counts[key]
            self._layout()


def update_rsim(state: RefinedState, assignment: Assignment) -> RefinedState:
    """One more frame of evidence for each raw pair; a pair whose trace or
    sensor has no row or column yet lays the state out anew."""
    if state._held is not None and not assignment.pairs <= state._held.pairs:
        state._held = None
    counts, rows, cols = state._counts, state._rows, state._cols
    laid_out = True
    for trace_id, sensor_id in assignment.pairs:
        c = counts[trace_id, sensor_id] = counts.get((trace_id, sensor_id), 0) + 1
        if trace_id in rows and sensor_id in cols:
            state._weights[rows[trace_id], cols[sensor_id]] = math.log2(1 + c)
        else:
            laid_out = False
    if not laid_out:
        state._layout()
    return state


def refined_pair(state: RefinedState) -> Assignment:
    """History-weighted pairing: weight log2(1 + count) grows slowly, so a
    pairing must persist across many frames to displace another. Reuses
    the last pairing while it provably stands (see the module docstring)."""
    held = state._held
    if held is not None:
        weights = state._weights
        objective = 0.0
        for i, j in state._held_at:
            objective += weights.item(i, j)
        if state._gap > 1.5 * _REL_EPS * max(1.0, objective):
            state._held = Assignment(held.pairs, objective)
            return state._held
    pairs, state._gap = _solve(state._weights, state.trace_ids, state.sensor_ids)
    state._held_at = [(i, j) for i, j, _ in pairs]
    state._held = _assignment(pairs, state.trace_ids, state.sensor_ids)
    return state._held
