"""Extremum-alignment similarity between ratio features and step features.

Exact values of the two modalities are not comparable (dimensionless ratio
vs m/s²), but their rhythm is: both oscillate with the wearer's steps. Each
sequence is reduced to a ternary sequence marking strict local maxima (+1),
strict local minima (-1), and everything else (0); the score then measures
how well the marked positions of the trace sequence line up with same-sign
marks of the sensor sequence.

For a trace ternary sequence t with n marks, the score is

    score(t, a) = n / max(total_offset, floor)

where total_offset sums, over every marked position x of t, the distance to
the nearest same-sign mark of a within x-d..x+d, or a fixed penalty
(1.5 * d by default) when none exists there. Plateaus are never marked
(strict comparison), windows truncate at sequence edges rather than pad,
and the score is asymmetric in its arguments by construction: n counts the
trace's marks.

The two sides are held differently. A trace gets one ratio per frame, so
its marks come from an `ExtremeStream` fed one value at a time. The
sensors' step features arrive as one block: a `SensorRow` holds every
sensor on one frame grid as arrays, marks them all at once, and tables the
cost a trace mark of either sign would pay at each position, so that cost
is worked out once per (sensor, position) rather than once per trace.
`PairScorer` folds each trace mark into its running totals against the
whole row with one vector add, and only once the mark's search window can
no longer change; earlier terms are immutable, which keeps per-frame cost
constant. `sim` runs the same engine on a flushed one-sensor row.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class SimilarityParams:
    """Knobs for extremum detection and mark matching.

    d is the extremum-detection window: a position must beat its
    ceil(d/2) nearest neighbors on each side to be marked. The match
    search range is dif_window positions per side (defaults to d).
    """

    d: int = 10
    dif_window: int | None = None
    no_match_penalty_factor: float = 1.5
    zero_denominator_floor: float = 0.5

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.dif_window is not None and self.dif_window < 1:
            raise ValueError("dif_window must be >= 1")
        if self.no_match_penalty_factor <= 0 or self.zero_denominator_floor <= 0:
            raise ValueError("penalty factor and floor must be positive")

    @property
    def dif_d(self) -> int:
        return self.d if self.dif_window is None else self.dif_window

    @property
    def no_match_penalty(self) -> float:
        return self.no_match_penalty_factor * self.dif_d


@dataclass(frozen=True)
class TernarySequence:
    """Feature sequence reduced to {-1, 0, +1}; values[k] sits at frame
    start_frame + k."""

    values: tuple[int, ...]
    start_frame: int = 0

    def __post_init__(self) -> None:
        prev_mark = 0
        prev_pos = None
        for pos, v in enumerate(self.values):
            if v not in (-1, 0, 1):
                raise ValueError(f"ternary value {v} at {pos}")
            if v != 0:
                if prev_pos is not None and v == prev_mark and pos - prev_pos < 2:
                    raise ValueError(f"adjacent same-sign marks at {prev_pos}, {pos}")
                prev_mark, prev_pos = v, pos

    def __len__(self) -> int:
        return len(self.values)


def _classify(values: Sequence[float], x: int, half: int) -> int:
    lo = max(0, x - half)
    hi = min(len(values), x + half + 1)
    v = values[x]
    is_max = True
    is_min = True
    for k in range(lo, hi):
        if k == x:
            continue
        if v <= values[k]:
            is_max = False
        if v >= values[k]:
            is_min = False
        if not (is_max or is_min):
            return 0
    if is_max and hi - lo > 1:
        return 1
    if is_min and hi - lo > 1:
        return -1
    return 0


def detect_extremes(seq: Sequence[float], d: int = 10, start_frame: int = 0) -> TernarySequence:
    """Mark strict local extrema against the ceil(d/2) nearest neighbors on
    each side, truncating windows at the edges."""
    if d < 1:
        raise ValueError("d must be >= 1")
    stream = ExtremeStream(d, start_frame)
    for v in seq:
        stream.push(v)
    stream.flush()
    return TernarySequence(tuple(stream.marks), start_frame)


def sim(t: TernarySequence, a: TernarySequence, params: SimilarityParams = SimilarityParams()) -> float:
    """Similarity of trace marks t against sensor marks a.

    Zero when t has no marks. A perfectly aligned pair would divide by
    zero; the floor (half the minimal nonzero offset) keeps the score
    finite and order-preserving.
    """
    trace = ExtremeStream(params.d, t.start_frame)
    trace.marks = list(t.values)
    scorer = PairScorer(trace, SensorRow.from_marks(["a"], [a.values], params, a.start_frame))
    scorer.advance()
    return float(scorer.score()[0])


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Scores of every gated (trace, sensor) pair in one frame:
    values[k, m] scores trace_ids[k] against sensor_ids[m], both id lists
    in increasing order."""

    trace_ids: Sequence[str]
    sensor_ids: Sequence[str]
    values: np.ndarray

    @functools.cached_property
    def scores(self) -> dict[tuple[str, str], float]:
        """The same scores keyed by (trace, sensor)."""
        return dict(zip(itertools.product(self.trace_ids, self.sensor_ids), self.values.ravel().tolist()))


class ExtremeStream:
    """Incrementally classifies a growing sequence, finalizing position x
    once values through x + half exist (or at flush, with a truncated
    window). Finalized marks never change."""

    def __init__(self, d: int, start_frame: int = 0):
        self.half = (d + 1) // 2
        self.start_frame = start_frame
        self._values: list[float] = []
        self.marks: list[int] = []
        self.flushed = False

    def __len__(self) -> int:
        return len(self._values)

    def push(self, value: float) -> None:
        if self.flushed:
            raise ValueError("stream already flushed")
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value} at frame {self.start_frame + len(self._values)}")
        self._values.append(value)
        x = len(self._values) - 1 - self.half
        if x >= 0:
            self.marks.append(_classify(self._values, x, self.half))

    def flush(self) -> None:
        for x in range(len(self.marks), len(self._values)):
            self.marks.append(_classify(self._values, x, self.half))
        self.flushed = True


class SensorRow:
    """Step features of S sensors on one frame grid, held as arrays.

    `extend` appends an (S, m) block of values. Position x (frame
    start_frame + x) gets its mark once values through x + half exist, and
    `flush` marks the rest with truncated windows, as `ExtremeStream` does;
    `marks` is the (S, marked) array of final marks.

    costs[+1] and costs[-1] are (S, columns) float64 tables: the entry in
    column p + pad, pad = dif_d, is the distance from position p to the
    nearest same-sign mark within dif_d, or the no-match penalty when there
    is none. A column is final once every mark within dif_d of it is, so
    the first `costed` columns are final: through position marked - pad - 1
    while the row is open, and out to position length + pad - 1, past which
    every cost is the penalty, once it is flushed. The tables start pad
    positions before the row so that a trace starting earlier gets the
    same truncated-window costs.

    `finalized` counts the marks a `PairScorer` may fold against (math.inf
    once flushed). It equals `marked` after each `extend`; `release` lowers
    it to what fewer pushed values would finalize, so that a caller can
    extend with a whole run's block up front and still fold frame by frame.
    """

    def __init__(self, sensor_ids: Sequence[str], params: SimilarityParams = SimilarityParams(),
                 start_frame: int = 0):
        self.sensor_ids = tuple(sensor_ids)
        repeated = sorted({sid for sid in self.sensor_ids if self.sensor_ids.count(sid) > 1})
        if repeated:
            raise ValueError(f"sensor id {repeated[0]!r} given more than once")
        self.params = params
        self.start_frame = start_frame
        self.half = (params.d + 1) // 2
        self.pad = params.dif_d
        self.length = 0
        self.marked = 0
        self.costed = 0
        self.finalized: float = 0
        self.flushed = False
        self._values = np.empty((len(self.sensor_ids), 0))
        self._marks = np.zeros((len(self.sensor_ids), 2 * self.pad), dtype=np.int8)
        self.costs = {sign: np.full(self._marks.shape, params.no_match_penalty) for sign in (1, -1)}

    @classmethod
    def from_marks(cls, sensor_ids: Sequence[str], marks, params: SimilarityParams = SimilarityParams(),
                   start_frame: int = 0) -> SensorRow:
        """A flushed row holding the given (S, N) ternary marks."""
        row = cls(sensor_ids, params, start_frame)
        marks = np.asarray(marks, dtype=np.int8).reshape(len(row.sensor_ids), -1)
        row._grow(marks.shape[1])
        row._marks[:, row.pad:row.pad + marks.shape[1]] = marks
        row.length = row.marked = marks.shape[1]
        row.flush()
        return row

    @property
    def marks(self) -> np.ndarray:
        return self._marks[:, self.pad:self.pad + self.marked]

    def extend(self, block) -> None:
        """Append one value per sensor and frame: block is (S, m), rows in
        sensor_ids order."""
        if self.flushed:
            raise ValueError("row already flushed")
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != len(self.sensor_ids):
            raise ValueError(f"block of shape {block.shape} for a row of {len(self.sensor_ids)} sensors")
        bad = ~np.isfinite(block)
        if bad.any():
            col = int(bad.any(axis=0).argmax())
            k = int(bad[:, col].argmax())
            raise ValueError(f"sensor {self.sensor_ids[k]!r}: non-finite step feature {block[k, col]} "
                             f"at frame {self.start_frame + self.length + col}")
        self._grow(block.shape[1])
        self._values[:, self.length:self.length + block.shape[1]] = block
        self.length += block.shape[1]
        self._mark_through(self.length - self.half)
        self._cost_through(self.marked)
        self.finalized = self.marked

    def flush(self) -> None:
        """Mark the last positions with truncated windows; every cost is
        then final."""
        self._mark_through(self.length)
        self._cost_through(self.length + 2 * self.pad)
        self.finalized = math.inf
        self.flushed = True

    def release(self, length: int) -> None:
        """Let scorers fold only against the marks the first `length`
        values finalize, as if the rest were not pushed yet."""
        self.finalized = min(self.marked, max(0, length - self.half))

    def _grow(self, m: int) -> None:
        cap = self._values.shape[1]
        if self.length + m <= cap:
            return
        cap = max(self.length + m, 2 * cap)
        values = np.empty((len(self.sensor_ids), cap))
        values[:, :self.length] = self._values[:, :self.length]
        self._values = values
        marks = np.zeros((len(self.sensor_ids), cap + 2 * self.pad), dtype=np.int8)
        marks[:, :self._marks.shape[1]] = self._marks
        self._marks = marks
        for sign, table in self.costs.items():
            grown = np.full(marks.shape, self.params.no_match_penalty)
            grown[:, :self.costed] = table[:, :self.costed]
            self.costs[sign] = grown

    def _mark_through(self, x1: int) -> None:
        """Mark positions marked..x1-1, comparing each with its neighbors
        one shift at a time; a neighbor past the values held does not
        count, which truncates the window at either edge."""
        x0, end, half = self.marked, self.length, self.half
        if x1 <= x0:
            return
        lo = max(0, x0 - half)
        seg = self._values[:, lo:min(end, x1 + half)]
        is_max = np.ones((len(self.sensor_ids), x1 - x0), dtype=bool)
        is_min = is_max.copy()
        for k in range(1, half + 1):
            for shift in (-k, k):
                a, b = max(x0, -shift), min(x1, end - shift)
                if a >= b:
                    continue
                v = seg[:, a - lo:b - lo]
                w = seg[:, a + shift - lo:b + shift - lo]
                is_max[:, a - x0:b - x0] &= v > w
                is_min[:, a - x0:b - x0] &= v < w
        # with no neighbor at all both hold, and the difference is 0
        self._marks[:, self.pad + x0:self.pad + x1] = is_max.view(np.int8) - is_min.view(np.int8)
        self.marked = x1

    def _cost_through(self, c1: int) -> None:
        """Fill cost columns costed..c1-1 from the marks within pad of
        each, nearest last so that it wins."""
        c0, pad = self.costed, self.pad
        if c1 <= c0:
            return
        lo = max(0, c0 - pad)
        seg = self._marks[:, lo:c1 + pad]
        for sign, table in self.costs.items():
            hit = seg == sign
            out = table[:, c0:c1]
            for dist in range(pad, -1, -1):
                for shift in {-dist, dist}:
                    a, b = max(c0, lo - shift), min(c1, lo + hit.shape[1] - shift)
                    if a < b:
                        np.copyto(out[:, a - c0:b - c0], float(dist), where=hit[:, a + shift - lo:b + shift - lo])
        self.costed = c1


class PairScorer:
    """Running similarity of one trace stream against a `SensorRow`.

    A trace mark at frame f is folded in, against every sensor at once,
    once the row's marks through f + dif_d are final (or the row is
    flushed), so every folded term is immutable. The mark count n is
    shared; totals[k] sums sensor k's costs in mark order. Once the row is
    flushed and the trace's marks are all in, score()[k] is the sim() of
    the trace's marks against sensor k's.
    """

    def __init__(self, trace_stream: ExtremeStream, row: SensorRow):
        self.t = trace_stream
        self.row = row
        # cost-table column of trace position 0
        self._col0 = trace_stream.start_frame - row.start_frame + row.pad
        self._next = 0
        self.n = 0
        self.totals = np.zeros(len(row.sensor_ids))
        self._scores = np.zeros(len(row.sensor_ids))

    def advance(self) -> None:
        row = self.row
        t_marks = self.t.marks
        ready = min(len(t_marks), row.finalized - self._col0) - 1
        if self._next > ready:
            return
        n = self.n
        totals = self.totals
        for x in range(self._next, ready + 1):
            mark = t_marks[x]
            if mark != 0:
                n += 1
                col = x + self._col0
                if 0 <= col < row.costed:
                    totals += row.costs[mark][:, col]
                else:  # out of reach of every mark of the row
                    totals += row.params.no_match_penalty
        self._next = ready + 1
        if n != self.n:
            self.n = n
            self._scores = n / np.maximum(totals, row.params.zero_denominator_floor)

    def score(self) -> np.ndarray:
        """One score per sensor, in the row's order."""
        return self._scores
