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

The streaming engine, `PairScorer`, scores one trace against a row of
sensor streams that share one frame grid. It folds each trace mark into
every sensor's running total at once, and only once the mark's search
window can no longer change; earlier terms are immutable, which keeps
per-frame cost constant. `sim` runs the same engine on a one-sensor row.
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
    scorer = PairScorer(_flushed(t), [_flushed(a)], params)
    scorer.advance()
    return scorer.score()[0]


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Scores of every gated (trace, sensor) pair as of one frame:
    values[k, m] scores trace_ids[k] against sensor_ids[m], both id lists
    in increasing order."""

    trace_ids: Sequence[str]
    sensor_ids: Sequence[str]
    values: np.ndarray
    as_of_frame: int

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


class PairScorer:
    """Running similarity of one trace stream against a row of sensor
    streams that share one frame grid (one start_frame, pushed in lockstep).

    A trace mark at frame f is folded in, against every sensor at once,
    once each sensor stream is finalized through f + dif_d (or flushed), so
    every folded term is immutable. The mark count n is shared; each sensor
    keeps its own offset total, summed in mark order. After all streams
    flush, score()[k] is the sim() of the trace's marks against sensor k's.
    """

    def __init__(self, trace_stream: ExtremeStream, sensor_streams: Sequence[ExtremeStream],
                 params: SimilarityParams = SimilarityParams()):
        self.t = trace_stream
        self.sensors = tuple(sensor_streams)
        starts = {a.start_frame for a in self.sensors}
        if len(starts) != 1:
            raise ValueError(f"sensor streams must share one start frame, got {sorted(starts)}")
        (sensor_start,) = starts
        self.params = params
        # trace position x sits at position x + _offset of every sensor
        self._offset = trace_stream.start_frame - sensor_start
        self._next = 0
        self.n = 0
        self.totals = [0.0] * len(self.sensors)
        self._scores = (0.0,) * len(self.sensors)

    def advance(self) -> None:
        # a flushed stream is final everywhere; only open ones hold folds back
        finalized = min((len(a.marks) for a in self.sensors if not a.flushed), default=math.inf)
        d = self.params.dif_d
        t_marks = self.t.marks
        ready = min(len(t_marks), finalized - self._offset - d) - 1
        if self._next > ready:
            return
        penalty = self.params.no_match_penalty
        n = self.n
        totals = self.totals
        for x in range(self._next, ready + 1):
            mark = t_marks[x]
            if mark != 0:
                n += 1
                pos = x + self._offset
                for k, a in enumerate(self.sensors):
                    dist = _nearest(a.marks, pos, mark, d)
                    totals[k] += float(dist) if dist is not None else penalty
        self._next = ready + 1
        if n != self.n:
            self.n = n
            floor = self.params.zero_denominator_floor
            self._scores = tuple(n / max(total, floor) for total in totals)

    def score(self) -> tuple[float, ...]:
        """One score per sensor stream, in the order given."""
        return self._scores


def _nearest(marks: list[int], pos: int, mark: int, d: int) -> int | None:
    """Distance from pos to the nearest `mark` in marks within d, if any."""
    last = len(marks) - 1
    for dist in range(d + 1):
        left = pos - dist
        if 0 <= left <= last and marks[left] == mark:
            return dist
        right = pos + dist
        if dist and 0 <= right <= last and marks[right] == mark:
            return dist
    return None


def _flushed(seq: TernarySequence) -> ExtremeStream:
    """A finished stream carrying seq's marks, for scoring with PairScorer."""
    stream = ExtremeStream(2, seq.start_frame)
    stream.marks = list(seq.values)
    stream.flushed = True
    return stream
