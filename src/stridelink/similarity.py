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
the nearest same-sign mark of a within x-d..x+d, or the penalty 1.5 * d
when none exists there. Plateaus are never marked (strict comparison),
windows truncate at sequence edges rather than pad, and the score is
asymmetric in its arguments by construction: n counts the trace's marks.

The two sides are held differently. A trace gets one ratio per frame, so
its marks come from an `ExtremeStream` fed one value at a time. The
sensors' step features arrive as one block: `SensorRow.from_values` marks
every sensor on one frame grid at once (`mark_extremes`), and the row
tables the cost a trace mark of either sign would pay at each frame of
that grid, so that cost is worked out once per (sensor, frame) rather
than once per trace. `PairScorer` folds each trace mark into its running
totals against the whole row with one vector add, and only once the
frames the caller has reached finalize every sensor mark in the trace
mark's search window; earlier terms are immutable, which keeps per-frame
cost constant. `sim` runs the same engine on a one-sensor row.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np


# The floor of a score's denominator: half the smallest nonzero offset, so that a
# perfectly aligned pair scores finitely and still above any pair a frame off.
_SCORE_FLOOR = 0.5


@dataclass(frozen=True)
class SimilarityParams:
    """The one window d: a position is marked when it beats its ceil(d/2)
    nearest neighbors on each side, and a trace mark looks d frames each
    way for a sensor mark of its sign."""

    d: int = 10

    def __post_init__(self) -> None:
        try:
            operator.index(self.d)  # numpy integers pass, floats do not
        except TypeError:
            raise ValueError(f"d must be an integer, got {self.d!r}") from None
        if self.d < 2:
            raise ValueError("d must be >= 2")

    @property
    def no_match_penalty(self) -> float:
        """What a trace mark with no same-sign mark within d frames costs:
        half again the farthest match, so a miss costs more than any hit."""
        return 1.5 * self.d


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
    """Mark of position x, given values through x + half."""
    v = values[x]
    is_max = True
    is_min = True
    for k in range(max(0, x - half), x + half + 1):
        if k == x:
            continue
        if v <= values[k]:
            is_max = False
        if v >= values[k]:
            is_min = False
        if not (is_max or is_min):
            return 0
    return 1 if is_max else -1


def detect_extremes(seq: Sequence[float], d: int = 10, start_frame: int = 0) -> TernarySequence:
    """Mark strict local extrema against the ceil(d/2) nearest neighbors on
    each side, truncating windows at the edges."""
    if d < 1:
        raise ValueError("d must be >= 1")
    values = np.asarray(seq, dtype=np.float64).reshape(1, -1)
    bad = ~np.isfinite(values[0])
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"non-finite value {float(values[0, k])} at frame {start_frame + k}")
    return TernarySequence(tuple(mark_extremes(values, d)[0].tolist()), start_frame)


def sim(t: TernarySequence, a: TernarySequence, params: SimilarityParams = SimilarityParams()) -> float:
    """Similarity of trace marks t against sensor marks a; zero when t has
    no marks. The row's grid spans both sequences: a's marks sit at their
    frames, and every other frame holds no mark."""
    start = min(t.start_frame, a.start_frame)
    marks = np.zeros((1, max(t.start_frame + len(t), a.start_frame + len(a)) - start), dtype=np.int8)
    marks[0, a.start_frame - start:a.start_frame - start + len(a)] = a.values
    trace = ExtremeStream(params.d, t.start_frame)
    trace.marks = list(t.values)
    scorer = PairScorer(trace, SensorRow(["a"], marks, params, start))
    scorer.advance(math.inf)
    return float(scorer.score()[0])


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Scores of every gated (trace, sensor) pair in one frame:
    values[k, m] scores trace_ids[k] against sensor_ids[m], both id lists
    in increasing order. A matrix never changes once built: it holds its
    values as a read-only view, and its id lists are not to be altered.
    It compares and hashes by identity."""

    trace_ids: Sequence[str]
    sensor_ids: Sequence[str]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = self.values.view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @functools.cached_property
    def scores(self) -> dict[tuple[str, str], float]:
        """The same scores keyed by (trace, sensor)."""
        return dict(zip(itertools.product(self.trace_ids, self.sensor_ids), self.values.ravel().tolist()))


class ExtremeStream:
    """Incrementally classifies a growing sequence from start_frame on,
    finalizing x once values through x + half exist. Marks never change."""

    def __init__(self, d: int, start_frame: int = 0):
        self.half = (d + 1) // 2
        self.start_frame = start_frame
        self._values: list[float] = []
        self.marks: list[int] = []

    def __len__(self) -> int:
        return len(self._values)

    def push(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value} at frame {self.start_frame + len(self._values)}")
        self._values.append(value)
        x = len(self._values) - 1 - self.half
        if x >= 0:
            self.marks.append(_classify(self._values, x, self.half))

    def extend(self, frame_index: int, value: float) -> None:
        """Push `value` at `frame_index`, the first at start_frame and each
        later one ahead, after the linear fill of every frame between,
        which adds no extremum inside."""
        last = self.start_frame + len(self._values) - 1
        gap = frame_index - last
        if not self._values and gap != 1:
            raise ValueError(f"frame {frame_index}: an empty stream starts at frame {self.start_frame}")
        if gap < 1:
            raise ValueError(f"frame {frame_index} is not ahead of frame {last}, the last one pushed")
        if not math.isfinite(value):  # named at its own frame, not the first one filled
            raise ValueError(f"non-finite value {value} at frame {frame_index}")
        if gap > 1:
            prev = self._values[-1]
            step = (value - prev) / gap
            for k in range(1, gap):
                self.push(prev + step * k)
        self.push(value)


def mark_extremes(values: np.ndarray, d: int) -> np.ndarray:
    """Ternary marks of an (S, N) block, row by row, by `detect_extremes`'s
    rule: each position is compared with its neighbors one shift at a
    time, and a neighbor past either end of the row does not count."""
    n = values.shape[1]
    is_max = np.ones(values.shape, dtype=bool)
    is_min = is_max.copy()
    for k in range(1, min((d + 1) // 2, n - 1) + 1):
        left, right = values[:, :n - k], values[:, k:]
        is_max[:, :n - k] &= left > right
        is_min[:, :n - k] &= left < right
        is_max[:, k:] &= right > left
        is_min[:, k:] &= right < left
    # with no neighbor at all both hold, and the difference is 0
    return is_max.view(np.int8) - is_min.view(np.int8)


class SensorRow:
    """What a trace mark costs against the final ternary marks of S
    sensors on one frame grid, given as an (S, N) array in sensor_ids
    order and tabled in one pass.

    costs[+1] and costs[-1] are (S, N) float64 tables on the row's own
    frames: the entry in column p is the distance from frame
    start_frame + p to the nearest same-sign mark within d, or the
    no-match penalty when there is none. The row never changes once built.
    """

    def __init__(self, sensor_ids: Sequence[str], marks, params: SimilarityParams = SimilarityParams(),
                 start_frame: int = 0):
        self.sensor_ids = tuple(sensor_ids)
        repeated = sorted({sid for sid in self.sensor_ids if self.sensor_ids.count(sid) > 1})
        if repeated:
            raise ValueError(f"sensor id {repeated[0]!r} given more than once")
        self.params = params
        self.start_frame = start_frame
        marks = np.asarray(marks, dtype=np.int8)
        self.width = width = marks.shape[1]
        self.costs = {}
        for sign in (1, -1):
            hit = marks == sign
            table = np.full(hit.shape, params.no_match_penalty)
            # nearest last, so that it wins; no two frames of the row lie more than width - 1 apart
            for dist in range(min(params.d, width - 1), -1, -1):
                for shift in {-dist, dist}:
                    a, b = max(0, -shift), min(width, width - shift)
                    np.copyto(table[:, a:b], float(dist), where=hit[:, a + shift:b + shift])
            self.costs[sign] = table

    @classmethod
    def from_values(cls, sensor_ids: Sequence[str], values, params: SimilarityParams = SimilarityParams(),
                    start_frame: int = 0) -> SensorRow:
        """The row of an (S, N) block of step features, rows in sensor_ids
        order, marked with windows truncated at both ends."""
        sensor_ids = tuple(sensor_ids)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != len(sensor_ids):
            raise ValueError(f"block of shape {values.shape} for a row of {len(sensor_ids)} sensors")
        bad = ~np.isfinite(values)
        if bad.any():
            col = int(bad.any(axis=0).argmax())
            k = int(bad[:, col].argmax())
            raise ValueError(f"sensor {sensor_ids[k]!r}: non-finite step feature {values[k, col]} "
                             f"at frame {start_frame + col}")
        return cls(sensor_ids, mark_extremes(values, params.d), params, start_frame)


class PairScorer:
    """Running similarity of one trace stream against a `SensorRow`.

    A trace mark at frame F is folded in, against every sensor at once,
    once the caller has reached frame F + half + d: the row's marks
    through F + d are then final, so every folded term is immutable.
    The mark count n is shared; totals[k] sums sensor k's costs in mark
    order. Advanced through math.inf, score()[k] is the sim() of the
    trace's marks against sensor k's. The trace lies on the row's grid: a
    stream that starts before the row is rejected, and folding a mark
    past the row's last frame raises IndexError and folds nothing.

    score() returns a read-only array that never changes once returned:
    while n stands it is the same object, and a new mark brings a new one.
    """

    def __init__(self, trace_stream: ExtremeStream, row: SensorRow):
        self.t = trace_stream
        self.row = row
        # cost-table column of trace position 0
        self._col0 = trace_stream.start_frame - row.start_frame
        if self._col0 < 0:
            raise ValueError(f"trace stream starts at frame {trace_stream.start_frame}, "
                             f"before its row's first frame {row.start_frame}")
        # the frame from which trace position 0 may fold
        self._first_fold = trace_stream.start_frame + (row.params.d + 1) // 2 + row.params.d
        self._next = 0
        self.n = 0
        self.totals = np.zeros(len(row.sensor_ids))
        self._scores = np.zeros(len(row.sensor_ids))
        self._scores.flags.writeable = False

    def advance(self, through: float) -> None:
        """Fold every trace mark that frames through `through` finalize."""
        row = self.row
        t_marks = self.t.marks
        ready = min(len(t_marks), through - self._first_fold + 1) - 1
        if self._next > ready:
            return
        if ready + self._col0 >= row.width:  # checked before any add
            past = [x for x in range(max(self._next, row.width - self._col0), ready + 1) if t_marks[x]]
            if past:
                raise IndexError(f"trace mark at frame {self.t.start_frame + past[0]} "
                                 f"lies past its row's last frame {row.start_frame + row.width - 1}")
        n = self.n
        totals = self.totals
        for x in range(self._next, ready + 1):
            mark = t_marks[x]
            if mark != 0:
                n += 1
                totals += row.costs[mark][:, x + self._col0]
        self._next = ready + 1
        if n != self.n:
            self.n = n
            scores = n / np.maximum(totals, _SCORE_FLOOR)
            scores.flags.writeable = False
            self._scores = scores

    def score(self) -> np.ndarray:
        """One score per sensor, in the row's order."""
        return self._scores
