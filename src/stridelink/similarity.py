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

The streaming engine folds a mark's contribution into the running score
only once its search window can no longer change; earlier terms are
immutable, which keeps per-frame cost constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


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
    scorer = PairScorer(_flushed(t), _flushed(a), params)
    scorer.advance()
    return scorer.score()


@dataclass(frozen=True)
class SimilarityMatrix:
    """Scores of every gated (trace, sensor) pair as of one frame."""

    scores: dict[tuple[str, str], float]
    as_of_frame: int


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

    @property
    def end_frame(self) -> int:
        return self.start_frame + len(self._values) - 1

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

    def finalized_through(self) -> int:
        """Absolute frame of the last finalized mark; start_frame - 1 if none."""
        return self.start_frame + len(self.marks) - 1


class PairScorer:
    """Running similarity of one trace stream against one sensor stream.

    A trace mark at frame f is folded in once the sensor stream is
    finalized through f + dif_d (or flushed), so every folded term is
    immutable. After both streams flush, score() is the sim() of their
    marks.
    """

    def __init__(self, trace_stream: ExtremeStream, sensor_stream: ExtremeStream,
                 params: SimilarityParams = SimilarityParams()):
        self.t = trace_stream
        self.a = sensor_stream
        self.params = params
        self._next = 0
        self.n = 0
        self.total = 0.0

    def advance(self) -> None:
        d = self.params.dif_d
        penalty = self.params.no_match_penalty
        while self._next < len(self.t.marks):
            x = self._next
            frame = self.t.start_frame + x
            if not self.a.flushed and self.a.finalized_through() < frame + d:
                break
            mark = self.t.marks[x]
            if mark != 0:
                self.n += 1
                dist = self._search(frame, mark, d)
                self.total += float(dist) if dist is not None else penalty
            self._next += 1

    def _search(self, frame: int, mark: int, d: int) -> int | None:
        pos = frame - self.a.start_frame
        last = len(self.a.marks) - 1
        for dist in range(d + 1):
            left = pos - dist
            if 0 <= left <= last and self.a.marks[left] == mark:
                return dist
            right = pos + dist
            if dist and 0 <= right <= last and self.a.marks[right] == mark:
                return dist
        return None

    def score(self) -> float:
        if self.n == 0:
            return 0.0
        return self.n / max(self.total, self.params.zero_denominator_floor)


def _flushed(seq: TernarySequence) -> ExtremeStream:
    """A finished stream carrying seq's marks, for scoring with PairScorer."""
    stream = ExtremeStream(2, seq.start_frame)
    stream.marks = list(seq.values)
    stream.flushed = True
    return stream
