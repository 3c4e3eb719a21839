"""End-to-end streaming pipeline: detections + sensor streams -> pairings.

Per frame: advance the tracer, extend each live trace's ratio stream
(its boxes' height/width, which `ExtremeStream.extend` fills linearly
over the frames a trace went unseen), then score each gated trace
against every sensor through this frame and solve both pairing stages.
Scores move only when a scorer folds a mark, so a frame whose gated
traces are last frame's and whose score rows are the very arrays they
were hands the raw stage last frame's matrix object again, which it has
already solved.
Both kinds of stream sit on one absolute frame grid: a frame index the
log skips gets filled values in every stream, but no result of its own.
Similarity is computed incrementally: each live trace has one record, a
running scorer of its ratio stream against the row of all sensors, which
share one frame grid. Once the trace is gated, the scorer folds in its
extremums as their search windows finalize, so per-frame cost does not
grow with elapsed time. A trace that dies loses its record.

Sensor filtering, frame alignment, extremum marking and the table of
what a trace mark costs against each sensor all happen up front, as
arrays over the whole run: the filter is causal and a scorer folds a mark
only once the frames it depends on are reached, so precomputing them is
observationally identical to streaming them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .acc_features import step_features
from .model import DetectionFrame, SensorStream, validate_detection_log
from .pairing import Assignment, RefinedState, raw_pair, refined_pair, update_rsim
from .similarity import ExtremeStream, PairScorer, SensorRow, SimilarityMatrix, SimilarityParams
from .tracer import Trace, TracerParams, Tracker


@dataclass(frozen=True)
class PipelineParams:
    fps: float = 30.0
    ts_gate: float = 2.0  # seconds a pair must cover before it is scored
    tracer: TracerParams = TracerParams()
    similarity: SimilarityParams = SimilarityParams()

    def __post_init__(self) -> None:
        for name in ("fps", "ts_gate"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class FrameResult:
    frame_index: int
    box_traces: dict[int, str]
    raw: Assignment
    refined: Assignment


@dataclass
class MatchRun:
    """Everything one pipeline pass produced, plus wall-clock throughput of
    the matching loop itself (parsing and I/O excluded)."""

    frames: list[FrameResult]
    traces: dict[str, Trace]
    elapsed_s: float

    @property
    def throughput_fps(self) -> float:
        if not self.frames or self.elapsed_s <= 0:
            return 0.0
        return len(self.frames) / self.elapsed_s


def run_pipeline(
    frames: Sequence[DetectionFrame],
    streams: Iterable[SensorStream],
    params: PipelineParams = PipelineParams(),
) -> MatchRun:
    """Process a detection log against sensor streams, frame by frame.
    A log out of order is rejected with its first `model.order_fault`
    before any work: the frame grid is built from the whole log."""
    frames = list(frames)
    if not frames:
        return MatchRun([], {}, 0.0)

    t0 = time.perf_counter()
    report = validate_detection_log(frames)
    if not report.ok:
        raise ValueError(report.violations[0])
    # the frame grid: one time per frame index from the first to the last,
    # a skipped index interpolated between its neighbours
    first, last = frames[0].frame_index, frames[-1].frame_index
    frame_ts = np.interp(np.arange(first, last + 1, dtype=float),
                         [f.frame_index for f in frames], [f.timestamp for f in frames])
    streams = sorted(streams, key=lambda stream: stream.sensor_id)
    sensor_ids = [stream.sensor_id for stream in streams]
    block = np.array([step_features(stream, frame_ts) for stream in streams]).reshape(len(streams), len(frame_ts))
    row = SensorRow.from_values(sensor_ids, block, params.similarity, first)

    gate = params.ts_gate * params.fps
    tracker = Tracker(params.tracer)
    # live trace id -> its ratio stream's scorer against every sensor
    scorers: dict[str, PairScorer] = {}
    state = RefinedState()
    results: list[FrameResult] = []
    # last frame's matrix and the score rows it was built from
    matrix: SimilarityMatrix | None = None
    matrix_rows: list[np.ndarray] = []

    for frame in frames:
        f = frame.frame_index
        box_traces = tracker.update(frame)

        for ordinal, trace_id in box_traces.items():
            scorer = scorers.get(trace_id)
            if scorer is None:
                scorer = scorers[trace_id] = PairScorer(ExtremeStream(params.similarity.d, f), row)
            scorer.t.extend(f, frame.boxes[ordinal].ratio)

        for tid in tracker.retired:
            del scorers[tid]
            state.retire_trace(tid)

        trace_ids: list[str] = []
        rows: list[np.ndarray] = []
        for tid in sorted(scorers):
            scorer = scorers[tid]
            if len(scorer.t) < gate:
                continue
            scorer.advance(f)
            trace_ids.append(tid)
            rows.append(scorer.score())

        if matrix is None or trace_ids != matrix.trace_ids or any(
                a is not b for a, b in zip(rows, matrix_rows)):
            values = np.array(rows, dtype=np.float64).reshape(len(rows), len(sensor_ids))
            matrix, matrix_rows = SimilarityMatrix(trace_ids, sensor_ids, values), rows
        raw = raw_pair(matrix)
        update_rsim(state, raw)
        refined = refined_pair(state)
        results.append(FrameResult(f, box_traces, raw, refined))

    elapsed = time.perf_counter() - t0
    return MatchRun(results, tracker.traces, elapsed)
