"""End-to-end streaming pipeline: detections + sensor streams -> pairings.

Per frame: advance the tracer, extend each live trace's ratio stream
(its boxes' height/width, filling the frames a trace went unseen by
linear interpolation), release the sensors' step features through this
frame, then score each gated trace against every sensor and solve both
pairing stages.
Both kinds of stream sit on one absolute frame grid: a frame index the
log skips gets filled values in every stream, but no result of its own.
Similarity is computed incrementally: each gated trace keeps one running
scorer against the row of all sensors, which share one frame grid; it
folds in the trace's extremums as their search windows finalize, so
per-frame cost does not grow with elapsed time.

Sensor filtering, frame alignment, extremum marking and the table of
what a trace mark costs against each sensor all happen up front, as
arrays over the whole run: the filter is causal and a mark or cost is
used only once the frames it depends on are released, so precomputing
them is observationally identical to streaming them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .acc_features import FilterSpec, step_features
from .model import DetectionFrame, SensorStream
from .pairing import Assignment, RefinedState, raw_pair, refined_pair, update_rsim
from .similarity import ExtremeStream, PairScorer, SensorRow, SimilarityMatrix, SimilarityParams
from .tracer import Trace, TracerParams, Tracker


@dataclass(frozen=True)
class PipelineParams:
    fps: float = 30.0
    ts_gate: float = 2.0  # seconds a pair must cover before it is scored
    tracer: TracerParams = TracerParams()
    filter_spec: FilterSpec = FilterSpec()
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


def interpolate_gap(prev_ratio: float, next_ratio: float, gap: int) -> list[float]:
    """Ratios for the gap-1 missing frames strictly between two sightings."""
    step = (next_ratio - prev_ratio) / gap
    return [prev_ratio + step * k for k in range(1, gap)]


class _TraceStream:
    """Ratio stream of one live trace: pushes the h/w of each sighting and
    fills the frames between two linearly, which adds no extremum inside."""

    def __init__(self, d: int, start_frame: int):
        self.extremes = ExtremeStream(d, start_frame)
        self.last_frame = start_frame - 1
        self.last_ratio: float | None = None

    def push(self, frame_index: int, ratio: float) -> None:
        gap = frame_index - self.last_frame
        if self.last_ratio is not None and gap > 1:
            for r in interpolate_gap(self.last_ratio, ratio, gap):
                self.extremes.push(r)
        self.extremes.push(ratio)
        self.last_frame = frame_index
        self.last_ratio = ratio


def run_pipeline(
    frames: Sequence[DetectionFrame],
    streams: Iterable[SensorStream],
    params: PipelineParams = PipelineParams(),
) -> MatchRun:
    """Process a detection log against sensor streams, frame by frame."""
    frames = list(frames)
    if not frames:
        return MatchRun([], {}, 0.0)

    t0 = time.perf_counter()
    frame_clock = [(f.frame_index, f.timestamp) for f in frames]
    features = sorted((step_features(stream, frame_clock, params.filter_spec) for stream in streams),
                      key=lambda feat: feat.sensor_id)
    sensor_ids = [feat.sensor_id for feat in features]
    # every sensor's features span the clock: one value per frame index
    row = SensorRow(sensor_ids, params.similarity, frames[0].frame_index)
    if features:
        row.extend(np.stack([feat.values for feat in features]))

    gate = params.ts_gate * params.fps
    tracker = Tracker(params.tracer)
    trace_streams: dict[str, _TraceStream] = {}
    # trace id -> its scorer against every sensor
    scorers: dict[str, PairScorer] = {}
    state = RefinedState()
    results: list[FrameResult] = []

    for frame in frames:
        f = frame.frame_index
        box_traces = tracker.update(frame)

        for ordinal, trace_id in box_traces.items():
            ts = trace_streams.get(trace_id)
            if ts is None:
                ts = trace_streams[trace_id] = _TraceStream(params.similarity.d, f)
            ts.push(f, frame.boxes[ordinal].ratio)

        dead = [tid for tid in trace_streams if not tracker.traces[tid].active]
        for tid in dead:
            del trace_streams[tid]
            state.retire_trace(tid)
            scorers.pop(tid, None)

        pushed = f - row.start_frame + 1
        row.release(pushed)

        trace_ids: list[str] = []
        rows: list[np.ndarray] = []
        if sensor_ids and pushed >= gate:
            for tid in sorted(trace_streams):
                tstream = trace_streams[tid]
                if len(tstream.extremes) < gate:
                    continue
                scorer = scorers.get(tid)
                if scorer is None:
                    scorer = scorers[tid] = PairScorer(tstream.extremes, row)
                scorer.advance()
                trace_ids.append(tid)
                rows.append(scorer.score())

        values = np.array(rows, dtype=np.float64).reshape(len(rows), len(sensor_ids))
        raw = raw_pair(SimilarityMatrix(trace_ids, sensor_ids, values))
        update_rsim(state, raw)
        refined = refined_pair(state)
        results.append(FrameResult(f, box_traces, raw, refined))

    elapsed = time.perf_counter() - t0
    return MatchRun(results, tracker.traces, elapsed)
