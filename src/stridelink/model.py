"""Shared data model: detection logs, sensor streams, identities, ground truth.

Timestamps are integer microseconds since epoch so stream alignment and
tests stay bit-exact. A sensor recording is two read-only numpy arrays.
All values here are immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Integer microseconds since epoch.
Timestamp = int


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned rectangle around one detected person, pixel units."""

    cx: float
    cy: float
    w: float
    h: float

    @property
    def ratio(self) -> float:
        return self.h / self.w


@dataclass(frozen=True)
class DetectionFrame:
    """One frame of a human-detection log: every box the detector produced."""

    frame_index: int
    timestamp: Timestamp
    boxes: tuple[BoundingBox, ...]

    def __init__(self, frame_index: int, timestamp: Timestamp, boxes: Sequence[BoundingBox] = ()):
        object.__setattr__(self, "frame_index", frame_index)
        object.__setattr__(self, "timestamp", timestamp)
        object.__setattr__(self, "boxes", tuple(boxes))


@dataclass(frozen=True, eq=False)
class SensorStream:
    """Raw accelerometer recording from a single phone: `ts_us`, int64 of
    shape (N,), and `samples`, float64 of shape (N, 3), finite rows of ax,
    ay, az in m/s². Both are copied into read-only arrays. One timestamp
    per sample, strictly increasing: the interpolation at the frame
    times has no other meaning. The recording defines its own rate:
    `nominal_rate` is its N - 1 intervals over the span of `ts_us`, so it
    needs at least two samples."""

    sensor_id: str
    ts_us: np.ndarray
    samples: np.ndarray
    nominal_rate: float = field(init=False)

    def __post_init__(self) -> None:
        ts = np.array(self.ts_us, dtype=np.int64)
        xyz = np.array(self.samples, dtype=np.float64)
        where = f"sensor {self.sensor_id!r}"
        if ts.ndim != 1:
            raise ValueError(f"{where}: ts_us must be 1-D, got shape {ts.shape}")
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValueError(f"{where}: samples must have shape (N, 3), got {xyz.shape}")
        if len(ts) != len(xyz):
            missing = "sample" if len(ts) > len(xyz) else "timestamp"
            raise ValueError(f"{where}: {len(ts)} timestamps for {len(xyz)} samples; "
                             f"index {min(len(ts), len(xyz))} has no {missing}")
        if len(ts) < 2:
            raise ValueError(f"{where}: need at least 2 samples to infer a rate, got {len(ts)}")
        backwards = np.flatnonzero(np.diff(ts) <= 0)
        if len(backwards):
            k = int(backwards[0]) + 1
            raise ValueError(f"{where}: timestamp {ts[k]} at index {k} does not increase")
        if not np.isfinite(xyz).all():
            k = int(np.isfinite(xyz).all(axis=1).argmin())
            raise ValueError(f"{where}: sample {xyz[k].tolist()} at index {k} is not finite")
        ts.flags.writeable = xyz.flags.writeable = False
        object.__setattr__(self, "ts_us", ts)
        object.__setattr__(self, "samples", xyz)
        object.__setattr__(self, "nominal_rate", (len(ts) - 1) / (int(ts[-1] - ts[0]) / 1e6))


@dataclass(frozen=True)
class GroundTruth:
    """Who each trace and each sensor really belongs to.

    One phone per person: two sensors may not claim the same person.
    """

    trace_to_person: dict[str, str]
    sensor_to_person: dict[str, str]

    def __post_init__(self) -> None:
        seen: dict[str, str] = {}
        for sensor_id, person_id in self.sensor_to_person.items():
            if person_id in seen:
                raise ValueError(
                    f"person {person_id!r} carried by both {seen[person_id]!r} and {sensor_id!r}"
                )
            seen[person_id] = sensor_id


@dataclass
class ValidationReport:
    """Outcome of a structural check over a detection log."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_detection_log(frames: Sequence[DetectionFrame]) -> ValidationReport:
    """Check a detection log against its structural invariants.

    Pure report-style check: never raises, same input gives the same report.
    Flags non-monotone frame indices, negative or non-monotone timestamps,
    and boxes whose cx, cy, w or h is not finite or whose w or h is not
    positive (named by frame_index and box ordinal). Skipped frame
    indices are allowed. This is the one rule of a log: `run_pipeline`
    raises its first violation.
    """
    report = ValidationReport()
    prev_index: int | None = None
    prev_ts: Timestamp | None = None
    for pos, frame in enumerate(frames):
        if prev_index is not None and frame.frame_index <= prev_index:
            report.violations.append(
                f"frame_index {frame.frame_index} at position {pos} does not increase past {prev_index}"
            )
        if frame.timestamp < 0:
            report.violations.append(f"frame_index {frame.frame_index}: negative timestamp")
        if prev_ts is not None and frame.timestamp <= prev_ts:
            report.violations.append(
                f"frame_index {frame.frame_index}: timestamp {frame.timestamp} does not increase past {prev_ts}"
            )
        for ordinal, box in enumerate(frame.boxes):
            if not (math.isfinite(box.cx) and math.isfinite(box.cy) and math.isfinite(box.w) and math.isfinite(box.h)):
                report.violations.append(f"frame_index {frame.frame_index} box {ordinal}: cx, cy, w, h must be finite")
            if box.w <= 0:
                report.violations.append(f"frame_index {frame.frame_index} box {ordinal}: w <= 0")
            if box.h <= 0:
                report.violations.append(f"frame_index {frame.frame_index} box {ordinal}: h <= 0")
        prev_index = frame.frame_index
        prev_ts = frame.timestamp
    return report
