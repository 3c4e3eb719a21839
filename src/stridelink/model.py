"""Shared data model: detection logs, sensor streams, identities, ground truth.

Timestamps are integer microseconds since epoch so stream alignment and
tests stay bit-exact. A sensor recording is two read-only numpy arrays.
Each value here is checked at construction, then immutable and safe to
share; `order_fault` holds the one rule that spans frames.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Integer microseconds since epoch.
Timestamp = int
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned rectangle around one detected person, pixel units."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cx) and math.isfinite(self.cy) and 0.0 < self.w < math.inf and 0.0 < self.h < math.inf):
            raise ValueError(f"cx, cy must be finite and w, h finite and positive, got {self.cx, self.cy, self.w, self.h}")
        if not self.h / self.w < math.inf:
            raise ValueError(f"h / w must be finite, got {self.h} / {self.w}")

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
        try:
            frame_index, timestamp = operator.index(frame_index), operator.index(timestamp)
        except TypeError:
            raise ValueError(f"frame_index {frame_index!r}, timestamp {timestamp!r}: both must be integers") from None
        if not -_INT64_MAX - 1 <= frame_index <= _INT64_MAX:  # the frame grid is computed in numpy
            raise ValueError("frame_index beyond int64")
        if timestamp < 0:
            raise ValueError(f"frame_index {frame_index}: negative timestamp")
        if timestamp > _INT64_MAX:
            raise ValueError(f"frame_index {frame_index}: timestamp beyond int64")
        object.__setattr__(self, "frame_index", frame_index)
        object.__setattr__(self, "timestamp", timestamp)
        object.__setattr__(self, "boxes", tuple(boxes))


@dataclass(frozen=True, eq=False)
class SensorStream:
    """Raw accelerometer recording from a single phone: `ts_us`, integers
    stored as int64 of shape (N,), and `samples`, float64 of shape (N, 3),
    finite rows of ax, ay, az in m/s². Both are copied into read-only
    arrays. One timestamp per sample, strictly increasing: the
    interpolation at the frame times has no other meaning. The recording
    defines its own rate: `nominal_rate` is its N - 1 intervals over the
    span of `ts_us`, so it needs at least two samples."""

    sensor_id: str
    ts_us: np.ndarray
    samples: np.ndarray
    nominal_rate: float = field(init=False)

    def __post_init__(self) -> None:
        where = f"sensor {self.sensor_id!r}"
        ts = np.asarray(self.ts_us)
        if ts.dtype.kind not in "iu":
            raise ValueError(f"{where}: ts_us must be integers, got {ts.dtype}")
        ts = np.array(ts, dtype=np.int64)
        xyz = np.array(self.samples, dtype=np.float64)
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


def order_fault(prev: DetectionFrame | None, frame: DetectionFrame) -> str | None:
    """How `frame` breaks the order rule after `prev` (None before a first
    frame), or None: index and timestamp both increase, an index may skip."""
    if prev is not None and frame.frame_index <= prev.frame_index:
        return f"frame_index {frame.frame_index} does not increase past {prev.frame_index}"
    if prev is not None and frame.timestamp <= prev.timestamp:
        return f"frame_index {frame.frame_index}: timestamp {frame.timestamp} does not increase past {prev.timestamp}"
    return None


@dataclass
class ValidationReport:
    """Outcome of a structural check over a detection log."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_detection_log(frames: Sequence[DetectionFrame]) -> ValidationReport:
    """Every `order_fault` of a log in log order, at most one per frame; it
    never raises. `run_pipeline` raises the first."""
    return ValidationReport([fault for fault in itertools.starmap(order_fault, itertools.pairwise(frames)) if fault])
