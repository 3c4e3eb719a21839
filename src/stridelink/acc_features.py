"""Accelerometer step features: magnitude -> low-pass -> frame-rate alignment.

The phone's orientation is unknown (pocket, hand), so direction is removed
by taking the magnitude of the 3-axis vector. Nearly all accelerometer
energy tied to human movement sits below 15 Hz, so the magnitude is
low-pass filtered by a 10th-order Butterworth at 15 Hz, then resampled
onto the camera's frame clock so both modalities share one sample grid.
Each stage passes numpy arrays, the frame-aligned result included.

Filtering is causal (single pass): the pipeline targets streaming, and the
constant passband group delay shifts every extremum of this modality by
the same amount, which the similarity search window absorbs. Gravity is
kept in the signal; a DC component creates no extremums so it cannot
disturb matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.signal import butter, sosfilt

from .model import SensorStream, Timestamp


class NyquistViolation(ValueError):
    """Filter cutoff is not below half the stream's sampling rate."""


class EmptyOverlap(ValueError):
    """Sensor stream and frame clock do not overlap in time."""


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass Butterworth design. Realized as second-order sections
    (bilinear transform); a direct-form order-10 filter is numerically
    fragile."""

    order: int = 10
    cutoff_hz: float = 15.0


def magnitude(stream: SensorStream) -> np.ndarray:
    """Direction-free acceleration: sqrt(ax^2 + ay^2 + az^2) per sample."""
    if not len(stream.samples):
        raise ValueError(f"sensor {stream.sensor_id!r} has no samples")
    ax, ay, az = stream.samples.T
    return np.hypot(np.hypot(ax, ay), az)


def butter_sos(spec: FilterSpec, rate: float) -> np.ndarray:
    """Second-order-section coefficients for a filter design at a given rate."""
    if rate <= 2 * spec.cutoff_hz:
        raise NyquistViolation(
            f"cutoff {spec.cutoff_hz} Hz needs rate > {2 * spec.cutoff_hz} Hz, got {rate}"
        )
    return butter(spec.order, spec.cutoff_hz, btype="low", fs=rate, output="sos")


def lowpass(values: np.ndarray, rate: float, spec: FilterSpec = FilterSpec()) -> np.ndarray:
    """Causal low-pass over values sampled at `rate` Hz; length kept."""
    return sosfilt(butter_sos(spec, rate), np.asarray(values, dtype=float))


def resample_to_frames(
    stream: SensorStream,
    values: np.ndarray,
    frame_clock: Sequence[tuple[int, Timestamp]],
) -> np.ndarray:
    """Linearly interpolate `values`, one per sample of `stream` (the
    filtered magnitude), at each frame timestamp.

    Interpolation (rather than decimation by dropping) tolerates phone
    timestamp jitter against the frame clock. The output, a read-only
    float64 array, has one value per frame index from the first to the
    last; an index the clock skips takes a timestamp interpolated from its
    neighbours. Frame timestamps outside
    the sensor's span clamp to its first/last value; fully disjoint spans
    are an error.
    """
    if not frame_clock:
        raise ValueError("empty frame clock")
    frames = np.asarray([f for f, _ in frame_clock], dtype=float)
    if np.any(np.diff(frames) <= 0):
        raise ValueError("frame clock indices must increase")
    frame_ts = np.interp(
        np.arange(frame_clock[0][0], frame_clock[-1][0] + 1, dtype=float),
        frames,
        np.asarray([t for _, t in frame_clock], dtype=float),
    )
    t = stream.ts_us.astype(float)
    if frame_ts[-1] < t[0] or frame_ts[0] > t[-1]:
        raise EmptyOverlap(
            f"sensor {stream.sensor_id!r} spans [{stream.ts_us[0]}, {stream.ts_us[-1]}] us, "
            f"frames span [{frame_clock[0][1]}, {frame_clock[-1][1]}] us"
        )
    resampled = np.interp(frame_ts, t, values)
    resampled.setflags(write=False)
    return resampled


def step_features(
    stream: SensorStream,
    frame_clock: Sequence[tuple[int, Timestamp]],
    spec: FilterSpec = FilterSpec(),
) -> np.ndarray:
    """Full per-sensor pipeline: magnitude -> lowpass -> frame alignment."""
    return resample_to_frames(stream, lowpass(magnitude(stream), stream.nominal_rate, spec), frame_clock)
