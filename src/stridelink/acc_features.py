"""Accelerometer step features: magnitude -> low-pass -> frame-rate alignment.

The phone's orientation is unknown (pocket, hand), so direction is removed
by taking the magnitude of the 3-axis vector. The magnitude is low-pass
filtered by the one design below (ORDER, CUTOFF_HZ), then resampled
onto the camera's frame clock so both modalities share one sample grid.
Each stage passes numpy arrays, the frame-aligned result included.

Filtering is causal (single pass): the pipeline targets streaming. The
cost is a near-constant passband delay that makes every extremum of this
modality late by the same amount: at 100 Hz, 1.88-1.91 frames (63 ms)
across 1-4.6 Hz. The similarity search window admits the late mark, but
the score charges its distance. Gravity is kept in the signal; a DC
component creates no extremums so it cannot disturb matching.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.signal import butter, sosfilt

from .model import SensorStream, Timestamp


# The one low-pass design, a Butterworth: nearly all accelerometer energy
# tied to human movement sits below 15 Hz. It is realized as second-order
# sections (bilinear transform), since a direct-form order-10 filter is
# numerically fragile.
ORDER = 10
CUTOFF_HZ = 15.0


class NyquistViolation(ValueError):
    """CUTOFF_HZ is not below half the stream's sampling rate."""


class EmptyOverlap(ValueError):
    """Sensor stream and frame clock do not overlap in time."""


def magnitude(stream: SensorStream) -> np.ndarray:
    """Direction-free acceleration: sqrt(ax^2 + ay^2 + az^2) per sample."""
    if not len(stream.samples):
        raise ValueError(f"sensor {stream.sensor_id!r} has no samples")
    ax, ay, az = stream.samples.T
    return np.hypot(np.hypot(ax, ay), az)


def butter_sos(rate: float) -> np.ndarray:
    """Second-order-section coefficients of the design at a given rate."""
    if not (math.isfinite(rate) and rate > 2 * CUTOFF_HZ):
        raise NyquistViolation(f"CUTOFF_HZ {CUTOFF_HZ} Hz needs a finite rate > {2 * CUTOFF_HZ} Hz, got {rate}")
    return butter(ORDER, CUTOFF_HZ, btype="low", fs=rate, output="sos")


def lowpass(values: np.ndarray, rate: float) -> np.ndarray:
    """Causal low-pass over values sampled at `rate` Hz; length kept."""
    return sosfilt(butter_sos(rate), np.asarray(values, dtype=float))


def resample_to_frames(stream: SensorStream, values: np.ndarray,
                       frame_clock: Sequence[tuple[int, Timestamp]]) -> np.ndarray:
    """Linearly interpolate `values`, one per sample of `stream` (the
    filtered magnitude), at each frame timestamp.

    Interpolation (rather than decimation by dropping) tolerates phone
    timestamp jitter against the frame clock. The output, a read-only
    float64 array, has one value per frame index from the first to the
    last; an index the clock skips takes a timestamp interpolated from its
    neighbours. Frame timestamps outside the sensor's span clamp to its
    first/last value; fully disjoint spans are an error.
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


def step_features(stream: SensorStream, frame_clock: Sequence[tuple[int, Timestamp]]) -> np.ndarray:
    """Full per-sensor pipeline: magnitude -> lowpass -> frame alignment."""
    return resample_to_frames(stream, lowpass(magnitude(stream), stream.nominal_rate), frame_clock)
