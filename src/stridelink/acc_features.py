"""Accelerometer step features: magnitude -> low-pass -> frame-rate alignment.

The phone's orientation is unknown (pocket, hand), so direction is removed
by taking the magnitude of the 3-axis vector. The magnitude is low-pass
filtered by the one design below (ORDER, CUTOFF_HZ), then sampled at the
frame times it is given, so both modalities share one grid. The grid,
and the log rule it rests on, belong to the pipeline, not to this module.
Each stage passes numpy arrays, the frame-aligned result included.

Filtering is causal (single pass): the pipeline targets streaming. The
cost is a near-constant passband delay that makes every extremum of this
modality late by the same amount: at 100 Hz, 1.88-1.91 frames (63 ms)
across 1-4.6 Hz. The similarity search window admits the late mark, but
the score charges its distance. Gravity is kept in the signal; a DC
component creates no extremums so it cannot disturb matching.

The filter is designed at the rate the stream's timestamps give, N - 1
intervals over their span, and assumes uniform sampling at it; jittered
phone timestamps are filtered as if they were uniform. Its design equals
SciPy's `butter` bit for bit. Its sections run in direct form II on a
banded triangular solve, which agrees with SciPy's `sosfilt` (direct
form II transposed) to within a few ulps of the signal, not bitwise.
Neither imports SciPy's signal package, which would cost each session
about a quarter of its memory.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .model import SensorStream


# The one low-pass design, a Butterworth: nearly all accelerometer energy
# tied to human movement sits below 15 Hz. It is realized as second-order
# sections (bilinear transform), since a direct-form order-10 filter is
# numerically fragile.
ORDER = 10
CUTOFF_HZ = 15.0


class NyquistViolation(ValueError):
    """CUTOFF_HZ is not below half the stream's sampling rate."""


class EmptyOverlap(ValueError):
    """Sensor stream and frame times do not overlap."""


def magnitude(stream: SensorStream) -> np.ndarray:
    """Direction-free acceleration: sqrt(ax^2 + ay^2 + az^2) per sample.
    A finite sample whose magnitude overflows is named by its index."""
    ax, ay, az = stream.samples.T
    with np.errstate(over="ignore"):
        m = np.hypot(np.hypot(ax, ay), az)
    if not np.isfinite(m).all():
        k = int(np.isfinite(m).argmin())
        raise ValueError(f"sensor {stream.sensor_id!r}: sample {stream.samples[k].tolist()} "
                         f"at index {k} has a magnitude that overflows")
    return m


def butter_sos(rate: float) -> np.ndarray:
    """Second-order sections of the design at a given rate, rows of b0,
    b1, b2, 1, a1, a2. SciPy's `butter` steps for this case, each float
    operation in its order: pre-warped analog poles, the bilinear
    transform, and sections filled from the last, each taking the
    upper-half pole nearest the unit circle. Both transforms keep each
    conjugate pair exact, so SciPy's averaging of the pairs changes no
    bit and is left out."""
    if not (math.isfinite(rate) and rate > 2 * CUTOFF_HZ):
        raise NyquistViolation(f"CUTOFF_HZ {CUTOFF_HZ} Hz needs a finite rate > {2 * CUTOFF_HZ} Hz, got {rate}")
    warped = float(4.0 * np.tan(np.pi * (CUTOFF_HZ / (rate / 2)) / 2.0))
    m = np.arange(-ORDER + 1, ORDER, 2, dtype=np.float64)
    analog = warped * -np.exp(1j * np.pi * m / (2 * ORDER))
    poles = (4.0 + analog) / (4.0 - analog)
    gain = warped**ORDER * np.real(1.0 / np.prod(4.0 - analog))
    upper = poles[poles.imag > 0]
    sos = np.zeros((ORDER // 2, 6))
    for section in reversed(sos):
        k = np.argmin(np.abs(1 - np.abs(upper)))
        section[:3] = np.poly([-1.0, -1.0])
        section[3:] = np.poly([upper[k], upper[k].conj()])
        upper = np.delete(upper, k)
    sos[0, :3] *= gain
    return sos


def lowpass(values: np.ndarray, rate: float) -> np.ndarray:
    """Causal low-pass over values sampled at `rate` Hz; length kept, zero
    initial state. Per section, w = x / A(z) is a lower-triangular solve
    with unit diagonal and sub-diagonals a1, a2; y = b0 w[n] + b1 w[n-1]
    + b2 w[n-2]."""
    y = np.array(values, dtype=np.float64)
    band = np.ones((3, len(y)))
    for b0, b1, b2, _, a1, a2 in butter_sos(rate):
        band[1], band[2] = a1, a2
        w, info = dtbtrs(band, y, uplo="L", diag="U", overwrite_b=1)
        if info:
            raise RuntimeError(f"dtbtrs failed with info {info}")
        y = b0 * w
        y[1:] += b1 * w[:-1]
        y[2:] += b2 * w[:-2]
    return y


def resample_to_frames(stream: SensorStream, values: np.ndarray, frame_ts: np.ndarray) -> np.ndarray:
    """Linearly interpolate `values`, one per sample of `stream` (the
    filtered magnitude), at each time of `frame_ts`, in µs.

    Interpolation (rather than decimation by dropping) tolerates phone
    timestamp jitter against the camera's frame times. The output, a
    read-only float64 array, has one value per time given, in any order.
    Times outside the sensor's span clamp to its first/last value; times
    that all lie on one side of it are an error.
    """
    t = stream.ts_us.astype(float)
    if len(frame_ts) and (np.max(frame_ts) < t[0] or np.min(frame_ts) > t[-1]):
        raise EmptyOverlap(
            f"sensor {stream.sensor_id!r} spans [{stream.ts_us[0]}, {stream.ts_us[-1]}] us, "
            f"frames span [{np.min(frame_ts)}, {np.max(frame_ts)}] us"
        )
    resampled = np.interp(frame_ts, t, values)
    resampled.setflags(write=False)
    return resampled


def step_features(stream: SensorStream, frame_ts: np.ndarray) -> np.ndarray:
    """Full per-sensor pipeline: magnitude -> lowpass -> frame alignment.
    A rate too low for the filter is named with the sensor."""
    try:
        filtered = lowpass(magnitude(stream), stream.nominal_rate)
    except NyquistViolation as exc:
        raise NyquistViolation(f"sensor {stream.sensor_id!r}: {exc}") from None
    return resample_to_frames(stream, filtered, frame_ts)
