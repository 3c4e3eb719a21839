"""Synthetic walking scenarios with known ground truth.

Generates matched detection logs and accelerometer streams for a set of
walkers, each with a personal stride frequency and phase. Signal model per
person (one stride = two steps, so steps land at 2x the stride frequency):

    ratio(t) = base_ratio + ratio_amplitude * cos(2*pi*(2*f)*t + 2*phase)
    acc(t)   = G + acc_peak * |cos(2*pi*f*t + phase)| + carry noise

Both expressions peak at every step and bottom out between steps, so a
person's two modalities share extremum timing while persons with different
frequency or phase drift apart. The |cos| form mirrors how impact
magnitude spikes at each footfall regardless of which leg lands; the
ratio's full cosine at doubled frequency mirrors the silhouette widening
at every step. Noise is additive Gaussian; detections drop out
independently per frame.

All randomness flows from one 64-bit seed through a xorshift64* generator,
fully specified below, so identical configurations reproduce identical
bytes on any platform. Each person gets independent substreams for video
and sensor noise; adding a person never perturbs the others' draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

from .model import BoundingBox, DetectionFrame, SensorStream

G = 9.81

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class ConfigError(ValueError):
    """A scenario configuration that cannot be generated."""


def _mix64(z: int) -> int:
    """splitmix64 finalizer; bijective on 64-bit ints."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Xorshift64Star:
    """xorshift64* generator.

    State is one nonzero 64-bit integer x; each draw applies (mod 2^64)

        x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27
        output = x * 2685821657736338717

    uniform() keeps the top 53 bits of the output, giving a double in
    [0, 1). gauss() is the Marsaglia polar method, one accepted pair per
    draw, second coordinate discarded so the draw count per event is
    state-independent... except for rejections, which are part of the
    documented stream. Seeding runs (seed, stream) through splitmix64 so
    nearby seeds and streams decorrelate; a zero state is remapped to the
    golden-ratio constant.
    """

    def __init__(self, seed: int, stream: int = 0):
        self._x = _mix64((seed & _MASK64) ^ _mix64((stream * _GOLDEN) & _MASK64)) or _GOLDEN

    def next_u64(self) -> int:
        x = self._x
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._x = x
        return (x * 2685821657736338717) & _MASK64

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def gauss(self, sigma: float = 1.0) -> float:
        while True:
            u = 2.0 * self.uniform() - 1.0
            v = 2.0 * self.uniform() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                return sigma * u * math.sqrt(-2.0 * math.log(s) / s)


@dataclass(frozen=True)
class PersonSpec:
    """One walker. stride_frequency is strides per second (a stride is two
    steps); phase in radians positions the gait cycle at t=0. The path is a
    waypoint polyline in pixels, traversed once at constant speed over the
    scenario duration."""

    person_id: str
    stride_frequency: float
    phase: float = 0.0
    path: tuple[tuple[float, float], ...] = ((100.0, 240.0), (540.0, 240.0))
    base_ratio: float = 2.0
    ratio_amplitude: float = 0.4
    acc_peak: float = 3.0
    acc_phase_offset: float = 0.0  # models filter group delay / clock skew
    carry_noise: float = 0.3
    box_height: float = 180.0
    sensor_id: str | None = None

    @property
    def sensor(self) -> str:
        return self.sensor_id if self.sensor_id is not None else f"{self.person_id}-acc"


@dataclass(frozen=True)
class ScenarioConfig:
    persons: tuple[PersonSpec, ...]
    duration: float = 60.0
    fps: float = 30.0
    acc_rate: float = 100.0
    box_noise: float = 2.0
    dropout_prob: float = 0.02
    seed: int = 1


@dataclass(frozen=True)
class ScenarioData:
    """Generated scenario plus its ground truth. box_owners[frame][k] names
    the person behind the k-th box of that frame; trace-level truth can only
    be derived after tracing, from these per-box owners."""

    frames: tuple[DetectionFrame, ...]
    streams: tuple[SensorStream, ...]
    sensor_owners: dict[str, str]
    box_owners: dict[int, tuple[str, ...]]


def _require_finite(obj: ScenarioConfig | PersonSpec, where: str = "") -> None:
    """Reject the first float field of obj that is NaN or infinite."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "float" and not math.isfinite(value):
            raise ConfigError(f"{where}{f.name} must be finite, got {value}")


def _validate(config: ScenarioConfig) -> None:
    if not config.persons:
        raise ConfigError("at least one person required")
    _require_finite(config)
    if config.duration <= 0:
        raise ConfigError("duration must be positive")
    if config.fps <= 0:
        raise ConfigError("fps must be positive")
    if config.acc_rate < 30:
        raise ConfigError("acc_rate must be >= 30 Hz")
    if not 0.0 <= config.dropout_prob < 1.0:
        raise ConfigError("dropout_prob must be in [0, 1)")
    if config.box_noise < 0:
        raise ConfigError("box_noise must be >= 0")
    seen_p: set[str] = set()
    seen_s: set[str] = set()
    for p in config.persons:
        _require_finite(p, f"{p.person_id}: ")
        for k, point in enumerate(p.path):
            if not all(math.isfinite(c) for c in point):
                raise ConfigError(f"{p.person_id}: path point {k} must be finite, got {point}")
        if p.person_id in seen_p:
            raise ConfigError(f"duplicate person_id {p.person_id!r}")
        if p.sensor in seen_s:
            raise ConfigError(f"duplicate sensor id {p.sensor!r}")
        seen_p.add(p.person_id)
        seen_s.add(p.sensor)
        if not 0.3 < p.stride_frequency < 3.0:
            raise ConfigError(f"{p.person_id}: stride_frequency outside (0.3, 3.0) Hz")
        if p.base_ratio <= 0 or p.ratio_amplitude < 0 or p.ratio_amplitude >= p.base_ratio:
            raise ConfigError(f"{p.person_id}: need 0 <= ratio_amplitude < base_ratio")
        if p.acc_peak < 0 or p.carry_noise < 0:
            raise ConfigError(f"{p.person_id}: acc_peak and carry_noise must be >= 0")
        if p.box_height <= 0:
            raise ConfigError(f"{p.person_id}: box_height must be positive")
        if len(p.path) < 1:
            raise ConfigError(f"{p.person_id}: path needs at least one waypoint")


class _Path:
    """Constant-speed traversal of a waypoint polyline over `duration`."""

    def __init__(self, points: Sequence[tuple[float, float]], duration: float):
        self.points = [(float(x), float(y)) for x, y in points]
        self.cum = [0.0]
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            self.cum.append(self.cum[-1] + math.hypot(x1 - x0, y1 - y0))
        self.speed = self.cum[-1] / duration if duration > 0 else 0.0

    def at(self, t: float) -> tuple[float, float]:
        target = self.speed * t
        if target >= self.cum[-1] or len(self.points) == 1:
            return self.points[-1]
        # find the segment containing target arc length
        k = 0
        while self.cum[k + 1] < target:
            k += 1
        seg = self.cum[k + 1] - self.cum[k]
        frac = 0.0 if seg == 0 else (target - self.cum[k]) / seg
        (x0, y0), (x1, y1) = self.points[k], self.points[k + 1]
        return (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))


def ratio_signal(p: PersonSpec, t: float) -> float:
    """Noise-free height/width ratio, one cycle per step."""
    return p.base_ratio + p.ratio_amplitude * math.cos(
        2.0 * math.pi * (2.0 * p.stride_frequency) * t + 2.0 * p.phase
    )


def acc_signal(p: PersonSpec, t: float) -> float:
    """Noise-free acceleration magnitude, one peak per step: |cos| at the
    stride frequency doubles up, spiking at each footfall."""
    return G + p.acc_peak * abs(
        math.cos(2.0 * math.pi * p.stride_frequency * t + p.phase + p.acc_phase_offset)
    )


def generate(config: ScenarioConfig) -> ScenarioData:
    """Deterministically generate a scenario from its config and seed."""
    _validate(config)
    n_frames = round(config.duration * config.fps)
    n_samples = round(config.duration * config.acc_rate)

    paths = {p.person_id: _Path(p.path, config.duration) for p in config.persons}
    frames: list[DetectionFrame] = []
    box_owners: dict[int, tuple[str, ...]] = {}
    video_rngs = {
        p.person_id: Xorshift64Star(config.seed, stream=2 * k)
        for k, p in enumerate(config.persons)
    }
    for f in range(n_frames):
        t = f / config.fps
        boxes: list[BoundingBox] = []
        owners: list[str] = []
        for p in config.persons:
            rng = video_rngs[p.person_id]
            if rng.uniform() < config.dropout_prob:
                continue
            r = ratio_signal(p, t)
            h = p.box_height + rng.gauss(config.box_noise)
            w = p.box_height / r + rng.gauss(config.box_noise)
            cx, cy = paths[p.person_id].at(t)
            cx += rng.gauss(config.box_noise)
            cy += rng.gauss(config.box_noise)
            boxes.append(BoundingBox(cx=cx, cy=cy, w=max(w, 1.0), h=max(h, 1.0)))
            owners.append(p.person_id)
        frames.append(DetectionFrame(f, round(t * 1e6), boxes))
        box_owners[f] = tuple(owners)

    streams: list[SensorStream] = []
    sensor_owners: dict[str, str] = {}
    for k, p in enumerate(config.persons):
        rng = Xorshift64Star(config.seed, stream=2 * k + 1)
        ts_us = [round(i / config.acc_rate * 1e6) for i in range(n_samples)]
        samples = []
        for i in range(n_samples):
            m = acc_signal(p, i / config.acc_rate) + rng.gauss(p.carry_noise)
            # phone orientation is arbitrary; park the whole magnitude on
            # one axis, the pipeline only ever sees the norm
            samples.append((0.0, 0.0, max(m, 0.0)))
        streams.append(SensorStream(p.sensor, ts_us, samples))
        sensor_owners[p.sensor] = p.person_id

    return ScenarioData(tuple(frames), tuple(streams), sensor_owners, box_owners)
