import math

import numpy as np
import pytest

from stridelink.acc_features import (
    EmptyOverlap,
    NyquistViolation,
    lowpass,
    magnitude,
    resample_to_frames,
    step_features,
)
from stridelink.model import SensorStream
from stridelink.simulator import generate

from conftest import two_person_config
from helpers import strict_interior_maxima


def stream_of(triples, rate=100.0):
    return SensorStream("s", [round(k * 1e6 / rate) for k in range(len(triples))], triples, rate)


def mag_seq(values, rate=100.0):
    """A stream sampled at `rate` and `values` standing for its filtered
    magnitudes: the arguments `resample_to_frames` takes before the clock."""
    return stream_of([(0.0, 0.0, 0.0)] * len(values), rate), np.asarray(values, dtype=float)


def lockin_amplitude(values, rate, freq, skip_s=3.0):
    """Amplitude of the `freq` component after the transient has settled,
    measured over an integer number of cycles."""
    x = np.asarray(values[int(skip_s * rate):], dtype=float)
    n = int(math.floor(len(x) * freq / rate) * rate / freq)
    x = x[:n]
    t = np.arange(n) / rate
    c = (x * np.cos(2 * np.pi * freq * t)).mean()
    s = (x * np.sin(2 * np.pi * freq * t)).mean()
    return 2 * math.hypot(c, s)


def test_magnitude_equals_per_sample_hypot_exactly():
    data = generate(two_person_config(duration=20.0))
    for stream in data.streams:
        expected = [float(np.hypot(np.hypot(ax, ay), az)) for ax, ay, az in stream.samples.tolist()]
        got = magnitude(stream)
        assert got.dtype == np.float64 and got.shape == (len(stream.samples),)
        assert got.tolist() == expected


def test_magnitude_single_axis():
    seq = magnitude(stream_of([(0.0, 0.0, 9.81)]))
    assert seq[0] == pytest.approx(9.81, abs=1e-12)


def test_magnitude_3_4_5():
    seq = magnitude(stream_of([(3.0, 4.0, 0.0)]))
    assert seq[0] == pytest.approx(5.0, abs=1e-12)


def test_magnitude_1_2_2():
    seq = magnitude(stream_of([(1.0, 2.0, 2.0)]))
    assert seq[0] == pytest.approx(3.0, abs=1e-12)


def test_magnitude_rejects_empty_stream():
    with pytest.raises(ValueError):
        magnitude(SensorStream("s", (), (), 100.0))


def test_dc_passes_unchanged():
    out = lowpass([9.81] * 1000, 100.0)
    settled = out[300:]
    assert max(abs(v - 9.81) for v in settled) < 1e-4


def test_passband_2hz_untouched():
    rate, dur = 100.0, 12.0
    values = [9.81 + math.sin(2 * math.pi * 2.0 * k / rate) for k in range(int(rate * dur))]
    out = lowpass(values, rate)
    assert lockin_amplitude(out, rate, 2.0) >= 0.999


def test_stopband_25hz_crushed():
    rate, dur = 100.0, 12.0
    values = [9.81 + math.sin(2 * math.pi * 25.0 * k / rate) for k in range(int(rate * dur))]
    out = lowpass(values, rate)
    amp = lockin_amplitude(out, rate, 25.0)
    assert amp <= 10 ** (-40 / 20)  # at least 40 dB down


def test_cutoff_at_nyquist_rejected():
    with pytest.raises(NyquistViolation):
        lowpass([9.81] * 100, 30.0)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -100.0])
def test_rate_that_is_not_finite_and_above_twice_the_cutoff_rejected(rate):
    """The rate is named before SciPy sees it."""
    with pytest.raises(NyquistViolation, match=rf"^CUTOFF_HZ 15.0 Hz needs a finite rate > 30.0 Hz, got {rate}$"):
        lowpass([9.81] * 100, rate)


@pytest.mark.parametrize("rate", [50.0, 100.0, 250.0, 500.0])
def test_impulse_energy_dies_out(rate):
    n = int(rate * 10)
    impulse = [1.0] + [0.0] * (n - 1)
    h = lowpass(impulse, rate)
    total = float(np.sum(h**2))
    tail = float(np.sum(h[int(rate * 5):] ** 2))
    assert tail < 1e-6 * total


def test_constant_offset_shifts_output_by_same_constant():
    rate = 100.0
    base = [9.81 + math.sin(2 * math.pi * 1.3 * k / rate) for k in range(1200)]
    shifted = [v + 5.0 for v in base]
    out_base = lowpass(base, rate)
    out_shift = lowpass(shifted, rate)
    diffs = [b - a for a, b in zip(out_base[300:], out_shift[300:])]
    assert all(abs(d - 5.0) < 1e-4 for d in diffs)


def frame_clock(fps=30.0, n=300, t0_us=0):
    return [(f, t0_us + round(f * 1e6 / fps)) for f in range(n)]


def test_ramp_resamples_to_ramp():
    rate, dur = 100.0, 10.0
    n = int(rate * dur)
    values = [k / (n - 1) for k in range(n)]
    stream, filtered = mag_seq(values, rate)
    clock = frame_clock(n=300)
    out = resample_to_frames(stream, filtered, clock)
    span = stream.ts_us[-1]
    for (f, ts), v in zip(clock, out):
        assert abs(v - ts / span) < 1e-9


def test_one_hz_keeps_ten_peaks_per_ten_seconds():
    rate = 100.0
    # dephased so crests fall off the frame-grid midpoint, where linear
    # interpolation would split one peak into two equal samples
    values = [10.0 + math.sin(2 * math.pi * k / rate + 0.3) for k in range(1000)]
    out = resample_to_frames(*mag_seq(values, rate), frame_clock(n=300))
    assert strict_interior_maxima(out) == 10


def test_disjoint_spans_rejected():
    seq = mag_seq([1.0] * 100, 100.0)
    late_clock = [(f, 10_000_000 + f * 33_333) for f in range(30)]
    with pytest.raises(EmptyOverlap):
        resample_to_frames(*seq, late_clock)


def test_clock_edges_clamp_to_sensor_span():
    seq = mag_seq([2.0, 4.0], 100.0)  # spans 0..10000 us
    clock = [(0, 0), (1, 5000), (2, 50_000)]
    out = resample_to_frames(*seq, clock)
    assert out.tolist() == [2.0, 3.0, 4.0]


def test_skipped_frame_index_takes_interpolated_timestamp():
    seq = mag_seq([float(k) for k in range(100)], 100.0)  # value = ts / 10 ms
    clock = [(5, 0), (6, 20_000), (8, 60_000), (9, 70_000)]
    out = resample_to_frames(*seq, clock)
    assert len(out) == 5
    assert out == pytest.approx((0.0, 2.0, 4.0, 6.0, 7.0), abs=1e-12)


def test_non_increasing_clock_rejected():
    seq = mag_seq([1.0] * 100, 100.0)
    with pytest.raises(ValueError):
        resample_to_frames(*seq, [(0, 0), (2, 10_000), (2, 20_000)])


def test_full_chain_is_deterministic():
    stream = stream_of([(0.0, 1.0, 9.0 + math.sin(k / 3)) for k in range(500)])
    clock = frame_clock(n=120)
    a = step_features(stream, clock)
    b = step_features(stream, clock)
    assert a.tobytes() == b.tobytes()


def test_feature_sequence_covers_every_frame():
    stream = stream_of([(0.0, 0.0, 9.81)] * 400)
    clock = frame_clock(n=100)
    out = step_features(stream, clock)
    assert (out.dtype, out.shape, out.flags.writeable) == (np.float64, (100,), False)
