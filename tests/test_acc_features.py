import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.signal import butter, sosfilt

from stridelink.acc_features import (
    CUTOFF_HZ,
    ORDER,
    EmptyOverlap,
    NyquistViolation,
    butter_sos,
    lowpass,
    magnitude,
    resample_to_frames,
    step_features,
)
from stridelink.fileio import read_sensor_csv, write_sensor_csv
from stridelink.model import SensorStream
from stridelink.simulator import generate

from conftest import two_person_config
from helpers import strict_interior_maxima


def stream_of(triples, rate=100.0):
    return SensorStream("s", [round(k * 1e6 / rate) for k in range(len(triples))], triples)


def mag_seq(values, rate=100.0):
    """A stream sampled at `rate` and `values` standing for its filtered
    magnitudes: the arguments `resample_to_frames` takes before the times."""
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
    seq = magnitude(stream_of([(0.0, 0.0, 9.81), (9.81, 0.0, 0.0)]))
    assert seq == pytest.approx([9.81, 9.81], abs=1e-12)


def test_magnitude_3_4_5():
    seq = magnitude(stream_of([(3.0, 4.0, 0.0), (0.0, 3.0, 4.0)]))
    assert seq == pytest.approx([5.0, 5.0], abs=1e-12)


def test_magnitude_1_2_2():
    seq = magnitude(stream_of([(1.0, 2.0, 2.0), (2.0, 1.0, 2.0)]))
    assert seq == pytest.approx([3.0, 3.0], abs=1e-12)


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


def test_rate_too_low_for_the_filter_names_the_sensor():
    """With many phones the message must say which one is at fault."""
    stream = SensorStream("phone-3", [k * 40_000 for k in range(100)], [(0.0, 0.0, 9.81)] * 100)
    with pytest.raises(NyquistViolation,
                       match=r"^sensor 'phone-3': CUTOFF_HZ 15.0 Hz needs a finite rate > 30.0 Hz, got 25.0$"):
        step_features(stream, np.array([0.0, 1e6]))


def inferred_rates(tmp_path):
    """The rates `read_sensor_csv` infers from simulated streams written
    to disk, as `match` reads them."""
    rates = []
    for acc_rate in (50.0, 60.0, 100.0, 333.0):
        path = str(tmp_path / f"{acc_rate}.csv")
        write_sensor_csv(path, generate(two_person_config(duration=7.0, acc_rate=acc_rate)).streams[0])
        rates.append(read_sensor_csv(path).nominal_rate)
    return rates


def test_design_equals_scipy_butter_bit_for_bit(tmp_path):
    rates = [100.0, 30.000001, 31.0, 1000.0] + np.geomspace(30.5, 1000.0, 301).tolist() + inferred_rates(tmp_path)
    for rate in rates:
        expected = butter(ORDER, CUTOFF_HZ, btype="low", fs=rate, output="sos")
        assert np.array_equal(butter_sos(rate), expected), rate


@pytest.mark.parametrize("rate", [31.0, 50.0, 100.0, 400.0, 1000.0])
def test_cascade_agrees_with_scipy_sosfilt(rate):
    """Direct form II on a triangular solve against SciPy's transposed
    form: equal up to rounding, not bitwise."""
    rng = np.random.default_rng(int(rate))
    for n in (0, 1, 2, 3, 10, 3_000, 60_000):
        x = 9.81 + rng.normal(size=n)
        out = lowpass(x, rate)
        assert (out.dtype, out.shape) == (np.float64, (n,))
        if n:
            assert np.max(np.abs(out - sosfilt(butter_sos(rate), x))) <= 1e-12 * np.max(np.abs(x)), n


def test_the_pipeline_never_imports_scipy_signal():
    """`scipy.signal` loads some 200 modules beyond `scipy.optimize`'s,
    a quarter of a session's memory, for two calls the package makes
    itself."""
    root = pathlib.Path(__file__).resolve().parent.parent
    code = textwrap.dedent("""
        import sys
        import stridelink, stridelink.cli
        from stridelink.pipeline import run_pipeline
        from stridelink.simulator import PersonSpec, ScenarioConfig, generate
        persons = tuple(PersonSpec(f"p{k}", 0.9 + 0.3 * k, path=((50.0, 100.0 + 200 * k), (590.0, 100.0 + 200 * k)))
                        for k in range(2))
        data = generate(ScenarioConfig(persons=persons, duration=5.0))
        assert len(run_pipeline(data.frames, data.streams).frames) == 150
        assert "scipy.signal" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy.signal"))
    """)
    path = os.pathsep.join([str(root / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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


def frame_times(fps=30.0, n=300, t0_us=0):
    return np.array([t0_us + round(f * 1e6 / fps) for f in range(n)], dtype=float)


def test_ramp_resamples_to_ramp():
    rate, dur = 100.0, 10.0
    n = int(rate * dur)
    values = [k / (n - 1) for k in range(n)]
    stream, filtered = mag_seq(values, rate)
    times = frame_times(n=300)
    out = resample_to_frames(stream, filtered, times)
    span = stream.ts_us[-1]
    for ts, v in zip(times, out):
        assert abs(v - ts / span) < 1e-9


def test_one_hz_keeps_ten_peaks_per_ten_seconds():
    rate = 100.0
    # dephased so crests fall off the frame-grid midpoint, where linear
    # interpolation would split one peak into two equal samples
    values = [10.0 + math.sin(2 * math.pi * k / rate + 0.3) for k in range(1000)]
    out = resample_to_frames(*mag_seq(values, rate), frame_times(n=300))
    assert strict_interior_maxima(out) == 10


def test_disjoint_spans_rejected():
    """Times wholly after the sensor's span, in whatever order, share no
    moment with it."""
    seq = mag_seq([1.0] * 100, 100.0)  # spans 0..990000 us
    late = frame_times(n=30, t0_us=10_000_000)
    for times in (late, late[::-1]):
        with pytest.raises(EmptyOverlap, match=r"^sensor 's' spans \[0, 990000\] us, "
                                               r"frames span \[10000000.0, 10966667.0\] us$"):
            resample_to_frames(*seq, times)


def test_clock_edges_clamp_to_sensor_span():
    seq = mag_seq([2.0, 4.0], 100.0)  # spans 0..10000 us
    out = resample_to_frames(*seq, np.array([0.0, 5000.0, 50_000.0]))
    assert out.tolist() == [2.0, 3.0, 4.0]


def test_times_in_any_order_each_take_their_own_value():
    """No order rule lives here: each time is interpolated on its own,
    even before the sensor's span as long as some time overlaps it."""
    seq = mag_seq([float(k) for k in range(100)], 100.0)  # value = ts / 10 ms
    out = resample_to_frames(*seq, np.array([60_000.0, 20_000.0, 20_000.0, -5_000.0, 45_000.0]))
    assert out.tolist() == [6.0, 2.0, 2.0, 0.0, 4.5]


def test_no_times_give_no_values():
    out = step_features(stream_of([(0.0, 0.0, 9.81)] * 400), np.empty(0))
    assert (out.dtype, out.shape, out.flags.writeable) == (np.float64, (0,), False)


def test_sample_whose_magnitude_overflows_named_by_index():
    """Each axis is finite, so the stream accepts the sample; its norm is
    not, and no numpy warning escapes before it is named."""
    stream = stream_of([(0.0, 0.0, 9.81), (1.5e308, 1.5e308, 0.0), (0.0, 0.0, 9.81), (1.7e308, 0.0, 1.7e308)])
    with pytest.raises(ValueError, match=r"^sensor 's': sample \[1.5e\+308, 1.5e\+308, 0.0\] "
                                         r"at index 1 has a magnitude that overflows$"):
        magnitude(stream)


@pytest.mark.parametrize("acc_rate", [60.0, 333.0])
def test_stream_and_its_csv_copy_share_rate_and_features(tmp_path, acc_rate):
    """The rate comes from the timestamps alone, so a simulated stream and
    the one read back from its CSV filter alike, bit for bit."""
    stream = generate(two_person_config(duration=7.0, acc_rate=acc_rate)).streams[0]
    path = str(tmp_path / f"{stream.sensor_id}.csv")
    write_sensor_csv(path, stream)
    back = read_sensor_csv(path)
    assert back.nominal_rate.hex() == stream.nominal_rate.hex()
    times = frame_times(n=200)
    assert step_features(back, times).tobytes() == step_features(stream, times).tobytes()


def test_full_chain_is_deterministic():
    stream = stream_of([(0.0, 1.0, 9.0 + math.sin(k / 3)) for k in range(500)])
    times = frame_times(n=120)
    a = step_features(stream, times)
    b = step_features(stream, times)
    assert a.tobytes() == b.tobytes()


def test_feature_sequence_covers_every_frame():
    stream = stream_of([(0.0, 0.0, 9.81)] * 400)
    out = step_features(stream, frame_times(n=100))
    assert (out.dtype, out.shape, out.flags.writeable) == (np.float64, (100,), False)
