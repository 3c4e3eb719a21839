import math
import re

import numpy as np
import pytest

from stridelink.acc_features import step_features
from stridelink.simulator import (
    G,
    ConfigError,
    PersonSpec,
    ScenarioConfig,
    Xorshift64Star,
    acc_signal,
    generate,
    ratio_signal,
)

from helpers import oracle_frame_times, strict_interior_maxima


def same_stream(a, b):
    """Streams hold arrays, so compare them field by field, exactly."""
    return ((a.sensor_id, a.nominal_rate) == (b.sensor_id, b.nominal_rate)
            and np.array_equal(a.ts_us, b.ts_us) and np.array_equal(a.samples, b.samples))


def clean_person(**kw):
    defaults = dict(
        person_id="p0",
        stride_frequency=1.0,
        phase=0.0,
        carry_noise=0.0,
    )
    defaults.update(kw)
    return PersonSpec(**defaults)


def clean_config(**kw):
    defaults = dict(
        persons=(clean_person(),),
        duration=10.0,
        box_noise=0.0,
        dropout_prob=0.0,
        seed=3,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


# generator


def test_same_config_reproduces_identical_data():
    cfg = ScenarioConfig(
        persons=(PersonSpec("p0", 0.9), PersonSpec("p1", 1.3, phase=2.0)),
        duration=5.0,
        seed=17,
    )
    a, b = generate(cfg), generate(cfg)
    assert (a.frames, a.sensor_owners, a.box_owners) == (b.frames, b.sensor_owners, b.box_owners)
    assert len(a.streams) == len(b.streams) == 2
    assert all(map(same_stream, a.streams, b.streams))


def test_different_seed_changes_the_noise():
    base = dict(persons=(PersonSpec("p0", 1.0),), duration=5.0)
    a = generate(ScenarioConfig(seed=1, **base))
    b = generate(ScenarioConfig(seed=2, **base))
    assert a.frames != b.frames
    assert np.array_equal(a.streams[0].ts_us, b.streams[0].ts_us)
    assert not np.array_equal(a.streams[0].samples, b.streams[0].samples)


def test_zero_dropout_keeps_every_box():
    cfg = ScenarioConfig(
        persons=(PersonSpec("p0", 1.0), PersonSpec("p1", 1.4)),
        duration=4.0,
        dropout_prob=0.0,
        seed=5,
    )
    data = generate(cfg)
    assert len(data.frames) == 120
    assert all(len(fr.boxes) == 2 for fr in data.frames)


def test_dropout_rate_is_binomial():
    cfg = ScenarioConfig(
        persons=(PersonSpec("p0", 1.0), PersonSpec("p1", 1.4)),
        duration=50.0,
        dropout_prob=0.02,
        seed=5,
    )
    data = generate(cfg)
    draws = 2 * len(data.frames)
    missing = draws - sum(len(fr.boxes) for fr in data.frames)
    sigma = math.sqrt(draws * 0.02 * 0.98)
    assert abs(missing - draws * 0.02) < 5 * sigma


def test_box_owner_lists_align_with_boxes():
    cfg = ScenarioConfig(
        persons=(PersonSpec("p0", 1.0), PersonSpec("p1", 1.4)),
        duration=20.0,
        dropout_prob=0.1,
        seed=5,
    )
    data = generate(cfg)
    for fr in data.frames:
        owners = data.box_owners[fr.frame_index]
        assert len(owners) == len(fr.boxes)
        assert set(owners) <= {"p0", "p1"}


def test_sensor_map_and_stream_shape():
    cfg = clean_config(
        persons=(clean_person(), clean_person(person_id="p1", sensor_id="phone-7"))
    )
    data = generate(cfg)
    assert data.sensor_owners == {"p0-acc": "p0", "phone-7": "p1"}
    for s in data.streams:
        assert len(s.samples) == 1000  # 10 s at 100 Hz
        assert s.samples.shape == (1000, 3) and s.ts_us.shape == (1000,)
        assert s.nominal_rate == 999 / (9_990_000 / 1e6)  # the timestamps' 999 intervals over their span
        assert (np.diff(s.ts_us) > 0).all()
        assert (s.samples[:, 2] >= 0.0).all()


def test_adding_a_person_leaves_existing_draws_untouched():
    noisy = PersonSpec("p0", 1.0)
    alone = generate(ScenarioConfig(persons=(noisy,), duration=5.0, seed=9))
    crowd = generate(
        ScenarioConfig(persons=(noisy, PersonSpec("p1", 1.5)), duration=5.0, seed=9)
    )
    for fa, fc in zip(alone.frames, crowd.frames):
        a_boxes = [
            b
            for b, o in zip(fa.boxes, alone.box_owners[fa.frame_index])
            if o == "p0"
        ]
        c_boxes = [
            b
            for b, o in zip(fc.boxes, crowd.box_owners[fc.frame_index])
            if o == "p0"
        ]
        assert a_boxes == c_boxes
    assert same_stream(alone.streams[0], crowd.streams[0])


# signal shape


def test_ratio_peaks_once_per_step():
    data = generate(clean_config())
    ratios = [fr.boxes[0].ratio for fr in data.frames]
    # 1 Hz stride -> 2 steps/s -> peaks at t = 0, 0.5, ... 9.5; t=0 is edge
    assert strict_interior_maxima(ratios) == 19


def test_conditioned_acc_peaks_once_per_step():
    data = generate(clean_config())
    feats = step_features(data.streams[0], oracle_frame_times(data.frames))
    # skip the filter's settling second; steps land every 0.5 s after that
    settled = feats[30:]
    assert strict_interior_maxima(settled) == 18
    peaks = [
        i
        for i in range(1, len(settled) - 1)
        if settled[i] > settled[i - 1] and settled[i] > settled[i + 1]
    ]
    gaps = {b - a for a, b in zip(peaks, peaks[1:])}
    assert gaps == {15}


def test_signal_models_peak_together():
    p = clean_person(stride_frequency=1.25, phase=0.7)
    # both expressions hit their maxima where cos(2 pi f t + phase) = +-1
    for k in range(8):
        t = (k * math.pi - p.phase) / (2 * math.pi * p.stride_frequency)
        assert ratio_signal(p, t) == pytest.approx(p.base_ratio + p.ratio_amplitude)
        assert acc_signal(p, t) == pytest.approx(G + p.acc_peak)


def test_stationary_person_keeps_position():
    cfg = clean_config(persons=(clean_person(path=((320.0, 240.0),)),))
    data = generate(cfg)
    assert all(fr.boxes[0].cx == 320.0 and fr.boxes[0].cy == 240.0 for fr in data.frames)


def test_path_traversed_at_constant_speed():
    cfg = clean_config(persons=(clean_person(path=((0.0, 0.0), (100.0, 0.0))),))
    data = generate(cfg)
    xs = [fr.boxes[0].cx for fr in data.frames]
    assert xs[0] == 0.0
    assert all(b > a for a, b in zip(xs, xs[1:]))
    assert xs[-1] == pytest.approx(100.0 * (299 / 30) / 10.0)
    steps = [b - a for a, b in zip(xs, xs[1:])]
    assert max(steps) - min(steps) < 1e-9


# configuration validation


@pytest.mark.parametrize(
    "kw",
    [
        dict(persons=()),
        dict(duration=0.0),
        dict(fps=0.0),
        dict(acc_rate=20.0),
        dict(dropout_prob=1.0),
        dict(dropout_prob=-0.1),
        dict(box_noise=-1.0),
        dict(persons=(clean_person(), clean_person())),
        dict(
            persons=(
                clean_person(sensor_id="x"),
                clean_person(person_id="p1", sensor_id="x"),
            )
        ),
        dict(persons=(clean_person(stride_frequency=0.2),)),
        dict(persons=(clean_person(stride_frequency=0.3),)),  # boundary excluded
        dict(persons=(clean_person(stride_frequency=3.0),)),
        dict(persons=(clean_person(stride_frequency=3.5),)),
        dict(persons=(clean_person(base_ratio=1.0, ratio_amplitude=1.0),)),
        dict(persons=(clean_person(acc_peak=-1.0),)),
        dict(persons=(clean_person(carry_noise=-0.5),)),
        dict(persons=(clean_person(box_height=0.0),)),
        dict(persons=(clean_person(path=()),)),
    ],
)
def test_invalid_configs_rejected(kw):
    with pytest.raises(ConfigError):
        generate(clean_config(**kw))


@pytest.mark.parametrize("kw, message", [
    (dict(box_noise=math.nan), "box_noise must be finite, got nan"),
    (dict(duration=math.inf), "duration must be finite, got inf"),
    (dict(acc_rate=math.inf), "acc_rate must be finite, got inf"),
    (dict(duration=math.nan), "duration must be finite, got nan"),
    (dict(fps=math.nan), "fps must be finite, got nan"),
    (dict(acc_rate=math.nan), "acc_rate must be finite, got nan"),
    (dict(dropout_prob=-math.inf), "dropout_prob must be finite, got -inf"),
    (dict(persons=(clean_person(box_height=math.nan),)), "p0: box_height must be finite, got nan"),
    (dict(persons=(clean_person(phase=math.inf),)), "p0: phase must be finite, got inf"),
    (dict(persons=(clean_person(), clean_person(person_id="p1", acc_phase_offset=-math.inf))),
     "p1: acc_phase_offset must be finite, got -inf"),
    (dict(persons=(clean_person(path=((0.0, 0.0), (100.0, math.nan))),)),
     "p0: path point 1 must be finite, got (100.0, nan)"),
], ids=["box_noise-nan", "duration-inf", "acc_rate-inf", "duration-nan", "fps-nan", "acc_rate-nan",
        "dropout_prob-neg-inf", "box_height-nan", "phase-inf", "acc_phase_offset-neg-inf", "path-nan"])
def test_non_finite_config_number_named(kw, message):
    """NaN slips past every comparison and inf overflows the frame count,
    so each float field and path coordinate is checked first."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        generate(clean_config(**kw))


# random number generator


def test_generator_follows_documented_recurrence():
    mask = (1 << 64) - 1
    rng = Xorshift64Star(seed=12345, stream=7)
    x = rng._x
    for _ in range(100):
        x ^= x >> 12
        x = (x ^ (x << 25)) & mask
        x ^= x >> 27
        assert rng.next_u64() == (x * 2685821657736338717) & mask


def test_uniform_stays_in_unit_interval():
    rng = Xorshift64Star(seed=1)
    draws = [rng.uniform() for _ in range(10000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert abs(sum(draws) / len(draws) - 0.5) < 0.02


def test_gauss_moments():
    rng = Xorshift64Star(seed=2)
    draws = [rng.gauss() for _ in range(20000)]
    mean = sum(draws) / len(draws)
    var = sum((d - mean) ** 2 for d in draws) / len(draws)
    assert abs(mean) < 0.03
    assert abs(math.sqrt(var) - 1.0) < 0.03


def test_streams_with_different_index_are_decorrelated():
    a = Xorshift64Star(seed=1, stream=0)
    b = Xorshift64Star(seed=1, stream=1)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]
