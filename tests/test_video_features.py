"""The video feature: a live trace's ratio stream, as `pipeline._push_sighting`
fills it, checked against the literal fill rule in helpers.oracle_ratios."""

from stridelink.model import BoundingBox
from stridelink.pipeline import _push_sighting, interpolate_gap
from stridelink.similarity import ExtremeStream
from stridelink.simulator import PersonSpec, ScenarioConfig, generate
from stridelink.tracer import Tracker

from helpers import oracle_marks, oracle_ratios


def live(sightings, d=10):
    """The ratio stream of these (frame, h/w) sightings, and every value
    it pushed to its extremum stream."""
    stream = ExtremeStream(d, sightings[0][0])
    pushed = []
    push = stream.push

    def record(value):
        pushed.append(value)
        push(value)

    stream.push = record
    for f, r in sightings:
        _push_sighting(stream, f, r)
    return stream, pushed


def test_single_entry_ratio():
    stream, pushed = live([(0, BoundingBox(0, 0, 50, 100).ratio)])
    assert pushed == [2.0] == oracle_ratios([(0, 2.0)])
    assert stream.start_frame == 0


def test_gap_filled_linearly():
    sightings = [
        (1, BoundingBox(0, 0, 50, 100).ratio),   # 2.0
        (3, BoundingBox(0, 0, 50, 150).ratio),   # 3.0
    ]
    _, pushed = live(sightings)
    assert pushed == [2.0, 2.5, 3.0] == oracle_ratios(sightings)


def test_length_covers_full_span():
    sightings = [
        (10, BoundingBox(0, 0, 50, 100).ratio),
        (14, BoundingBox(0, 0, 50, 120).ratio),
        (15, BoundingBox(0, 0, 50, 110).ratio),
    ]
    stream, pushed = live(sightings)
    assert len(stream) == 15 - 10 + 1
    assert stream.start_frame == 10
    assert pushed == oracle_ratios(sightings)


def test_interpolate_gap_endpoints_excluded():
    assert interpolate_gap(2.0, 3.0, 4) == [2.25, 2.5, 2.75]
    assert interpolate_gap(2.0, 3.0, 4) == oracle_ratios([(0, 2.0), (4, 3.0)])[1:-1]


def test_scaling_ratios_keeps_extremum_marks():
    sightings = [
        (f, BoundingBox(0, 0, 50, 100 + 30 * ((f * 7) % 5)).ratio)
        for f in range(40)
    ]
    plain, pushed = live(sightings)
    scaled, _ = live([(f, 3.7 * r) for f, r in sightings])
    assert pushed == oracle_ratios(sightings)
    assert plain.marks == scaled.marks == oracle_marks(pushed, 10)[:len(pushed) - plain.half]


def test_noise_free_walker_trace_peaks_once_per_step():
    # 1.8 steps/s over 100 frames at 30 fps is 6 step cycles
    cfg = ScenarioConfig(
        persons=(PersonSpec("p", 0.9, carry_noise=0.0, path=((100.0, 100.0), (300.0, 100.0))),),
        duration=100 / 30.0,
        box_noise=0.0,
        dropout_prob=0.0,
    )
    data = generate(cfg)
    tracker = Tracker()
    for frame in data.frames:
        tracker.update(frame)
    (trace,) = tracker.traces.values()
    sightings = [(f, box.ratio) for f, box in trace.entries]
    stream, pushed = live(sightings)
    assert pushed == oracle_ratios(sightings)
    marks = oracle_marks(pushed, 10)
    assert stream.marks == marks[:len(pushed) - stream.half]
    maxima = sum(1 for v in marks if v == 1)
    assert 5 <= maxima <= 7
