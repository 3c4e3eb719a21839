import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stridelink.model import (
    BoundingBox,
    DetectionFrame,
    GroundTruth,
    SensorStream,
    order_fault,
    validate_detection_log,
)


def frame(i, ts, *boxes):
    return DetectionFrame(i, ts, boxes)


def test_ratio_is_height_over_width():
    assert BoundingBox(0.0, 0.0, 50.0, 100.0).ratio == 2.0


def test_well_formed_log_has_no_violations():
    frames = [
        frame(0, 0, BoundingBox(10, 10, 5, 12)),
        frame(1, 33_333, BoundingBox(11, 10, 5, 12), BoundingBox(90, 40, 6, 11)),
        frame(2, 66_666),
    ]
    assert validate_detection_log(frames).ok


BOX_RULE = "cx, cy must be finite and w, h finite and positive"


def test_zero_height_box_cannot_be_built():
    with pytest.raises(ValueError, match=rf"^{BOX_RULE}, got \(2, 2, 5, 0\)$"):
        BoundingBox(2, 2, 5, 0)


def test_negative_width_flagged():
    with pytest.raises(ValueError, match=rf"^{BOX_RULE}, got \(1, 1, -2, 5\)$"):
        BoundingBox(1, 1, -2, 5)


@given(st.floats(), st.floats(), st.floats(), st.floats())
def test_box_builds_exactly_when_the_box_rule_holds(cx, cy, w, h):
    holds = (math.isfinite(cx) and math.isfinite(cy) and math.isfinite(w) and math.isfinite(h) and w > 0 and h > 0
             and h / w < math.inf)
    try:
        BoundingBox(cx, cy, w, h)
    except ValueError:
        assert not holds
    else:
        assert holds


NUMBERS = st.one_of(st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64), st.floats(),
                    st.integers(-2**53, 2**53).map(float))


@given(NUMBERS, NUMBERS)
def test_frame_builds_exactly_when_its_fields_are_integers_and_its_timestamp_not_negative(i, ts):
    """Both fields fit int64, and the timestamp is not negative."""
    integers = isinstance(i, (int, np.integer)) and isinstance(ts, (int, np.integer))
    holds = integers and -2**63 <= i < 2**63 and 0 <= ts < 2**63
    try:
        built = DetectionFrame(i, ts)
    except ValueError:
        assert not holds
    else:
        assert holds
        assert (type(built.frame_index), type(built.timestamp)) == (int, int)
        assert (built.frame_index, built.timestamp) == (i, ts)


@pytest.mark.parametrize("i, ts, message", [
    (3, math.nan, "frame_index 3, timestamp nan: both must be integers"),
    (3, 333333.5, "frame_index 3, timestamp 333333.5: both must be integers"),
    (2.0, 0, "frame_index 2.0, timestamp 0: both must be integers"),
], ids=["nan-timestamp", "fractional-timestamp", "float-index"])
def test_frame_that_cannot_be_built_named(i, ts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DetectionFrame(i, ts)


def test_frame_timestamp_fits_int64():
    """The pipeline derives its frame grid from the timestamps in numpy."""
    assert DetectionFrame(0, 2**63 - 1).timestamp == 2**63 - 1
    with pytest.raises(ValueError, match=r"^frame_index 0: timestamp beyond int64$"):
        DetectionFrame(0, 2**63)


def test_frame_index_fits_int64():
    """A log with frames 0 and 10**400 would reach the pipeline's frame
    grid, which numpy cannot build."""
    assert DetectionFrame(-2**63, 0).frame_index == -2**63
    assert DetectionFrame(2**63 - 1, 0).frame_index == 2**63 - 1
    for index in (2**63, -2**63 - 1, 10**400):
        with pytest.raises(ValueError, match=r"^frame_index beyond int64$"):
            DetectionFrame(index, 0)


def test_box_whose_ratio_overflows_cannot_be_built():
    """Each side is finite and positive, but h / w is inf."""
    with pytest.raises(ValueError, match=r"^h / w must be finite, got 1e\+300 / 1e-300$"):
        BoundingBox(0, 0, 1e-300, 1e300)


def test_decreasing_frame_index_flagged():
    frames = [frame(5, 0), frame(4, 10)]
    report = validate_detection_log(frames)
    assert report.violations == ["frame_index 4 does not increase past 5"]


def test_non_monotone_timestamp_flagged():
    frames = [frame(0, 100), frame(1, 100)]
    report = validate_detection_log(frames)
    assert report.violations == ["frame_index 1: timestamp 100 does not increase past 100"]


def test_validation_is_pure():
    """Frame 2 breaks both halves of the rule and gets one fault, its index's."""
    frames = [frame(3, 5, BoundingBox(1, 1, 2, 5)), frame(2, 5)]
    first = validate_detection_log(frames).violations
    second = validate_detection_log(frames).violations
    assert first == second == ["frame_index 2 does not increase past 3"]


@pytest.mark.parametrize("prev, fault", [
    (None, None),
    (frame(4, 99), None),
    (frame(5, 0), "frame_index 5 does not increase past 5"),
    (frame(6, 200), "frame_index 5 does not increase past 6"),
    (frame(4, 100), "frame_index 5: timestamp 100 does not increase past 100"),
    (frame(4, 101), "frame_index 5: timestamp 100 does not increase past 101"),
], ids=["first", "ahead", "repeated-index", "index-back", "repeated-timestamp", "timestamp-back"])
def test_order_fault_names_the_frame_and_the_one_before(prev, fault):
    assert order_fault(prev, frame(5, 100)) == fault


def test_two_sensors_cannot_claim_one_person():
    GroundTruth({"t1": "alice"}, {"s1": "alice", "s2": "bob"})
    with pytest.raises(ValueError):
        GroundTruth({}, {"s1": "alice", "s2": "alice"})


def test_boxes_stored_as_tuple():
    f = DetectionFrame(0, 0, [BoundingBox(0, 0, 1, 1)])
    assert isinstance(f.boxes, tuple)


XYZ4 = [(0.0, 0.0, 9.81)] * 4


@pytest.mark.parametrize("ts, samples, message", [
    ([0, 10_000, 20_000, 30_000], XYZ4[:3], "4 timestamps for 3 samples; index 3 has no sample"),
    ([0, 10_000], XYZ4[:3], "2 timestamps for 3 samples; index 2 has no timestamp"),
    ([[0, 10_000], [20_000, 30_000]], XYZ4, r"ts_us must be 1-D, got shape \(2, 2\)"),
    ([0, 10_000], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], r"samples must have shape \(N, 3\), got \(3, 2\)"),
    ([0, 10_000, 20_000, 5], XYZ4, "timestamp 5 at index 3 does not increase"),
    ([0, 10_000, 10_000, 30_000], XYZ4, "timestamp 10000 at index 2 does not increase"),
    (np.empty(0, np.int64), np.empty((0, 3)), "need at least 2 samples to infer a rate, got 0"),
    ([0], XYZ4[:1], "need at least 2 samples to infer a rate, got 1"),
    ([0, 10_000, 20_000, 30_000], XYZ4[:2] + [(0.0, math.nan, 9.81)] + XYZ4[3:],
     r"sample \[0.0, nan, 9.81\] at index 2 is not finite"),
    ([0, 10_000], [(math.inf, 0.0, 9.81), (0.0, 0.0, -math.inf)],
     r"sample \[inf, 0.0, 9.81\] at index 0 is not finite"),
], ids=["sample-missing", "timestamp-missing", "2-D", "two-axes", "backwards", "repeated", "no-sample",
        "one-sample", "nan", "inf"])
def test_stream_that_cannot_be_interpolated_rejected_at_construction(ts, samples, message):
    with pytest.raises(ValueError, match=rf"^sensor 'phone': {message}$"):
        SensorStream("phone", ts, samples)


@pytest.mark.parametrize("ts, kind", [([0.5, 10000.7, 20000.2], "float64"), ([0.0, 10_000.0], "float64"),
                                      ([False, True], "bool")], ids=["fractional", "whole-floats", "bool"])
def test_stream_timestamps_that_are_not_integers_rejected(ts, kind):
    """A fractional timestamp is refused, not cut to an integer: cut,
    the first case would read as a 100 Hz stream."""
    with pytest.raises(ValueError, match=f"^sensor 'phone': ts_us must be integers, got {kind}$"):
        SensorStream("phone", ts, XYZ4[:len(ts)])


def test_stream_rate_is_its_intervals_over_its_span():
    """The rate is no argument: three 10 ms intervals and one of 70 ms
    give 4 intervals over 100 ms."""
    stream = SensorStream("phone", [0, 10_000, 20_000, 30_000, 100_000], [(0.0, 0.0, 9.81)] * 5)
    assert stream.nominal_rate == 40.0
    with pytest.raises(TypeError):
        SensorStream("phone", [0, 10_000], XYZ4[:2], 100.0)
