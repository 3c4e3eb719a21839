import math

import numpy as np
import pytest

from stridelink.model import (
    BoundingBox,
    DetectionFrame,
    GroundTruth,
    SensorStream,
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


def test_zero_height_box_named_by_frame_and_ordinal():
    frames = [frame(4, 0, BoundingBox(1, 1, 5, 5), BoundingBox(2, 2, 5, 0))]
    report = validate_detection_log(frames)
    assert len(report.violations) == 1
    assert "frame_index 4" in report.violations[0]
    assert "box 1" in report.violations[0]


def test_negative_width_flagged():
    report = validate_detection_log([frame(0, 0, BoundingBox(1, 1, -2, 5))])
    assert any("w <= 0" in v for v in report.violations)


def test_decreasing_frame_index_flagged():
    frames = [frame(5, 0), frame(4, 10)]
    report = validate_detection_log(frames)
    assert any("frame_index 4" in v and "does not increase" in v for v in report.violations)


def test_non_monotone_timestamp_flagged():
    frames = [frame(0, 100), frame(1, 100)]
    report = validate_detection_log(frames)
    assert any("timestamp" in v for v in report.violations)


def test_validation_is_pure():
    frames = [frame(3, 0, BoundingBox(1, 1, 0, 5)), frame(2, 5)]
    first = validate_detection_log(frames).violations
    second = validate_detection_log(frames).violations
    assert first == second


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


def test_stream_rate_is_its_intervals_over_its_span():
    """The rate is no argument: three 10 ms intervals and one of 70 ms
    give 4 intervals over 100 ms."""
    stream = SensorStream("phone", [0, 10_000, 20_000, 30_000, 100_000], [(0.0, 0.0, 9.81)] * 5)
    assert stream.nominal_rate == 40.0
    with pytest.raises(TypeError):
        SensorStream("phone", [0, 10_000], XYZ4[:2], 100.0)
