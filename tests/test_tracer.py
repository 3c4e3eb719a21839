import math
import random
import re

import numpy as np
import pytest

from stridelink.model import BoundingBox, DetectionFrame
from stridelink.tracer import (
    TracerParams,
    Tracker,
    search_radius,
)


def box(cx, cy, h=100.0, w=40.0):
    return BoundingBox(cx, cy, w, h)


def test_search_radius_is_tenth_of_height():
    assert search_radius(box(0, 0, h=200), 1) == 20.0


def test_search_radius_scales_with_gap():
    assert search_radius(box(0, 0, h=200), 3) == 60.0


def test_search_radius_rejects_zero_gap():
    with pytest.raises(ValueError):
        search_radius(box(0, 0), 0)


@pytest.mark.parametrize("fields, message", [
    ({"radius_factor": -1}, "radius_factor must be finite and > 0, got -1"),
    ({"radius_factor": 0.0}, "radius_factor must be finite and > 0, got 0.0"),
    ({"radius_factor": math.inf}, "radius_factor must be finite and > 0, got inf"),
    ({"radius_factor": math.nan}, "radius_factor must be finite and > 0, got nan"),
    ({"max_gap": -1}, "max_gap must be >= 1, got -1"),
    ({"max_gap": 0}, "max_gap must be >= 1, got 0"),
    ({"max_gap": 15.0}, "max_gap must be an integer, got 15.0"),
], ids=["radius-negative", "radius-zero", "radius-inf", "radius-nan", "gap-negative", "gap-zero", "gap-float"])
def test_params_out_of_range_rejected(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TracerParams(**fields)


def test_params_at_their_least_accepted():
    assert TracerParams(radius_factor=1e-9, max_gap=np.int64(1)).max_gap == 1


def test_stationary_box_builds_one_trace():
    tracker = Tracker()
    for f in range(10):
        tracker.update(DetectionFrame(f, f * 33_333, [box(100, 100)]))
    assert len(tracker.traces) == 1
    (trace,) = tracker.traces.values()
    assert len(trace.entries) == 10
    assert trace.active


def test_two_drifting_walkers_never_swap():
    # 300 px apart, 5 px/frame drift, radius 10: cross distance always
    # far outside any search range
    tracker = Tracker()
    for f in range(30):
        frame = DetectionFrame(f, f * 33_333, [box(100 + 5 * f, 100), box(400 + 5 * f, 100)])
        assignments = tracker.update(frame)
        if f == 0:
            first, second = assignments[0], assignments[1]
        else:
            assert assignments[0] == first
            assert assignments[1] == second
    assert len(tracker.traces) == 2


def test_jump_beyond_radius_opens_new_trace():
    tracker = Tracker()
    tracker.update(DetectionFrame(0, 0, [box(0, 0, h=200)]))
    tracker.update(DetectionFrame(1, 33_333, [box(25, 0, h=200)]))
    # 25 > 0.1 * 200, the old trace cannot take the box
    assert len(tracker.traces) == 2
    assert sorted(len(t.entries) for t in tracker.traces.values()) == [1, 1]


def test_jump_within_radius_extends():
    tracker = Tracker()
    tracker.update(DetectionFrame(0, 0, [box(0, 0, h=200)]))
    tracker.update(DetectionFrame(1, 33_333, [box(19, 0, h=200)]))
    assert len(tracker.traces) == 1


def test_gap_recapture_within_grown_radius():
    tracker = Tracker()
    for f in range(3):
        tracker.update(DetectionFrame(f, f * 33_333, [box(0, 0)]))
    for f in range(3, 6):
        tracker.update(DetectionFrame(f, f * 33_333, []))
    # unseen for 4 frames: radius 0.1*100*4 = 40 covers the 5 px move
    tracker.update(DetectionFrame(6, 6 * 33_333, [box(5, 0)]))
    assert len(tracker.traces) == 1
    (trace,) = tracker.traces.values()
    assert [f for f, _ in trace.entries] == [0, 1, 2, 6]


def test_trace_terminates_after_max_gap():
    tracker = Tracker(TracerParams(max_gap=4))
    tracker.update(DetectionFrame(0, 0, [box(0, 0)]))
    for f in range(1, 6):
        tracker.update(DetectionFrame(f, f * 33_333, []))
    tracker.update(DetectionFrame(6, 6 * 33_333, [box(0, 0)]))
    states = sorted(t.active for t in tracker.traces.values())
    assert len(tracker.traces) == 2
    assert states == [False, True]


def test_frame_not_ahead_rejected():
    tracker = Tracker()
    tracker.update(DetectionFrame(5, 0, [box(0, 0)]))
    with pytest.raises(ValueError):
        tracker.update(DetectionFrame(5, 10, [box(0, 0)]))


def test_frame_behind_the_last_processed_one_rejected():
    # frame 20 has no box, so no trace has seen it, yet frame 15 comes after it
    tracker = Tracker()
    tracker.update(DetectionFrame(10, 0, [box(0, 0)]))
    tracker.update(DetectionFrame(20, 1, []))
    with pytest.raises(ValueError, match="^frame_index 15 does not increase past 20$"):
        tracker.update(DetectionFrame(15, 2, [box(0, 0)]))


@pytest.mark.parametrize("ts", [1, 0], ids=["repeated", "backwards"])
def test_frame_whose_timestamp_is_not_ahead_rejected(ts):
    """The tracker holds the log's whole order rule, not only its index half,
    and a refused frame leaves the traces as they were."""
    tracker = Tracker()
    tracker.update(DetectionFrame(10, 0, [box(0, 0)]))
    tracker.update(DetectionFrame(11, 1, [box(0, 0)]))
    with pytest.raises(ValueError, match=f"^frame_index 12: timestamp {ts} does not increase past 1$"):
        tracker.update(DetectionFrame(12, ts, [box(0, 0)]))
    assert [entry[0] for entry in tracker.traces["t0000"].entries] == [10, 11]
    assert tracker.update(DetectionFrame(12, 2, [box(0, 0)])) == {0: "t0000"}


def test_retired_names_the_traces_each_update_terminated():
    tracker = Tracker(TracerParams(max_gap=2))
    tracker.update(DetectionFrame(0, 0, [box(0, 0), box(300, 0)]))
    tracker.update(DetectionFrame(1, 1, [box(0, 0)]))
    retired = []
    for f in range(2, 5):
        tracker.update(DetectionFrame(f, f, []))
        retired.append(tracker.retired)
    assert retired == [[], ["t0001"], ["t0000"]]
    assert not any(t.active for t in tracker.traces.values())


def _random_frames(seed, n_frames=60, n_boxes=3):
    rng = random.Random(seed)
    pos = [(rng.uniform(0, 600), rng.uniform(0, 400)) for _ in range(n_boxes)]
    frames = []
    for f in range(n_frames):
        boxes = []
        for k in range(n_boxes):
            x, y = pos[k]
            pos[k] = (x + rng.uniform(-4, 4), y + rng.uniform(-4, 4))
            if rng.random() < 0.1:
                continue
            boxes.append(box(pos[k][0], pos[k][1]))
        frames.append(DetectionFrame(f, f * 33_333, boxes))
    return frames


@pytest.mark.parametrize("xs, expected", [
    ([[100, 108], [104]], [{0: "t0000", 1: "t0001"}, {0: "t0000"}]),
    ([[100], [104, 96]], [{0: "t0000"}, {0: "t0000", 1: "t0001"}]),
    ([[100], [96, 104]], [{0: "t0000"}, {0: "t0000", 1: "t0001"}]),
], ids=["older-trace", "lower-box", "lower-box-on-the-left"])
def test_equidistant_candidates_go_to_the_older_trace_then_the_lower_box(xs, expected):
    """At exactly equal distances the older trace takes the box, and a
    trace takes the lower of two box ordinals."""
    tracker = Tracker()
    got = [tracker.update(DetectionFrame(f, f * 33_333, [box(x, 100) for x in row])) for f, row in enumerate(xs)]
    assert got == expected


def test_no_box_shared_between_traces_in_one_frame():
    tracker = Tracker()
    for frame in _random_frames(1):
        assignments = tracker.update(frame)
        assert len(set(assignments.values())) == len(assignments)
        assert set(assignments) == set(range(len(frame.boxes)))


def test_consecutive_displacement_bounded_by_radius():
    tracker = Tracker()
    for frame in _random_frames(2):
        tracker.update(frame)
    for trace in tracker.traces.values():
        for (f0, b0), (f1, b1) in zip(trace.entries, trace.entries[1:]):
            dist = math.hypot(b1.cx - b0.cx, b1.cy - b0.cy)
            assert dist <= search_radius(b0, f1 - f0) + 1e-9


def test_same_log_gives_same_partition():
    frames = _random_frames(3)
    t1, t2 = Tracker(), Tracker()
    for frame in frames:
        a1 = t1.update(frame)
        a2 = t2.update(frame)
        assert a1 == a2
    assert t1.traces == t2.traces


def test_trace_ids_keep_counting_after_traces_die():
    tracker = Tracker(TracerParams(max_gap=2))
    tracker.update(DetectionFrame(0, 0, [box(0, 0), box(300, 0)]))
    for f in range(1, 4):
        tracker.update(DetectionFrame(f, f * 33_333, []))
    assert not any(t.active for t in tracker.traces.values())
    assignments = tracker.update(DetectionFrame(4, 4 * 33_333, [box(0, 0)]))
    assert assignments == {0: "t0002"}
    assert list(tracker.traces) == ["t0000", "t0001", "t0002"]
    assert [len(t.entries) for t in tracker.traces.values()] == [1, 1, 1]
