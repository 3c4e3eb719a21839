import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stridelink.evaluation import TsSweepRow
from stridelink.model import BoundingBox, DetectionFrame, SensorStream, validate_detection_log
from stridelink.fileio import (
    FormatError,
    format_sweep_table,
    read_detections,
    read_sensor_csv,
    read_truth,
    write_assignments,
    write_detections,
    write_sensor_csv,
    write_summary,
    write_sweep_csv,
    write_truth,
)
from stridelink.pairing import Assignment
from stridelink.pipeline import FrameResult, MatchRun
from stridelink.simulator import generate
from stridelink.tracer import Tracker

from conftest import two_person_config
from helpers import oracle_assignment_lines


@pytest.fixture(scope="module")
def data():
    return generate(two_person_config(duration=3.0))


def test_detections_round_trip_exactly(tmp_path, data):
    path = str(tmp_path / "detections.jsonl")
    write_detections(path, data.frames)
    assert tuple(read_detections(path)) == data.frames


def test_sensor_csv_round_trip_exactly(tmp_path, data):
    path = str(tmp_path / "p0-acc.csv")
    write_sensor_csv(path, data.streams[0])
    back = read_sensor_csv(path)
    assert back.sensor_id == "p0-acc"  # from the filename
    assert back.ts_us.dtype == np.int64 and back.samples.dtype == np.float64
    assert np.array_equal(back.ts_us, data.streams[0].ts_us)
    assert np.array_equal(back.samples, data.streams[0].samples)


@pytest.mark.parametrize("sensor_id", ["", ".hidden", "x/y"], ids=["empty", "dot-file", "separator"])
def test_stream_whose_id_cannot_name_its_file_not_written(tmp_path, sensor_id):
    """read_sensor_csv names a stream by its file's stem, so the id must be one."""
    stream = SensorStream(sensor_id, [0, 10_000], [(0.0, 0.0, 9.81)] * 2)
    path = tmp_path / "s.csv"
    with pytest.raises(ValueError, match=rf"^sensor id {re.escape(json.dumps(sensor_id))} cannot name a file: "):
        write_sensor_csv(str(path), stream)
    assert not path.exists()


def test_inferred_rate_recovers_regular_sampling(tmp_path, data):
    path = str(tmp_path / "s.csv")
    write_sensor_csv(path, data.streams[0])
    # 100 Hz stream: 10000 us spacing, n-1 gaps over (n-1)*10000 us
    assert read_sensor_csv(path).nominal_rate == pytest.approx(100.0, rel=1e-12)


def test_truth_round_trip(tmp_path, data):
    path = str(tmp_path / "truth.json")
    write_truth(path, data.sensor_owners, data.box_owners)
    sensors, owners = read_truth(path)
    assert sensors == data.sensor_owners
    assert owners == data.box_owners


@pytest.mark.parametrize("edit, problem", [
    (lambda t: t["box_owners"].update({"0": "p0"}), 'box_owners["0"] must be a list, got a string'),
    (lambda t: t["box_owners"].update({"0": ["p0", None]}), 'box_owners["0"][1] must be a string, got null'),
    (lambda t: t["box_owners"].update({"0": ["p0", 1]}), 'box_owners["0"][1] must be a string, got a number'),
    (lambda t: t["box_owners"].update({"x": []}), 'box_owners key "x" is not a frame index'),
    (lambda t: t["sensor_to_person"].update({"p0-acc": None}), 'sensor_to_person["p0-acc"] must be a string, got null'),
    (lambda t: t["sensor_to_person"].update({"p0-acc": 0}), 'sensor_to_person["p0-acc"] must be a string, got a number'),
    (lambda t: t.update(box_owners=[["p0"]]), "box_owners must be an object, got a list"),
    (lambda t: t.update(sensor_to_person=None), "sensor_to_person must be an object, got null"),
    (lambda t: t.pop("box_owners"), "missing key 'box_owners'"),
], ids=["owners-string", "owner-null", "owner-number", "frame-key", "person-null", "person-number",
        "owners-list", "sensors-null", "owners-missing"])
def test_truth_of_wrong_json_type_named_with_key(tmp_path, data, edit, problem):
    path = tmp_path / "truth.json"
    write_truth(str(path), data.sensor_owners, data.box_owners)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError) as info:
        read_truth(str(path))
    assert str(info.value) == f"{path}: {problem}"


@pytest.mark.parametrize("key", ["01", "1_0", " 2", "-3"])
def test_truth_frame_key_not_written_as_write_truth_writes_it_rejected(tmp_path, data, key):
    """int() would read "01" as frame 1, the later key silently winning,
    "1_0" as frame 10, " 2" as frame 2 and "-3" as frame -3."""
    path = tmp_path / "truth.json"
    write_truth(str(path), data.sensor_owners, data.box_owners)
    payload = json.loads(path.read_text())
    payload["box_owners"][key] = []
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError) as info:
        read_truth(str(path))
    assert str(info.value) == f"{path}: box_owners key {json.dumps(key)} is not a frame index"


def test_truth_frame_key_beyond_the_digit_limit_rejected(tmp_path, data):
    """int() refuses a key of 5,000 digits with an error that names no file."""
    path = tmp_path / "truth.json"
    write_truth(str(path), data.sensor_owners, data.box_owners)
    key = "1" * 5000
    path.write_text(path.read_text().replace('"box_owners": {', f'"box_owners": {{"{key}": [],', 1))
    with pytest.raises(FormatError) as info:
        read_truth(str(path))
    assert str(info.value) == f'{path}: box_owners key "{key}" is not a frame index'


def test_truth_that_is_not_an_object_rejected(tmp_path):
    path = tmp_path / "truth.json"
    path.write_text("[]")
    with pytest.raises(FormatError, match="the file must be an object, got a list$"):
        read_truth(str(path))


def test_malformed_detection_line_named_with_position(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"frame":0,"ts_us":0,"boxes":[]}\n{"frame":1,"boxes":[]}\n'
    )
    with pytest.raises(FormatError, match=r"bad\.jsonl:2"):
        read_detections(str(path))


@pytest.mark.parametrize("record, message", [
    ('{"frame":1.7,"ts_us":0,"boxes":[]}', "frame must be an integer, got 1.7"),
    ('{"frame":true,"ts_us":0,"boxes":[]}', "frame must be an integer, got true"),
    ('{"frame":1,"ts_us":"33333","boxes":[]}', 'ts_us must be an integer, got "33333"'),
    ('{"frame":1,"ts_us":33333.0,"boxes":[]}', "ts_us must be an integer, got 33333.0"),
    ('{"frame":1,"ts_us":0,"boxes":[{"cx":1,"cy":2,"w":3,"h":4},{"cx":true,"cy":2,"w":3,"h":4}]}',
     "boxes[1].cx must be a number, got true"),
    ('{"frame":1,"ts_us":0,"boxes":[{"cx":1,"cy":2,"w":"3","h":4}]}', 'boxes[0].w must be a number, got "3"'),
    ('{"frame":1,"ts_us":0,"boxes":[{"cx":1,"cy":2,"w":3,"h":null}]}', "boxes[0].h must be a number, got null"),
])
def test_detection_field_of_wrong_type_named_with_position(tmp_path, record, message):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame":0,"ts_us":0,"boxes":[]}\n' + record + "\n")
    with pytest.raises(FormatError, match=rf"bad\.jsonl:2: {re.escape(message)}$"):
        read_detections(str(path))


HUGE = "1" + "0" * 400  # a JSON integer beyond float range


@pytest.mark.parametrize("record, message", [
    ('{"frame":1,"ts_us":0,"boxes":[{"cx":1,"cy":2,"w":%s,"h":4}]}' % HUGE,
     f"boxes[0].w must be a number, got {HUGE}"),
    ('{"frame":1,"ts_us":%s,"boxes":[]}' % HUGE, "frame_index 1: timestamp beyond int64"),
    ('{"frame":%s,"ts_us":1,"boxes":[]}' % HUGE, "frame_index beyond int64"),
    ('{"frame":1,"ts_us":0,"boxes":{}}', "boxes must be a list, got an object"),
    ('{"frame":1,"ts_us":0,"boxes":[{"cx":1,"cy":2,"w":3,"h":4},[1,2,3,4]]}', "boxes[1] must be an object, got a list"),
], ids=["box-field-beyond-float", "ts_us-beyond-int64", "frame-beyond-int64", "boxes-object", "box-list"])
def test_detection_value_out_of_range_or_of_wrong_shape_named_with_position(tmp_path, record, message):
    """Each is a FormatError naming the line, not a traceback, a later
    failure in the pipeline or a frame that reads as empty."""
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame":0,"ts_us":0,"boxes":[]}\n' + record + "\n")
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:2: {re.escape(message)}$"):
        read_detections(str(path))


@pytest.mark.parametrize("frame, ts, message", [
    (7, 70, "frame_index 7 does not increase past 7"),
    (6, 70, "frame_index 6 does not increase past 7"),
    (8, 60, "frame_index 8: timestamp 60 does not increase past 60"),
    (8, 59, "frame_index 8: timestamp 59 does not increase past 60"),
    (7, 60, "frame_index 7 does not increase past 7"),
], ids=["repeated-index", "index-back", "repeated-timestamp", "timestamp-back", "both"])
def test_detection_log_out_of_order_named_by_line(tmp_path, frame, ts, message):
    """The reader checks each frame against the one before it, so no log it
    returns breaks the order rule; blank lines are counted."""
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame":5,"ts_us":50,"boxes":[]}\n\n{"frame":7,"ts_us":60,"boxes":[]}\n'
                    + json.dumps({"frame": frame, "ts_us": ts, "boxes": []}) + "\n")
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:4: {re.escape(message)}$"):
        read_detections(str(path))


@pytest.fixture(scope="module")
def order_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("order")


# steps of frame index and timestamp: mostly ahead, with repeats and steps back
ORDER_STEPS = st.lists(st.tuples(*[st.sampled_from([-2, -1, 0, 1, 1, 1, 1, 2, 5])] * 2), max_size=6)


@given(ORDER_STEPS)
def test_one_order_rule_at_the_reader_the_validator_and_the_tracker(order_dir, steps):
    """The reader, `validate_detection_log` and a Tracker refuse the same
    logs, at the same frame and with the same fault."""
    indices = itertools.accumulate((di for di, _ in steps), initial=100)
    stamps = itertools.accumulate((dt for _, dt in steps), initial=1000)
    frames = [DetectionFrame(f, ts, [BoundingBox(50.0, 50.0, 20.0, 40.0)]) for f, ts in zip(indices, stamps)]
    path = str(order_dir / "detections.jsonl")
    write_detections(path, frames)
    # the rule, stated apart from the program
    broken = [k for k in range(1, len(frames)) if not (frames[k].frame_index > frames[k - 1].frame_index
                                                       and frames[k].timestamp > frames[k - 1].timestamp)]
    report = validate_detection_log(frames)
    assert report.ok == (not broken)
    assert len(report.violations) == len(broken)
    tracker = Tracker()
    if not broken:
        assert read_detections(path) == frames
        for fr in frames:
            tracker.update(fr)
        return
    k = broken[0]
    with pytest.raises(FormatError) as refused:
        read_detections(path)
    assert str(refused.value) == f"{path}:{k + 1}: {report.violations[0]}"
    for fr in frames[:k]:
        tracker.update(fr)
    with pytest.raises(ValueError) as refused:
        tracker.update(frames[k])
    assert str(refused.value) == report.violations[0]


def test_negative_timestamp_named_with_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame":0,"ts_us":0,"boxes":[]}\n{"frame":1,"ts_us":-5,"boxes":[]}\n')
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:2: frame_index 1: negative timestamp$"):
        read_detections(str(path))


def test_frame_with_numpy_integer_fields_round_trips(tmp_path):
    """numpy integers are stored as Python ints, so the writer can
    encode them and the reader gives the same frame back."""
    frame = DetectionFrame(np.int64(3), np.int64(100_000), [BoundingBox(10.0, 20.0, 30.0, 60.5)])
    assert (type(frame.frame_index), type(frame.timestamp)) == (int, int)
    path = str(tmp_path / "detections.jsonl")
    write_detections(path, [frame])
    assert read_detections(path) == [frame]


def test_integer_box_fields_read_as_floats(tmp_path):
    path = tmp_path / "ints.jsonl"
    path.write_text('{"frame":3,"ts_us":100000,"boxes":[{"cx":10,"cy":20,"w":30,"h":60.5}]}\n')
    (frame,) = read_detections(str(path))
    assert (frame.frame_index, frame.timestamp) == (3, 100000)
    box = frame.boxes[0]
    assert [type(v) for v in (box.cx, box.cy, box.w, box.h)] == [float] * 4
    assert (box.cx, box.cy, box.w, box.h) == (10.0, 20.0, 30.0, 60.5)


def test_wrong_csv_header_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("time,x,y,z\n0,0,0,0\n")
    with pytest.raises(FormatError, match=r"s\.csv:1"):
        read_sensor_csv(str(path))


def test_nonincreasing_timestamp_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("ts_us,ax,ay,az\n0,0,0,9.8\n10000,0,0,9.8\n10000,0,0,9.8\n")
    with pytest.raises(FormatError, match=r"s\.csv:4.*does not increase"):
        read_sensor_csv(str(path))


@pytest.mark.parametrize("body, line", [
    # a non-increasing timestamp before a NaN: the earlier row is named
    ("0,0,0,9.8\n10000,0,0,9.8\n10000,0,0,9.8\n" + "".join(
        f"{k * 10000},0,0,9.8\n" for k in range(3, 8)) + "80000,0,nan,9.8\n", 4),
    ("0,0,0,9.8\n10000,0,abc,9.8\n", 3),
    ("0,0,0,9.8\n10000,0,0,9.8\n20000,0,9.8\n", 4),
    # a value defect before a row numpy refuses is named first
    ("0,0,0,9.8\n10000,0,inf,9.8\n20000,0,abc,9.8\n", 3),
    # blank lines count toward the line number
    ("0,0,0,9.8\n\n\n10000,0,abc,9.8\n", 5),
    ("0,0,0,9.8\n\n10000,0,0,9.8\n\n0,0,0,9.8\n", 6),
    ("0,0,0,9.8\n\n10000,nan,0,9.8\n", 4),
    # extra fields are not dropped
    ("0,0,0,9.8\n10000,0,0,9.8\n20000,0,0,9.8\n30000,0,0,9.8,junk,7\n", 5),
], ids=["backwards-before-nan", "abc-in-ay", "three-fields", "inf-before-abc",
        "blank-before-abc", "blank-before-backwards", "blank-before-nan", "extra-fields"])
def test_first_bad_sensor_row_named_by_line(tmp_path, body, line):
    path = tmp_path / "s.csv"
    path.write_text("ts_us,ax,ay,az\n" + body)
    with pytest.raises(FormatError, match=rf"s\.csv:{line}: "):
        read_sensor_csv(str(path))


@pytest.mark.parametrize("row, n_fields", [("10000,0,0,9.8,junk,7", 6), ("10000,0,9.8", 3)])
def test_sensor_row_with_wrong_field_count_named(tmp_path, row, n_fields):
    path = tmp_path / "s.csv"
    path.write_text(f"ts_us,ax,ay,az\n0,0,0,9.8\n{row}\n20000,0,0,9.8\n")
    with pytest.raises(FormatError) as info:
        read_sensor_csv(str(path))
    assert str(info.value) == f"{path}:3: expected 4 fields ts_us,ax,ay,az, got {n_fields}"


# sha256 of write_sensor_csv output for sensor p0-acc of
# two_person_config(duration=20.0): every float is written as the repr of a
# Python float, so the bytes do not depend on how the samples are stored.
SENSOR_CSV_SHA256 = "78f90bbd1a278c19e44a9bae48a2a546bb40b30d462f351d12952a86e6343cd5"


def test_sensor_csv_bytes_pinned(tmp_path):
    data = generate(two_person_config(duration=20.0))
    (stream,) = [s for s in data.streams if s.sensor_id == "p0-acc"]
    path = tmp_path / "p0-acc.csv"
    write_sensor_csv(str(path), stream)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SENSOR_CSV_SHA256


def test_single_sample_stream_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("ts_us,ax,ay,az\n0,0,0,9.8\n")
    message = f"{path}: sensor 's': need at least 2 samples to infer a rate, got 1"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        read_sensor_csv(str(path))


def test_assignments_one_line_per_frame_per_stage(tmp_path):
    a = Assignment(frozenset({("t0001", "s1"), ("t0000", "s0")}), 2.0)
    run = MatchRun([FrameResult(7, {}, a, a)], {}, 0.0)
    path = tmp_path / "assignments.jsonl"
    write_assignments(str(path), run)
    lines = path.read_text().splitlines()
    assert lines == [
        '{"frame":7,"stage":"raw","pairs":[["t0000","s0"],["t0001","s1"]]}',
        '{"frame":7,"stage":"refined","pairs":[["t0000","s0"],["t0001","s1"]]}',
    ]


def test_unknown_stage_named_before_any_file_is_opened(tmp_path):
    a = Assignment(frozenset({("t0000", "s0")}), 1.0)
    run = MatchRun([FrameResult(0, {}, a, Assignment(frozenset(), 0.0))], {}, 0.0)
    path = tmp_path / "assignments.jsonl"
    with pytest.raises(ValueError, match="unknown stage 'polished'"):
        write_assignments(str(path), run, ("raw", "polished"))
    assert not path.exists()


def odd_id_run():
    """Skipped frame indices, empty pairings, ids holding non-ASCII
    characters, quotes and backslashes, and one pair set held by two
    Assignments with different objectives."""
    a = Assignment(frozenset({('tré"1', "s\\☃"), ("t\\2", 'ü"')}), 2.0)
    b = Assignment(frozenset(sorted(a.pairs)), 1.5)
    c = Assignment(frozenset({("t\\2", "s\\☃")}), 1.0)
    empty = Assignment(frozenset(), 0.0)
    frames = [FrameResult(0, {}, empty, empty), FrameResult(3, {}, a, empty),
              FrameResult(4, {}, b, a), FrameResult(9, {}, c, b), FrameResult(12, {}, empty, c)]
    return MatchRun(frames, {}, 0.0)


@pytest.mark.parametrize("stages", [("raw", "refined"), ("raw",), ("refined",)])
@pytest.mark.parametrize("scene", ["odd_ids", "simulated"])
def test_assignment_bytes_match_the_literal_formula(tmp_path, monkeypatch, separable_run, scene, stages):
    run = odd_id_run() if scene == "odd_ids" else separable_run
    encoded = []
    sorted_pairs = Assignment.sorted_pairs

    def spy(assignment):
        encoded.append(assignment.pairs)
        return sorted_pairs(assignment)

    monkeypatch.setattr(Assignment, "sorted_pairs", spy)
    path = tmp_path / "assignments.jsonl"
    write_assignments(str(path), run, stages)
    assert path.read_bytes() == "".join(oracle_assignment_lines(run, stages)).encode("utf-8")
    # each distinct pair set is encoded once, however many frames and Assignments hold it
    held = {(fr.raw if stage == "raw" else fr.refined).pairs for fr in run.frames for stage in stages}
    assert sorted(encoded, key=sorted) == sorted(held, key=sorted)


def test_summary_round_trip(tmp_path):
    path = str(tmp_path / "summary.json")
    payload = {"frames": 90, "r_cd": {"raw": 0.5, "refined": 1.0}}
    write_summary(path, payload)
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == payload


def test_sweep_csv_layout(tmp_path):
    rows = [
        TsSweepRow(1.0, "raw", 0.75),
        TsSweepRow(1.0, "refined", math.nan),
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(str(path), rows)
    assert path.read_text().splitlines() == [
        "ts_seconds,stage,r_cd",
        "1.0,raw,0.7500",
        "1.0,refined,nan",
    ]


def test_sweep_table_shape():
    rows = [
        TsSweepRow(1.0, "raw", 0.5),
        TsSweepRow(1.0, "refined", 0.75),
        TsSweepRow(2.0, "raw", 0.625),
        TsSweepRow(2.0, "refined", 1.0),
    ]
    lines = format_sweep_table(rows).splitlines()
    assert lines[0].split() == ["TS(s)", "1", "2"]
    assert lines[1].split() == ["raw", "0.5000", "0.6250"]
    assert lines[2].split() == ["refined", "0.7500", "1.0000"]
