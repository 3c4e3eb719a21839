import hashlib
import json
import math
import re

import numpy as np
import pytest

from stridelink.evaluation import TsSweepRow
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
