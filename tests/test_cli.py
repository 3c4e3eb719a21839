import json
import math

import pytest

from stridelink import cli, evaluation
from stridelink.cli import main

SCENARIO = {
    "persons": [
        {"person_id": "p0", "stride_frequency": 0.9},
        {
            "person_id": "p1",
            "stride_frequency": 1.3,
            "phase": 2.5,
            "path": [[50, 380], [590, 380]],
        },
    ],
    "duration": 8.0,
    "seed": 11,
}

MATCH = {
    "detections": "out/detections.jsonl",
    "sensors_dir": "out/sensors",
    "truth": "out/truth.json",
}


def write_cfg(tmp_path, scenario=SCENARIO, match=MATCH, name="cfg.json"):
    path = tmp_path / name
    cfg = {}
    if scenario is not None:
        cfg["scenario"] = scenario
    if match is not None:
        cfg["match"] = match
    path.write_text(json.dumps(cfg))
    return str(path)


def simulated(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    return cfg


def test_simulate_writes_the_scenario(tmp_path, capsys):
    simulated(tmp_path)
    out = tmp_path / "out"
    lines = (out / "detections.jsonl").read_text().splitlines()
    assert len(lines) == 240  # 8 s at 30 fps
    assert (out / "sensors" / "p0-acc.csv").exists()
    assert (out / "sensors" / "p1-acc.csv").exists()
    assert (out / "truth.json").exists()
    assert "240 frames" in capsys.readouterr().err


def test_simulate_is_reproducible_and_seed_sensitive(tmp_path):
    cfg = write_cfg(tmp_path)
    for d, seed in [("a", "1"), ("b", "1"), ("c", "2")]:
        assert main(
            ["simulate", "--config", cfg, "--out", str(tmp_path / d), "--seed", seed]
        ) == 0
    read = lambda d: (tmp_path / d / "detections.jsonl").read_bytes()
    assert read("a") == read("b")
    assert read("a") != read("c")


def test_match_reports_both_stages(tmp_path, capsys):
    cfg = simulated(tmp_path)
    res = tmp_path / "res"
    assert main(["match", "--config", cfg, "--out", str(res)]) == 0
    summary = json.loads((res / "summary.json").read_text())
    assert summary["frames"] == 240
    assert summary["sensors"] == 2
    assert set(summary["r_cd"]) == {"raw", "refined"}
    lines = (res / "assignments.jsonl").read_text().splitlines()
    assert len(lines) == 480  # one per frame per stage
    assert "matched 240 frames" in capsys.readouterr().err


def test_match_without_truth_omits_the_rate(tmp_path):
    simulated(tmp_path)
    cfg = write_cfg(
        tmp_path, match={k: v for k, v in MATCH.items() if k != "truth"}, name="nt.json"
    )
    res = tmp_path / "res"
    assert main(["match", "--config", cfg, "--out", str(res)]) == 0
    assert "r_cd" not in json.loads((res / "summary.json").read_text())


def test_stage_option_filters_output(tmp_path):
    cfg = simulated(tmp_path)
    res = tmp_path / "res"
    assert main(["match", "--config", cfg, "--out", str(res), "--stage", "raw"]) == 0
    lines = (res / "assignments.jsonl").read_text().splitlines()
    assert len(lines) == 240
    assert all(json.loads(l)["stage"] == "raw" for l in lines)
    assert json.loads((res / "summary.json").read_text())["stages"] == ["raw"]


def test_ts_option_overrides_the_gate(tmp_path):
    cfg = simulated(tmp_path)
    res = tmp_path / "res"
    assert main(["match", "--config", cfg, "--out", str(res), "--ts", "1.0"]) == 0
    assert json.loads((res / "summary.json").read_text())["ts_gate"] == 1.0


def test_sweep_writes_csv_and_table(tmp_path, capsys):
    cfg = simulated(tmp_path)
    res = tmp_path / "res"
    assert main(["sweep", "--config", cfg, "--out", str(res), "--ts", "1,2"]) == 0
    rows = (res / "sweep.csv").read_text().splitlines()
    assert rows[0] == "ts_seconds,stage,r_cd,seed"
    assert len(rows) == 5  # 2 gates x 2 stages
    assert all(r.endswith(",11") for r in rows[1:])  # scenario seed carried over
    assert (res / "sweep.txt").exists()
    assert "TS(s)" in capsys.readouterr().out


def test_missing_sensor_file_names_the_path(tmp_path, capsys):
    simulated(tmp_path)
    cfg = write_cfg(
        tmp_path,
        match={"detections": "out/detections.jsonl", "sensors": ["nope.csv"]},
        name="bad.json",
    )
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error:")
    assert "nope.csv" in err


def test_unparseable_detection_line_names_the_line(tmp_path, capsys):
    simulated(tmp_path)
    det = tmp_path / "out" / "detections.jsonl"
    lines = det.read_text().splitlines()
    lines[2] = "{broken"
    det.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path, name="c2.json")
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
    assert "detections.jsonl:3" in capsys.readouterr().err


def test_invalid_box_rejected_by_validation(tmp_path, capsys):
    simulated(tmp_path)
    det = tmp_path / "out" / "detections.jsonl"
    lines = det.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["boxes"][0]["h"] = -5.0
    lines[0] = json.dumps(rec, separators=(",", ":"))
    det.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path, name="c3.json")
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
    assert "malformed" in capsys.readouterr().err


def test_sweep_requires_truth(tmp_path, capsys):
    simulated(tmp_path)
    cfg = write_cfg(
        tmp_path, match={k: v for k, v in MATCH.items() if k != "truth"}, name="nt.json"
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
    assert "truth" in capsys.readouterr().err


def test_sweep_rejects_bad_gate_lists(tmp_path, capsys):
    cfg = simulated(tmp_path)
    res = str(tmp_path / "res")
    assert main(["sweep", "--config", cfg, "--out", res, "--ts", "abc"]) == 1
    assert main(["sweep", "--config", cfg, "--out", res, "--ts", "0,1"]) == 1
    assert main(["match", "--config", cfg, "--out", res, "--ts", "-1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command, ts, message", [
    ("match", "nan", "--ts must be finite and positive"),
    ("match", "inf", "--ts must be finite and positive"),
    ("match", "-inf", "--ts must be finite and positive"),
    ("sweep", "1,nan", "--ts gates must be finite and positive"),
    ("sweep", "inf,2", "--ts gates must be finite and positive"),
])
def test_non_finite_gates_rejected(tmp_path, capsys, command, ts, message):
    cfg = simulated(tmp_path)
    res = tmp_path / "res"
    assert main([command, "--config", cfg, "--out", str(res), f"--ts={ts}"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not res.exists()


def edit_truth(tmp_path, edit):
    """Rewrite the simulated truth.json through edit(payload)."""
    path = tmp_path / "out" / "truth.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def rejected(tmp_path, capsys, command, cfg, message):
    """The command fails with exactly this one diagnostic line and leaves
    no output directory behind."""
    capsys.readouterr()
    res = tmp_path / "res"
    args = [command, "--config", cfg, "--out", str(res)] + (["--ts", "1"] if command == "sweep" else [])
    assert main(args) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not res.exists()


@pytest.mark.parametrize("command", ["match", "sweep"])
def test_truth_giving_one_person_two_sensors_rejected(tmp_path, capsys, monkeypatch, command):
    cfg = simulated(tmp_path)
    edit_truth(tmp_path, lambda t: t["sensor_to_person"].update({"p1-acc": "p0"}))
    runs = []
    monkeypatch.setattr(cli, "run_pipeline", lambda *args: runs.append(args))
    monkeypatch.setattr(evaluation, "run_pipeline", lambda *args: runs.append(args))
    rejected(tmp_path, capsys, command, cfg, "person 'p0' carried by both 'p0-acc' and 'p1-acc'")
    assert runs == []  # rejected before any pipeline pass


@pytest.mark.parametrize("command", ["match", "sweep"])
def test_paired_sensor_missing_from_truth_rejected(tmp_path, capsys, command):
    cfg = simulated(tmp_path)
    edit_truth(tmp_path, lambda t: t["sensor_to_person"].pop("p1-acc"))
    rejected(tmp_path, capsys, command, cfg, "sensor 'p1-acc' not in ground truth")


@pytest.mark.parametrize("command", ["match", "sweep"])
def test_box_missing_from_truth_rejected(tmp_path, capsys, command):
    cfg = simulated(tmp_path)
    owners = json.loads((tmp_path / "out" / "truth.json").read_text())["box_owners"]
    frame = min(int(f) for f, boxes in owners.items() if len(boxes) == 2)
    edit_truth(tmp_path, lambda t: t["box_owners"][str(frame)].pop())
    rejected(tmp_path, capsys, command, cfg, f"frame {frame} box 1 has no recorded owner")


@pytest.mark.parametrize("command", ["match", "sweep"])
def test_two_sensor_files_with_one_stem_rejected(tmp_path, capsys, command):
    simulated(tmp_path)
    (tmp_path / "other").mkdir()
    (tmp_path / "other" / "p0-acc.csv").write_bytes((tmp_path / "out" / "sensors" / "p1-acc.csv").read_bytes())
    sensors = ["out/sensors/p0-acc.csv", "out/sensors/p1-acc.csv", "other/p0-acc.csv"]
    match = {"detections": MATCH["detections"], "sensors": sensors, "truth": MATCH["truth"]}
    cfg = write_cfg(tmp_path, match=match, name="twin.json")
    rejected(tmp_path, capsys, command, cfg, "sensor id 'p0-acc' given more than once")


def test_unknown_config_keys_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, scenario={**SCENARIO, "fpsx": 1})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "fpsx" in capsys.readouterr().err


def test_unknown_similarity_key_rejected(tmp_path, capsys):
    simulated(tmp_path)
    cfg = write_cfg(tmp_path, match={**MATCH, "similarity": {"bogus": 3}}, name="s.json")
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
    assert "bogus" in capsys.readouterr().err


def test_similarity_window_alias_accepted(tmp_path):
    simulated(tmp_path)
    cfg = write_cfg(
        tmp_path, match={**MATCH, "similarity": {"extreme_window": 8}}, name="w.json"
    )
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "res")]) == 0


def test_invalid_scenario_value_reported(tmp_path, capsys):
    bad = {**SCENARIO, "persons": [{"person_id": "p0", "stride_frequency": 9.0}]}
    cfg = write_cfg(tmp_path, scenario=bad)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "stride_frequency" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, message", [
    ({**SCENARIO, "seed": 1.5}, "scenario.seed must be an integer, got 1.5"),
    ({**SCENARIO, "persons": [{"person_id": "p0", "stride_frequency": "0.9"}]},
     'scenario.persons[0].stride_frequency must be a number, got "0.9"'),
], ids=["seed-float", "stride_frequency-string"])
def test_scenario_field_of_wrong_type_reported(tmp_path, capsys, scenario, message):
    cfg = write_cfg(tmp_path, scenario=scenario)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("path", [5, [[1, 2, 3]], [["a", 1]], [[50, 10**400], [590, 380]]],
                         ids=["number", "triple", "string", "int-beyond-float"])
def test_scenario_path_of_wrong_shape_reported(tmp_path, capsys, path):
    scenario = {**SCENARIO, "persons": [{"person_id": "p0", "stride_frequency": 0.9, "path": path}]}
    cfg = write_cfg(tmp_path, scenario=scenario)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: scenario.persons[0].path must be a list of [x, y] number pairs, "
        f"got {json.dumps(path)}"]


@pytest.mark.parametrize("similarity, message", [
    ({"extreme_window": 10.5}, "match.similarity.extreme_window must be an integer, got 10.5"),
    ({"d": 8, "extreme_window": 12},
     "match.similarity: give d or its alias extreme_window, not both"),
    ({"extreme_window": 1}, "match.similarity.extreme_window must be >= 2, got 1"),
], ids=["alias-float", "alias-and-d", "alias-below-range"])
def test_similarity_window_alias_errors_name_the_alias(tmp_path, capsys, similarity, message):
    simulated(tmp_path)
    capsys.readouterr()
    cfg = write_cfg(tmp_path, match={**MATCH, "similarity": similarity}, name="a.json")
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_unknown_match_key_rejected(tmp_path, capsys):
    simulated(tmp_path)
    cfg = write_cfg(tmp_path, match={**MATCH, "tsgate": 9}, name="k.json")
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: match: unknown keys ['tsgate']"


def test_invalid_match_value_reported(tmp_path, capsys):
    simulated(tmp_path)
    cfg = write_cfg(tmp_path, match={**MATCH, "fps": 0}, name="f.json")
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: match: fps must be finite and positive"


@pytest.mark.parametrize("key, value, kind", [
    ("detections", 5, "a string"),
    ("sensors", "out/sensors/p0-acc.csv", "a list of strings"),
    ("sensors_dir", 7, "a string"),
    ("truth", ["out/truth.json"], "a string"),
    ("tracer", 3, "an object"),
    ("filter", [10, 15.0], "an object"),
    ("similarity", 5, "an object"),
    ("ts_gate", True, "a number"),
    ("fps", True, "a number"),
    ("fps", "30", "a number"),
    ("ts_gate", math.nan, "a number"),
])
def test_match_value_of_wrong_json_type_reported(tmp_path, capsys, key, value, kind):
    simulated(tmp_path)
    capsys.readouterr()
    cfg = write_cfg(tmp_path, match={**MATCH, key: value}, name="t.json")
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: match.{key} must be {kind}, got {json.dumps(value)}"]


@pytest.mark.parametrize("command", ["match", "sweep"])
@pytest.mark.parametrize("key", ["fps", "ts_gate"])
def test_number_beyond_float_range_reported(tmp_path, capsys, command, key):
    """An integer that float() cannot hold is not a number: one error line, no traceback."""
    simulated(tmp_path)
    huge = 10**400
    cfg = write_cfg(tmp_path, match={**MATCH, key: huge}, name="h.json")
    rejected(tmp_path, capsys, command, cfg, f"match.{key} must be a number, got {huge}")


@pytest.mark.parametrize("match, message", [
    ({"tracer": {"max_gap": 15.5}}, "match.tracer.max_gap must be an integer, got 15.5"),
    ({"tracer": {"radius_factor": "0.1"}},
     'match.tracer.radius_factor must be a number, got "0.1"'),
    ({"similarity": {"d": 10.5}}, "match.similarity.d must be an integer, got 10.5"),
    ({"similarity": {"dif_window": 7.5}},
     "match.similarity.dif_window must be an integer or null, got 7.5"),
    ({"filter": {"order": 10.5}}, "match.filter.order must be an integer, got 10.5"),
    ({"filter": {"cutoff_hz": "15"}}, 'match.filter.cutoff_hz must be a number, got "15"'),
    ({"sensors": ["out/sensors/p0-acc.csv"]}, "match: give sensors or sensors_dir, not both"),
], ids=["max_gap-float",
        "radius_factor-string", "d-float", "dif_window-float", "order-float",
        "cutoff_hz-string", "sensors-and-sensors_dir"])
def test_match_section_field_of_wrong_type_reported(tmp_path, capsys, match, message):
    simulated(tmp_path)
    capsys.readouterr()
    cfg = write_cfg(tmp_path, match={**MATCH, **match}, name="t.json")
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_match_numeric_fields_take_ints_and_null_window(tmp_path):
    simulated(tmp_path)
    match = {**MATCH, "fps": 30, "ts_gate": 2, "tracer": {"radius_factor": 1},
             "filter": {"cutoff_hz": 15}, "similarity": {"dif_window": None}}
    cfg = write_cfg(tmp_path, match=match, name="ok.json")
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "res")]) == 0


def test_non_finite_acceleration_names_the_line(tmp_path, capsys):
    cfg = simulated(tmp_path)
    csv_path = tmp_path / "out" / "sensors" / "p0-acc.csv"
    lines = csv_path.read_text().splitlines()
    ts, _, ay, az = lines[499].split(",")
    lines[499] = ",".join([ts, "nan", ay, az])
    csv_path.write_text("\n".join(lines) + "\n")
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error:")
    assert "p0-acc.csv:500" in err


@pytest.mark.parametrize("field", ["cx", "cy", "w", "h"])
def test_non_finite_box_rejected_by_validation(tmp_path, capsys, field):
    cfg = simulated(tmp_path)
    det = tmp_path / "out" / "detections.jsonl"
    lines = det.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["boxes"][1][field] = float("inf") if field == "w" else float("nan")
    lines[3] = json.dumps(rec, separators=(",", ":"))
    det.write_text("\n".join(lines) + "\n")
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error:")
    assert "frame_index 3 box 1: cx, cy, w, h must be finite" in err


def test_missing_frame_index_is_skipped(tmp_path):
    scenario = {**SCENARIO, "duration": 20.0, "dropout_prob": 0.0}
    cfg = write_cfg(tmp_path, scenario=scenario)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    det = tmp_path / "out" / "detections.jsonl"
    lines = det.read_text().splitlines()
    assert json.loads(lines[100])["frame"] == 100
    del lines[100]
    det.write_text("\n".join(lines) + "\n")
    res = tmp_path / "res"
    assert main(["match", "--config", cfg, "--out", str(res)]) == 0
    records = [json.loads(l) for l in (res / "assignments.jsonl").read_text().splitlines()]
    frames = [r["frame"] for r in records if r["stage"] == "refined"]
    assert frames == [f for f in range(600) if f != 100]
    assert records[-1]["pairs"] == [["t0000", "p0-acc"], ["t0001", "p1-acc"]]
    assert json.loads((res / "summary.json").read_text())["r_cd"]["refined"] > 0.9
