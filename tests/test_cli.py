import copy
import json
import math
import re
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import pytest

from stridelink import cli, evaluation, fileio
from stridelink.cli import main
from stridelink.pipeline import PipelineParams
from stridelink.similarity import SimilarityParams
from stridelink.simulator import PersonSpec, ScenarioConfig
from stridelink.tracer import TracerParams

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


def dataclasses_in(hint):
    """The dataclasses a resolved annotation names, at any depth."""
    return [hint] if is_dataclass(hint) else [cls for arg in get_args(hint) for cls in dataclasses_in(arg)]


def config_classes():
    """PipelineParams, ScenarioConfig and every dataclass their fields
    reach, each with the names of its fields that hold such a class."""
    found = {}
    todo = [PipelineParams, ScenarioConfig]
    while todo:
        cls = todo.pop()
        if cls not in found:
            hints = get_type_hints(cls)
            found[cls] = {name for name, hint in hints.items() if dataclasses_in(hint)}
            todo += [nested for hint in hints.values() for nested in dataclasses_in(hint)]
    return found


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
    assert rows[0] == "ts_seconds,stage,r_cd"
    assert len(rows) == 5  # 2 gates x 2 stages
    assert (res / "sweep.txt").exists()
    assert "TS(s)" in capsys.readouterr().out


def test_sweep_rates_equal_match_rates(tmp_path):
    cfg = simulated(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep"), "--ts", "1,2"]) == 0
    rows = [r.split(",") for r in (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]]
    for ts in ("1", "2"):
        res = tmp_path / f"match{ts}"
        assert main(["match", "--config", cfg, "--out", str(res), "--ts", ts]) == 0
        r_cd = json.loads((res / "summary.json").read_text())["r_cd"]
        assert [(stage, rate) for gate, stage, rate in rows if float(gate) == float(ts)] == [
            (stage, f"{r_cd[stage]:.4f}") for stage in ("raw", "refined")]


def test_gate_longer_than_the_log_gives_undefined_rates(tmp_path):
    cfg = simulated(tmp_path)  # 8 s of walking: no pair covers the gate
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "m"), "--ts", "999"]) == 0
    assert json.loads((tmp_path / "m" / "summary.json").read_text())["r_cd"] == {"raw": None, "refined": None}
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--ts", "999"]) == 0
    assert (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1:] == ["999.0,raw,nan", "999.0,refined,nan"]


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
    box = rec["boxes"][0]
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {det}:1: boxes[0]: cx, cy must be finite and w, h finite and positive, "
        f"got {(box['cx'], box['cy'], box['w'], -5.0)}")


def test_log_out_of_order_refused_naming_its_line_before_any_sensor_is_read(tmp_path, capsys):
    """The reader refuses the log: match.sensors names a file that does not
    exist, so reading a sensor first would give another error."""
    simulated(tmp_path)
    det = tmp_path / "out" / "detections.jsonl"
    lines = det.read_text().splitlines()
    rec = json.loads(lines[50])
    assert (json.loads(lines[49])["frame"], rec["frame"]) == (49, 50)
    rec["frame"] = 49
    lines[50] = json.dumps(rec, separators=(",", ":"))
    det.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path, match={"detections": "out/detections.jsonl", "sensors": ["nope.csv"]}, name="o.json")
    rejected(tmp_path, capsys, "match", cfg, f"{det}:51: frame_index 49 does not increase past 49")


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
def test_truth_of_wrong_json_type_rejected(tmp_path, capsys, command):
    cfg = simulated(tmp_path)
    edit_truth(tmp_path, lambda t: t.update(box_owners=[["p0", "p1"]]))
    path = tmp_path / "out" / "truth.json"
    rejected(tmp_path, capsys, command, cfg, f"{path}: box_owners must be an object, got a list")


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


def test_scenario_without_persons_refused_by_its_record(tmp_path, capsys):
    cfg = write_cfg(tmp_path, scenario={**SCENARIO, "persons": []})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: scenario: at least one person required"]


def test_invalid_scenario_value_reported(tmp_path, capsys):
    bad = {**SCENARIO, "persons": [{"person_id": "p0", "stride_frequency": 9.0}]}
    cfg = write_cfg(tmp_path, scenario=bad)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "stride_frequency" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, message", [
    ({**SCENARIO, "seed": 1.5}, "scenario.seed must be an integer, got 1.5"),
    ({**SCENARIO, "persons": [{"person_id": "p0", "stride_frequency": "0.9"}]},
     'scenario.persons[0].stride_frequency must be a number, got "0.9"'),
    ({**SCENARIO, "persons": [{"person_id": ["p0"], "stride_frequency": 0.9}]},
     'scenario.persons[0].person_id must be a string, got ["p0"]'),
    ({**SCENARIO, "persons": [{"person_id": "p0", "stride_frequency": 0.9, "sensor_id": "7"},
                              {"person_id": "p1", "stride_frequency": 1.3, "sensor_id": 7}]},
     "scenario.persons[1].sensor_id must be a string or null, got 7"),
    ({**SCENARIO, "persons": [{"person_id": None, "stride_frequency": 0.9}]},
     "scenario.persons[0].person_id must be a string, got null"),
], ids=["seed-float", "stride_frequency-string", "person_id-list", "sensor_id-int", "person_id-null"])
def test_scenario_field_of_wrong_type_reported(tmp_path, capsys, scenario, message):
    cfg = write_cfg(tmp_path, scenario=scenario)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("person, sensor", [
    ({"sensor_id": ""}, ""),
    ({"sensor_id": ".hidden"}, ".hidden"),
    ({"sensor_id": "x/y"}, "x/y"),
    ({"person_id": "a/b"}, "a/b-acc"),
], ids=["empty", "dot-file", "separator", "person_id-with-separator"])
def test_sensor_id_that_cannot_name_its_file_rejected(tmp_path, capsys, person, sensor):
    """simulate writes sensors/<id>.csv, and match's *.csv glob skips dot files."""
    persons = [{"person_id": "p0", "stride_frequency": 0.9, **person}]
    cfg = write_cfg(tmp_path, scenario={**SCENARIO, "persons": persons})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f'error: scenario.persons[0]: sensor id {json.dumps(sensor)} cannot name a file: '
        "it must be non-empty, not start with '.' and hold no path separator"]
    assert not (tmp_path / "out").exists()


def test_every_config_field_has_a_kind():
    """No config field passes unchecked: each annotation names a kind in the table."""
    annotations = [f.type for cls, sections in config_classes().items() for f in fields(cls)
                   if f.name not in sections]
    for annotation in annotations + list(cli.MATCH_KEYS.values()):
        assert annotation.removesuffix(" | None") in cli._KINDS, annotation


# Where each config class sits in a config file, and the fields it needs to be built.
CONFIG_PLACES = {
    ScenarioConfig: (("scenario",), {"persons": (PersonSpec("p0", 0.9),)}),
    PersonSpec: (("scenario", "persons", 0), {"person_id": "p0", "stride_frequency": 0.9}),
    PipelineParams: (("match",), {}),
    TracerParams: (("match", "tracer"), {}),
    SimilarityParams: (("match", "similarity"), {}),
}


def non_finite_cases():
    """(class, field, value): one number NaN or infinite, for every float
    field of every config class and each coordinate of a path."""
    cases = []
    for cls in config_classes():
        for f in fields(cls):
            for bad in (math.nan, math.inf, -math.inf):
                if f.type == "float":
                    cases.append(pytest.param(cls, f.name, bad, id=f"{cls.__name__}.{f.name}-{bad}"))
                elif f.type == "tuple[tuple[float, float], ...]":
                    cases += [pytest.param(cls, f.name, ((50.0, 380.0), point),
                                           id=f"{cls.__name__}.{f.name}[1][{k}]-{bad}")
                              for k, point in enumerate([(bad, 380.0), (590.0, bad)])]
                else:
                    assert "float" not in f.type, f"no non-finite case for {cls.__name__}.{f.name}"
    return cases


def test_every_config_class_has_a_place():
    assert set(CONFIG_PLACES) == set(config_classes())


@pytest.mark.parametrize("cls, name, value", non_finite_cases())
def test_non_finite_config_number_refused_by_its_record(tmp_path, capsys, cls, name, value):
    """cli checks only the JSON kind, so NaN and inf, which json reads from
    NaN and Infinity tokens, are each refused by the record that holds them."""
    place, required = CONFIG_PLACES[cls]
    with pytest.raises(ValueError, match=name):
        cls(**{**required, name: value})
    cfg = copy.deepcopy({"scenario": SCENARIO, "match": MATCH})
    section = cfg
    for key in place:
        section = section[key] if isinstance(key, int) else section.setdefault(key, {})
    section[name] = value
    path = write_cfg(tmp_path, scenario=cfg["scenario"], match=cfg["match"])
    assert main([{"scenario": "simulate", "match": "match"}[place[0]], "--config", path,
                 "--out", str(tmp_path / "out")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and name in line


@pytest.mark.parametrize("path", [5, [[1, 2, 3]], [["a", 1]], [[50, 10**400], [590, 380]]],
                         ids=["number", "triple", "string", "int-beyond-float"])
def test_scenario_path_of_wrong_shape_reported(tmp_path, capsys, path):
    scenario = {**SCENARIO, "persons": [{"person_id": "p0", "stride_frequency": 0.9, "path": path}]}
    cfg = write_cfg(tmp_path, scenario=scenario)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: scenario.persons[0].path must be a list of [x, y] number pairs, "
        f"got {json.dumps(path)}"]


@pytest.mark.parametrize("key, value", [
    ("extreme_window", 10), ("dif_window", 10), ("no_match_penalty_factor", 1.5), ("zero_denominator_floor", 0.5),
])
def test_similarity_keys_beyond_the_window_rejected(tmp_path, capsys, monkeypatch, key, value):
    """The similarity section holds the one window d; a second name for it
    or another similarity knob is an unknown key, named before any input
    file is read."""
    reads = []
    monkeypatch.setattr(fileio, "read_detections", lambda *args: reads.append(args))
    match = {**MATCH, "similarity": {"d": 10, key: value}}
    cfg = write_cfg(tmp_path, scenario=None, match=match)
    rejected(tmp_path, capsys, "match", cfg, f"match.similarity: unknown keys [{key!r}]")
    assert reads == []


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
    ("similarity", 5, "an object"),
    ("ts_gate", True, "a number"),
    ("fps", True, "a number"),
    ("fps", "30", "a number"),
    ("ts_gate", math.nan, "a number"),
])
def test_match_value_of_wrong_json_type_reported(tmp_path, capsys, key, value, kind):
    """NaN is of the JSON kind "a number", so its record, not the kind, refuses it."""
    simulated(tmp_path)
    capsys.readouterr()
    cfg = write_cfg(tmp_path, match={**MATCH, key: value}, name="t.json")
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
    err = capsys.readouterr().err.splitlines()
    refused_by_kind = value == value
    assert err == [f"error: match.{key} must be {kind}, got {json.dumps(value)}" if refused_by_kind
                   else f"error: match: {key} must be finite and positive"]


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
    ({"sensors": ["out/sensors/p0-acc.csv"]}, "match: give sensors or sensors_dir, not both"),
], ids=["max_gap-float", "radius_factor-string", "d-float", "sensors-and-sensors_dir"])
def test_match_section_field_of_wrong_type_reported(tmp_path, capsys, match, message):
    simulated(tmp_path)
    capsys.readouterr()
    cfg = write_cfg(tmp_path, match={**MATCH, **match}, name="t.json")
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command", ["match", "sweep"])
def test_config_checked_before_any_input_file_is_read(tmp_path, capsys, monkeypatch, command):
    reads = []
    monkeypatch.setattr(fileio, "read_detections", lambda *args: reads.append(args))
    match = {"detections": "missing/detections.jsonl", "sensors_dir": "missing", "truth": "missing/truth.json",
             "similarity": {"d": 10.5}}
    cfg = write_cfg(tmp_path, scenario=None, match=match)
    rejected(tmp_path, capsys, command, cfg, "match.similarity.d must be an integer, got 10.5")
    assert reads == []


@pytest.mark.parametrize("command", ["match", "sweep"])
@pytest.mark.parametrize("given, message", [
    ({"filter": {"order": 10, "cutoff_hz": 15.0}}, "match: unknown keys ['filter']"),
    ({"tracer": {"radius_factor": -1}}, "match.tracer: radius_factor must be finite and > 0, got -1.0"),
    ({"tracer": {"max_gap": -1}}, "match.tracer: max_gap must be >= 1, got -1"),
    ({"tracer": {"max_gap": 0}}, "match.tracer: max_gap must be >= 1, got 0"),
], ids=["filter", "radius_factor-negative", "max_gap-negative", "max_gap-zero"])
def test_filter_key_and_out_of_range_tracer_rejected_before_any_input_is_read(
        tmp_path, capsys, monkeypatch, command, given, message):
    """The step filter is one fixed design with no config, and a tracer
    value it cannot track with is named; neither is scored silently."""
    reads = []
    monkeypatch.setattr(fileio, "read_detections", lambda *args: reads.append(args))
    match = {"detections": "missing/detections.jsonl", "sensors_dir": "missing", "truth": "missing/truth.json",
             **given}
    cfg = write_cfg(tmp_path, scenario=None, match=match)
    rejected(tmp_path, capsys, command, cfg, message)
    assert reads == []


def test_sweep_truth_checked_before_any_input_file_is_read(tmp_path, capsys, monkeypatch):
    reads = []
    monkeypatch.setattr(fileio, "read_detections", lambda *args: reads.append(args))
    cfg = write_cfg(tmp_path, scenario=None, match={"detections": "missing/detections.jsonl", "sensors_dir": "missing"})
    rejected(tmp_path, capsys, "sweep", cfg, "sweep needs ground truth: set match.truth")
    assert reads == []


@pytest.mark.parametrize("command, ts, message", [
    ("match", "-1", "--ts must be finite and positive"),
    ("sweep", "0,1", "--ts gates must be finite and positive"),
], ids=["match", "sweep"])
def test_gate_option_checked_before_any_input_file_is_read(tmp_path, capsys, command, ts, message):
    cfg = write_cfg(tmp_path, scenario=None, match={**MATCH, "detections": "missing/detections.jsonl"})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "res"), f"--ts={ts}"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_readme_examples_run(tmp_path, capsys):
    """The README's config simulates and matches, and its library example runs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (config,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    (library,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    assert main(["match", "--config", str(cfg), "--out", str(tmp_path / "results")]) == 0
    r_cd = json.loads((tmp_path / "results" / "summary.json").read_text())["r_cd"]
    assert set(r_cd) == {"raw", "refined"} and all(isinstance(r, float) for r in r_cd.values())
    exec(compile(library, "README.md", "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0


def test_readme_names_every_integer_field():
    """The README's list of integer config fields is the set of config
    fields annotated int."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (listed,) = re.findall(r"An integer field\s+\(([^)]*)\)", readme)
    integer = {f.name for cls in config_classes() for f in fields(cls) if f.type.removesuffix(" | None") == "int"}
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(integer)


def test_match_numeric_fields_take_ints_and_null_window(tmp_path):
    simulated(tmp_path)
    match = {**MATCH, "fps": 30, "ts_gate": 2, "tracer": {"radius_factor": 1},
             "similarity": {"d": 10}}
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
    box = rec["boxes"][1]
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {det}:4: boxes[1]: cx, cy must be finite and w, h finite and positive, "
        f"got {(box['cx'], box['cy'], box['w'], box['h'])}")


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
