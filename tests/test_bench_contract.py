"""The benchmark against the package. In the traced run `bench/layers.py`
wraps names that `stridelink.pipeline` looks up, and `bench/checks.py`
reads what the wrappers record; the untimed session (`bench/session.py`)
reads files, matches, writes and evaluates through the public library
and checks the outputs. A renamed layer, a lost `counts` or `scores`, or
a tally that disagrees with the checks' own majority vote fails here
rather than in a benchmark session."""

import hashlib
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

from stridelink import fileio
from stridelink.evaluation import STAGES
from stridelink.pipeline import PipelineParams, run_pipeline
from stridelink.simulator import generate

from conftest import SEPARABLE, two_person_config
from helpers import oracle_assignment_lines

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_passes_the_benchmark_checks():
    layers, checks = load_bench("layers"), load_bench("checks")
    data = generate(replace(SEPARABLE, duration=8.0))
    params = PipelineParams(ts_gate=1.0)
    with layers.traced() as trace:
        trace.start()
        run = run_pipeline(data.frames, data.streams, params)
        trace.stop()
    assert trace.silent_layers() == []
    assert any(fr.refined.pairs for fr in run.frames)
    assert checks.objective_failures(run, trace) == set()
    sensor_ids = {s.sensor_id for s in data.streams}
    assert checks.frame_failures(data.frames, sensor_ids, run, params) == set()


def test_untimed_session_passes_its_checks(tmp_path, monkeypatch):
    data = generate(two_person_config(duration=20.0))
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    (inputs / "sensors").mkdir(parents=True)
    out.mkdir()
    fileio.write_detections(str(inputs / "detections.jsonl"), data.frames)
    for stream in data.streams:
        fileio.write_sensor_csv(str(inputs / "sensors" / f"{stream.sensor_id}.csv"), stream)
    fileio.write_truth(str(inputs / "truth.json"), data.sensor_owners, data.box_owners)
    meta = {"walkers": 2, "expect": "identify"}
    (inputs / "meta.json").write_text(json.dumps(meta))
    monkeypatch.syspath_prepend(str(BENCH))  # session.py imports checks and layers
    session = load_bench("session")
    work = session.replay(str(inputs), str(out), trace=False)
    record = session.assess(work, str(inputs), str(out))
    assert record["problems"] == []
    assert record["failed_frames"] == 0
    assert record["frames"] == len(data.frames)
    oracle = "".join(oracle_assignment_lines(work["run"], STAGES)).encode("utf-8")
    assert record["digest"] == hashlib.sha256(oracle).hexdigest()
