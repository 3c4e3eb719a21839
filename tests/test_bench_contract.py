"""The benchmark's traced run against the package: `bench/layers.py`
wraps names that `stridelink.pipeline` looks up, and `bench/checks.py`
reads what the wrappers record. A renamed layer or a lost `counts` or
`scores` fails here rather than in a benchmark session."""

import importlib.util
from dataclasses import replace
from pathlib import Path

from stridelink.pipeline import PipelineParams, run_pipeline
from stridelink.simulator import generate

from conftest import SEPARABLE

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
