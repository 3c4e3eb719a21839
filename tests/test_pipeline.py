import hashlib
import math

import pytest

from stridelink import pipeline
from stridelink.fileio import write_assignments
from stridelink.model import BoundingBox, DetectionFrame, SensorStream
from stridelink.pipeline import PipelineParams, _push_sighting, run_pipeline
from stridelink.similarity import ExtremeStream
from stridelink.simulator import PersonSpec, ScenarioConfig, generate

from conftest import two_person_config
from helpers import oracle_marks, oracle_ratios


def box_with_ratio(r):
    return BoundingBox(cx=100.0, cy=100.0, w=1.0, h=float(r))


def test_live_stream_fills_gaps_like_the_batch_path():
    entries = tuple(
        (f, box_with_ratio(r))
        for f, r in [(3, 2.0), (4, 2.6), (7, 1.7), (8, 2.2), (14, 2.9)]
    )
    batch = oracle_ratios([(f, b.ratio) for f, b in entries])

    stream = ExtremeStream(10, start_frame=3)
    for f, b in entries:
        _push_sighting(stream, f, b.ratio)
    assert len(stream) == len(batch)
    stream.flush()
    assert stream.marks == oracle_marks(batch, 10)


def test_empty_input_yields_empty_run():
    run = run_pipeline([], [])
    assert run.frames == []
    assert run.traces == {}
    assert run.throughput_fps == 0.0


def test_no_pair_claimed_before_the_length_gate():
    data = generate(two_person_config(duration=10.0, dropout_prob=0.0))
    run = run_pipeline(data.frames, data.streams, PipelineParams(ts_gate=2.0))
    # 2 s at 30 fps: the 60th frame (index 59) is the first scoreable one
    for fr in run.frames:
        if fr.frame_index < 59:
            assert fr.raw.pairs == frozenset()
            assert fr.refined.pairs == frozenset()
    assert run.frames[59].raw.pairs != frozenset()


def test_runs_are_deterministic():
    data = generate(two_person_config(duration=8.0))
    a = run_pipeline(data.frames, data.streams)
    b = run_pipeline(data.frames, data.streams)
    assert a.frames == b.frames
    assert a.traces == b.traces


def test_both_walkers_identified_at_the_end():
    data = generate(two_person_config(f0=0.9, f1=1.3, duration=20.0, dropout_prob=0.0))
    run = run_pipeline(data.frames, data.streams)
    assert set(run.traces) == {"t0000", "t0001"}
    final = run.frames[-1].refined
    assert final.pairs == {("t0000", "p0-acc"), ("t0001", "p1-acc")}


def test_dead_trace_stops_claiming_its_sensor():
    data = generate(two_person_config(f0=0.9, f1=1.3, duration=500 / 30.0, dropout_prob=0.0))
    frames = []
    for fr in data.frames:
        if fr.frame_index < 250:
            frames.append(fr)
            continue
        kept = [
            b
            for b, owner in zip(fr.boxes, data.box_owners[fr.frame_index])
            if owner == "p1"
        ]
        frames.append(DetectionFrame(fr.frame_index, fr.timestamp, kept))
    run = run_pipeline(frames, data.streams)
    assert run.traces["t0000"].active is False
    for fr in run.frames:
        if fr.frame_index >= 270:  # past the tracer's termination lag
            claimed = {t for t, _ in fr.raw.pairs} | {t for t, _ in fr.refined.pairs}
            assert "t0000" not in claimed
    assert run.frames[-1].refined.pairs == {("t0001", "p1-acc")}


def test_raw_stage_matches_truth_mid_run(separable_data, separable_run):
    from stridelink.evaluation import derive_trace_truth

    owners = derive_trace_truth(
        {fr.frame_index: fr.box_traces for fr in separable_run.frames},
        separable_data.box_owners,
    )
    raw = separable_run.frames[300].raw
    assert len(raw.pairs) == 3
    for trace_id, sensor_id in raw.pairs:
        assert owners[trace_id] == separable_data.sensor_owners[sensor_id]


def test_throughput_reflects_frame_count(separable_run):
    assert separable_run.throughput_fps > 0
    assert separable_run.throughput_fps == pytest.approx(
        len(separable_run.frames) / separable_run.elapsed_s
    )


def test_one_advance_per_gated_trace_per_frame(monkeypatch):
    """The scorer serves a trace's whole row of sensors: one advance per
    gated live trace per frame, not one per (trace, sensor) pair."""
    persons = tuple(
        PersonSpec(f"p{k}", 0.8 + 0.2 * k, phase=0.7 * k,
                   path=((50.0, 60.0 + 100.0 * k), (590.0, 60.0 + 100.0 * k)))
        for k in range(4)
    )
    data = generate(ScenarioConfig(persons=persons, duration=8.0, seed=3))
    calls = []
    rows = []
    advance = pipeline.PairScorer.advance
    raw_pair = pipeline.raw_pair

    def counted(self):
        calls.append(self)
        return advance(self)

    def spy(matrix):
        traces = {t for t, _ in matrix.scores}
        assert set(matrix.scores) == {(t, s.sensor_id) for t in traces for s in data.streams}
        rows.append(len(traces))
        return raw_pair(matrix)

    monkeypatch.setattr(pipeline.PairScorer, "advance", counted)
    monkeypatch.setattr(pipeline, "raw_pair", spy)
    run_pipeline(data.frames, data.streams)
    assert sum(rows) > 0
    assert len(calls) == sum(rows)


def test_sensor_values_never_pushed_one_at_a_time(monkeypatch):
    """Only trace ratios go through ExtremeStream.push: one per frame from
    each trace's first sighting to its last, gap fills included. The
    sensors' step features are marked as one block."""
    data = generate(two_person_config(duration=300 / 30.0, dropout_prob=0.1))
    pushes = []
    push = pipeline.ExtremeStream.push

    def counted(self, value):
        pushes.append(value)
        return push(self, value)

    monkeypatch.setattr(pipeline.ExtremeStream, "push", counted)
    run = run_pipeline(data.frames, data.streams)
    spans = [t.entries[-1][0] - t.start_frame + 1 for t in run.traces.values()]
    assert sum(spans) > sum(len(t.entries) for t in run.traces.values())  # some gaps were filled
    assert len(pushes) == sum(spans)


def test_a_frame_never_sees_later_frames(monkeypatch):
    """Cutting the log after any frame leaves every earlier result and
    score as it was: the sensor row is built from the whole run up front,
    but a frame folds only what the frames through it finalize. Six
    walkers in 60 px boxes with dropouts fragment traces, so births and
    deaths are cut too."""
    persons = tuple(
        PersonSpec(f"p{k}", 0.6 + 0.3 * k, phase=0.7 * k, box_height=60.0,
                   path=((50.0, 60.0 + 70.0 * k), (590.0, 60.0 + 70.0 * k)))
        for k in range(6)
    )
    data = generate(ScenarioConfig(persons=persons, duration=240 / 30.0, dropout_prob=0.1, seed=5))
    scores = []
    raw_pair = pipeline.raw_pair

    def spy(matrix):
        scores.append((matrix.trace_ids, matrix.values.tolist()))
        return raw_pair(matrix)

    monkeypatch.setattr(pipeline, "raw_pair", spy)
    params = PipelineParams()
    full = run_pipeline(data.frames, data.streams, params).frames
    full_scores = list(scores)
    assert len(full) == len(data.frames) == 240
    assert any(fr.raw.pairs for fr in full)
    half = (params.similarity.d + 1) // 2
    gate = int(params.ts_gate * params.fps)
    cuts = {1, half - 1, half, half + 1, gate - 1, gate, gate + 1, gate + half, *range(gate, 241, 7), 240}
    for k in sorted(cuts):
        scores.clear()
        assert run_pipeline(data.frames[:k], data.streams, params).frames == full[:k], k
        assert scores == full_scores[:k], k


def test_non_finite_sensor_feature_named_before_any_frame(monkeypatch):
    data = generate(two_person_config(duration=300 / 30.0))
    stream = data.streams[1]
    samples = stream.samples.copy()
    samples[200, 1] = math.nan
    streams = [data.streams[0], SensorStream(stream.sensor_id, stream.ts_us, samples, stream.nominal_rate)]
    updates = []
    monkeypatch.setattr(pipeline.Tracker, "update", lambda self, frame: updates.append(frame))
    with pytest.raises(ValueError, match=rf"sensor '{stream.sensor_id}': non-finite step feature nan at frame 60$"):
        run_pipeline(data.frames, streams)
    assert updates == []


def test_two_streams_with_one_sensor_id_rejected():
    data = generate(two_person_config(duration=5.0))
    first, second = data.streams
    twin = SensorStream(first.sensor_id, second.ts_us, second.samples, second.nominal_rate)
    with pytest.raises(ValueError, match=f"sensor id '{first.sensor_id}' given more than once"):
        run_pipeline(data.frames, [first, twin])


def test_params_validated():
    with pytest.raises(ValueError):
        PipelineParams(fps=0.0)
    with pytest.raises(ValueError):
        PipelineParams(ts_gate=-1.0)


@pytest.mark.parametrize("field", ["fps", "ts_gate"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_params_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        PipelineParams(**{field: value})


# sha256 of assignments.jsonl for the scene below. It was recorded with a
# pure-Python Hungarian solver in place of SciPy's: the canonical pairs must
# not depend on which optimum the solver finds first.
TIED_SCENE_SHA256 = "076b85da6d0fed6ba4c8f8e9537a7ac44c10607192570d5168bdaa74a641cdb6"

# sha256 of assignments.jsonl for 12 walkers in the scaling layout below,
# recorded while each sensor value was still pushed and marked on its own.
SCALING_SCENE_SHA256 = "a3283ea8fa44b58715c37dce0e5197befbe6b060538ab95717759cf2dbc168ca"


def test_tied_scene_keeps_its_canonical_pairs(tmp_path):
    """Eight walkers with one gait give 8 x 8 matrices full of tied weights,
    larger than the enumeration tests reach; in about a third of the
    solves SciPy's first optimum is not the canonical one."""
    rows_y = [40.0 + 400.0 * k / 7 for k in range(8)]
    persons = tuple(
        PersonSpec(f"p{k}", 1.0, phase=0.0, path=((50.0, y), (590.0, y)))
        for k, y in enumerate(rows_y)
    )
    data = generate(ScenarioConfig(persons=persons, duration=300 / 30.0, seed=1))
    path = tmp_path / "assignments.jsonl"
    write_assignments(str(path), run_pipeline(data.frames, data.streams))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TIED_SCENE_SHA256


def test_scaling_scene_keeps_its_bytes(tmp_path):
    """Twelve walkers, walker k striding at 0.6 + 1.8k/12 Hz with phase
    0.7k on its own row at y = 60 + 400k/12, for 400 frames."""
    n = 12
    persons = tuple(
        PersonSpec(f"p{k:02d}", 0.6 + 1.8 * k / n, phase=0.7 * k,
                   path=((50.0, 60.0 + 400.0 * k / n), (590.0, 60.0 + 400.0 * k / n)))
        for k in range(n)
    )
    data = generate(ScenarioConfig(persons=persons, duration=400 / 30.0, seed=1))
    path = tmp_path / "assignments.jsonl"
    write_assignments(str(path), run_pipeline(data.frames, data.streams))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCALING_SCENE_SHA256
