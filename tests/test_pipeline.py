import hashlib
import math
import random
import re

import numpy as np
import pytest

from stridelink import pairing, pipeline
from stridelink.acc_features import step_features
from stridelink.fileio import write_assignments
from stridelink.model import BoundingBox, DetectionFrame, SensorStream
from stridelink.pairing import solve_matrix
from stridelink.pipeline import PipelineParams, _push_sighting, run_pipeline
from stridelink.similarity import ExtremeStream, SimilarityParams
from stridelink.simulator import PersonSpec, ScenarioConfig, generate

from conftest import fragmenting_scene, two_person_config
from helpers import oracle_frame_times, oracle_marks, oracle_pipeline, oracle_ratios, oracle_sim, oracle_tracks


def box_with_ratio(r):
    return BoundingBox(cx=100.0, cy=100.0, w=1.0, h=float(r))


def test_live_stream_fills_gaps_like_the_batch_path():
    entries = tuple(
        (f, box_with_ratio(r))
        for f, r in [(3, 2.0), (4, 2.6), (7, 1.7), (8, 2.2), (14, 2.9)]
    )
    batch = oracle_ratios([(f, b.ratio) for f, b in entries])

    stream = ExtremeStream(10, start_frame=3)
    pushed = []
    push = stream.push
    stream.push = lambda value: (pushed.append(value), push(value))
    for f, b in entries:
        _push_sighting(stream, f, b.ratio)
    assert len(stream) == len(batch)
    assert pushed == batch
    assert stream.marks == oracle_marks(batch, 10)[:len(batch) - stream.half]


def test_empty_input_yields_empty_run():
    run = run_pipeline([], [])
    assert run.frames == []
    assert run.traces == {}
    assert run.throughput_fps == 0.0


def test_frames_without_sensors_pair_nothing_and_keep_every_trace():
    data = fragmenting_scene()
    run = run_pipeline(data.frames, [])
    with_sensors = run_pipeline(data.frames, data.streams)
    assert [fr.frame_index for fr in run.frames] == [fr.frame_index for fr in data.frames]
    assert all(fr.raw.pairs == fr.refined.pairs == frozenset() for fr in run.frames)
    assert [fr.box_traces for fr in run.frames] == [fr.box_traces for fr in with_sensors.frames]
    assert run.traces == with_sensors.traces and len(run.traces) > 6


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

    def counted(self, through):
        calls.append(self)
        return advance(self, through)

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
    spans = [t.entries[-1][0] - t.entries[0][0] + 1 for t in run.traces.values()]
    assert sum(spans) > sum(len(t.entries) for t in run.traces.values())  # some gaps were filled
    assert len(pushes) == sum(spans)


def test_a_frame_never_sees_later_frames(monkeypatch):
    """Cutting the log after any frame leaves every earlier result and
    score as it was: the sensor row is built from the whole run up front,
    but a frame folds only what the frames through it finalize. Six
    walkers in 60 px boxes with dropouts fragment traces, so births and
    deaths are cut too."""
    data = fragmenting_scene()
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


@pytest.mark.parametrize("skipped", [False, True], ids=["every-frame", "skipped-indices"])
def test_raw_stage_solves_each_distinct_matrix_once(monkeypatch, skipped):
    """raw_pair runs once per frame on a matrix holding exactly the score
    rows the frame's gated traces give, and the raw stage solves once per
    distinct matrix object: a frame whose gated traces and score rows all
    stand as they were reuses last frame's matrix and its solve. Each
    frame's pairing equals a fresh solve, objective bit for bit."""
    data = fragmenting_scene()
    frames = [fr for fr in data.frames if not (skipped and fr.frame_index % 7 == 2)]
    score, raw_pair, solve = pipeline.PairScorer.score, pipeline.raw_pair, pairing._solve
    rows, matrices, raw_solves, in_raw = [], [], [], []

    def scored(self):
        rows.append(score(self))
        return rows[-1]

    def spy(matrix):
        assert matrix.values.tobytes() == np.array(rows, dtype=np.float64).tobytes()
        assert len(matrix.trace_ids) == len(rows)
        rows.clear()
        matrices.append(matrix)
        in_raw.append(True)
        try:
            return raw_pair(matrix)
        finally:
            in_raw.clear()

    def counted(*args):
        raw_solves.extend(in_raw)
        return solve(*args)

    monkeypatch.setattr(pipeline.PairScorer, "score", scored)
    monkeypatch.setattr(pipeline, "raw_pair", spy)
    monkeypatch.setattr(pairing, "_solve", counted)
    run = run_pipeline(frames, data.streams)
    assert len(matrices) == len(run.frames) == len(frames)
    for fr, matrix in zip(run.frames, matrices):
        fresh = solve_matrix(matrix.values, matrix.trace_ids, matrix.sensor_ids)
        assert fr.raw.pairs == fresh.pairs, fr.frame_index
        assert fr.raw.objective.hex() == fresh.objective.hex(), fr.frame_index
    distinct = len({id(m) for m in matrices})
    assert len(raw_solves) == distinct
    assert 30 < distinct < len(matrices) - 30
    if skipped:  # some matrix is reused across a skipped index
        assert any(a.raw is b.raw and b.frame_index - a.frame_index > 1
                   for a, b in zip(run.frames, run.frames[1:]) if a.raw.pairs)


def test_a_trace_mark_first_counts_at_frame_f_plus_half_plus_dif_d(monkeypatch):
    """Every score the pipeline pairs from follows the literal rule: on
    frame f, a gated trace scores the marks its own ratios have finalized
    at frames F with F + half + d <= f, against every sensor's marks."""
    data = fragmenting_scene()
    matrices = []
    raw_pair = pipeline.raw_pair

    def spy(matrix):
        matrices.append(matrix)
        return raw_pair(matrix)

    monkeypatch.setattr(pipeline, "raw_pair", spy)
    params = PipelineParams()
    run = run_pipeline(data.frames, data.streams, params)
    d = params.similarity.d
    half = (d + 1) // 2
    times = oracle_frame_times(data.frames)
    sensor_marks = {s.sensor_id: oracle_marks(step_features(s, times).tolist(), d) for s in data.streams}
    # A trace's marks through its last sighting s depend only on its
    # ratios through s, so one pass over all its sightings serves every f.
    traces = {}
    for tid, trace in run.traces.items():
        sightings = [(g, box.ratio) for g, box in trace.entries]
        traces[tid] = (sightings, oracle_marks(oracle_ratios(sightings), d))
    checked = set()
    for fr, matrix in zip(data.frames, matrices):
        f = fr.frame_index
        for tid, scores in zip(matrix.trace_ids, matrix.values.tolist()):
            sightings, marks = traces[tid]
            start = sightings[0][0]
            last = max(g for g, _ in sightings if g <= f)
            final = marks[:max(0, last - start + 1 - half)]
            folded = [m if start + x + half + d <= f else 0 for x, m in enumerate(final)]
            assert scores == [oracle_sim(folded, sensor_marks[s], d, start) for s in matrix.sensor_ids], (f, tid)
            checked.add((f, tid))
    assert len(checked) > 1000
    assert len({tid for _, tid in checked}) > 6


def oracle_scene(seed, crossing):
    """2-5 walkers over 60-300 frames with dropout and box jitter, about
    one frame index in twenty skipped, and walkers that enter late or
    leave early, so that traces are born late and die early; the gate and
    d vary too. Crossing walkers go from row k to row n - 1 - k, so every
    path passes the middle of the scene at the same time. Also returns
    the walker behind each shown (frame, box)."""
    rng = random.Random(seed)
    n_frames = rng.randint(60, 300)
    n = rng.randint(2, 5)
    rows = [60.0 + 100.0 * k for k in range(n)]
    persons = tuple(
        PersonSpec(f"p{k}", rng.uniform(0.6, 1.8), phase=rng.uniform(0.0, 6.0), box_height=rng.choice((60.0, 120.0)),
                   path=((50.0, rows[k]), (590.0, rows[n - 1 - k] if crossing else rows[k])))
        for k in range(n))
    data = generate(ScenarioConfig(persons=persons, duration=n_frames / 30.0, dropout_prob=0.1, seed=seed))
    # each walker is shown from the first frame or a later one, until a late frame or the end
    shown = {p.person_id: (rng.choice((0, rng.randint(1, n_frames // 3))), rng.randint(n_frames // 2, n_frames + 30))
             for p in persons}
    frames = [DetectionFrame(fr.frame_index, fr.timestamp, tuple(
                  box for box, owner in zip(fr.boxes, data.box_owners[fr.frame_index])
                  if shown[owner][0] <= fr.frame_index < shown[owner][1]))
              for fr in data.frames if rng.random() > 0.05]
    params = PipelineParams(ts_gate=rng.choice((1.0, 2.0)), similarity=SimilarityParams(d=rng.choice((7, 10))))
    owners = {(fr.frame_index, box): owner for fr in data.frames
              for box, owner in zip(fr.boxes, data.box_owners[fr.frame_index])}
    return frames, data.streams, params, owners


@pytest.mark.parametrize("seed", range(6))
def test_every_frame_matches_the_oracle_pipeline(seed):
    """Frame by frame, the streaming pipeline gives what the literal rules
    recomputed from scratch give: the tracer's boxes, and both stages'
    pairs and objectives, bit for bit. On odd seeds walkers cross, and
    some box lies within the radius of live traces last seen on two
    different walkers, so the tracer's order of candidates (distance,
    then older trace, then lower ordinal) decides which walker's trace
    takes it."""
    crossing = seed % 2 == 1
    frames, streams, params, owners = oracle_scene(seed, crossing)
    if crossing:
        contested = oracle_tracks(frames, params.tracer)[2]
        assert any(len({owners[last] for last in rivals}) > 1 for _, _, rivals in contested)
    run = run_pipeline(frames, streams, params)
    expected = oracle_pipeline(frames, streams, params)
    assert len(run.frames) == len(expected)
    for fr, (box_traces, raw, refined) in zip(run.frames, expected):
        got = (fr.box_traces, fr.raw.pairs, fr.raw.objective.hex(), fr.refined.pairs, fr.refined.objective.hex())
        assert got == (box_traces, raw[0], raw[1].hex(), refined[0], refined[1].hex()), fr.frame_index


def test_non_finite_sensor_feature_named_before_any_frame(monkeypatch):
    """A stream's samples and their magnitudes are finite, but the filter
    may still overflow on them."""
    data = generate(two_person_config(duration=300 / 30.0))
    stream = data.streams[1]
    samples = stream.samples.copy()
    samples[200:260:2, 2] = 1.7e308
    streams = [data.streams[0], SensorStream(stream.sensor_id, stream.ts_us, samples)]
    updates = []
    monkeypatch.setattr(pipeline.Tracker, "update", lambda self, frame: updates.append(frame))
    with pytest.raises(ValueError, match=rf"^sensor '{stream.sensor_id}': non-finite step feature nan at frame 61$"):
        run_pipeline(data.frames, streams)
    assert updates == []


def rejected_log(frames, message, monkeypatch):
    """run_pipeline refuses the log with `message` before it filters any
    sensor or traces any frame."""
    calls = []
    monkeypatch.setattr(pipeline, "step_features", lambda *args: calls.append(args))
    monkeypatch.setattr(pipeline.Tracker, "update", lambda self, frame: calls.append(frame))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_pipeline(frames, generate(two_person_config(duration=300 / 30.0)).streams)
    assert calls == []


def test_detection_timestamp_that_does_not_increase_rejected(monkeypatch):
    frames = list(generate(two_person_config(duration=300 / 30.0)).frames)
    assert [fr.frame_index for fr in frames[49:51]] == [49, 50]
    frames[50] = DetectionFrame(50, frames[49].timestamp, frames[50].boxes)
    ts = frames[49].timestamp
    rejected_log(frames, f"frame_index 50: timestamp {ts} does not increase past {ts}", monkeypatch)


@pytest.mark.parametrize("stamps", [(0, 10_000, 10_000, 30_000), (0, 10_000, 9_999, 30_000)],
                         ids=["repeated", "backwards"])
def test_detection_timestamp_that_does_not_increase_named_by_frame(stamps, monkeypatch):
    """The grid's interpolation has no meaning on timestamps that do not
    increase, so the first frame that breaks the rule is named."""
    frames = [DetectionFrame(f, ts) for f, ts in zip(range(4, 8), stamps)]
    rejected_log(frames, f"frame_index 6: timestamp {stamps[2]} does not increase past 10000", monkeypatch)


@pytest.mark.parametrize("index", [49, 48], ids=["repeated", "backwards"])
def test_frame_index_that_does_not_increase_named_by_frame(index, monkeypatch):
    frames = list(generate(two_person_config(duration=300 / 30.0)).frames)
    frames[50] = DetectionFrame(index, frames[50].timestamp, frames[50].boxes)
    rejected_log(frames, f"frame_index {index} at position 50 does not increase past 49", monkeypatch)


def test_negative_timestamp_rejected(monkeypatch):
    frames = list(generate(two_person_config(duration=300 / 30.0)).frames)
    frames[0] = DetectionFrame(0, -1, frames[0].boxes)
    rejected_log(frames, "frame_index 0: negative timestamp", monkeypatch)


@pytest.mark.parametrize("w, h, fault", [
    (-40.0, 80.0, "w <= 0"),
    (0.0, 80.0, "w <= 0"),
    (40.0, math.nan, "cx, cy, w, h must be finite"),
    (-math.inf, 0.0, "cx, cy, w, h must be finite"),
], ids=["negative-width", "zero-width", "nan-height", "all-three"])
def test_box_that_breaks_the_box_rule_named_by_frame_and_ordinal(w, h, fault, monkeypatch):
    """A negative width would be scored and a zero width would divide by
    zero: the pipeline applies the detection-log check's rule first and
    names the box's first fault."""
    frames = list(generate(two_person_config(duration=300 / 30.0)).frames)
    fr = frames[120]
    boxes = list(fr.boxes)
    boxes[1] = BoundingBox(boxes[1].cx, boxes[1].cy, w, h)
    frames[120] = DetectionFrame(fr.frame_index, fr.timestamp, boxes)
    rejected_log(frames, f"frame_index {fr.frame_index} box 1: {fault}", monkeypatch)


def test_skipped_frame_index_takes_interpolated_timestamp(monkeypatch):
    """The frame grid holds one time per index from the first to the
    last, an index the log skips at the time between its neighbours, and
    every sensor's features are sampled at exactly those times."""
    streams = generate(two_person_config(duration=1.0)).streams
    frames = [DetectionFrame(f, t) for f, t in [(5, 0), (6, 20_000), (8, 60_000), (9, 70_000)]]
    grids = []
    features = pipeline.step_features

    def spy(stream, frame_ts):
        grids.append(frame_ts.tolist())
        return features(stream, frame_ts)

    monkeypatch.setattr(pipeline, "step_features", spy)
    run_pipeline(frames, streams)
    assert grids == [[0.0, 20_000.0, 40_000.0, 60_000.0, 70_000.0]] * 2


def test_two_streams_with_one_sensor_id_rejected():
    data = generate(two_person_config(duration=5.0))
    first, second = data.streams
    twin = SensorStream(first.sensor_id, second.ts_us, second.samples)
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

# sha256 of assignments.jsonl for the fragmenting scene below, recorded
# while the refined stage still rebuilt its weights from a dict and
# solved on every frame.
FRAGMENT_SCENE_SHA256 = "e2d008f1fa2e7097eebcd445f036482eaa316e3655396f27ec544b5b635c8f62"


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


def test_fragment_scene_keeps_its_bytes(tmp_path):
    """Six walkers of the scaling layout in 60 px boxes with 2 px jitter,
    for 300 frames: traces fragment, and traces the refined stage pairs
    die, so their evidence retires while the stage holds them."""
    n = 6
    persons = tuple(
        PersonSpec(f"p{k}", 0.6 + 1.8 * k / n, phase=0.7 * k,
                   path=((50.0, 60.0 + 400.0 * k / n), (590.0, 60.0 + 400.0 * k / n)),
                   box_height=60.0)
        for k in range(n)
    )
    data = generate(ScenarioConfig(persons=persons, duration=300 / 30.0, box_noise=2.0, seed=1))
    run = run_pipeline(data.frames, data.streams)
    held = {t for fr in run.frames for t, _ in fr.refined.pairs}
    assert len(run.traces) > 4 * n
    assert len({t for t in held if not run.traces[t].active}) >= 5
    path = tmp_path / "assignments.jsonl"
    write_assignments(str(path), run)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FRAGMENT_SCENE_SHA256
