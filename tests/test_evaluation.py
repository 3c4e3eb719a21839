import math
import random

import pytest

from stridelink.evaluation import (
    STAGES,
    EvalCounters,
    UndefinedRate,
    UnknownId,
    accumulate,
    derive_trace_truth,
    evaluate_run,
    ts_sweep,
)
from stridelink.model import GroundTruth
from stridelink.pairing import Assignment
from stridelink.pipeline import FrameResult, MatchRun, run_pipeline
from stridelink.simulator import generate

from conftest import fragmenting_scene, two_person_config

TRUTH = GroundTruth(
    trace_to_person={"tA": "p0", "tB": "p1"},
    sensor_to_person={"s0": "p0", "s1": "p1"},
)


def pairing(*pairs):
    return Assignment(frozenset(pairs), float(len(pairs)))


# counters


def test_rate_undefined_without_claims():
    with pytest.raises(UndefinedRate):
        EvalCounters().r_cd()


def test_rate_pools_across_persons():
    c = EvalCounters(n_id={"p0": 60, "p1": 40}, n_cd={"p0": 55, "p1": 21})
    assert c.r_cd() == 0.76
    assert c.total_id == 100
    assert c.total_cd == 76


def test_correct_pair_counts_both_tallies():
    c = accumulate(EvalCounters(), pairing(("tA", "s0"), ("tB", "s1")), TRUTH)
    assert c.n_id == {"p0": 1, "p1": 1}
    assert c.n_cd == {"p0": 1, "p1": 1}


def test_swapped_pair_claims_without_correctness():
    c = accumulate(EvalCounters(), pairing(("tA", "s1"), ("tB", "s0")), TRUTH)
    assert c.total_id == 2
    assert c.n_cd == {}
    assert c.r_cd() == 0.0


def test_unpaired_frames_count_nowhere():
    c = accumulate(EvalCounters(), pairing(), TRUTH)
    assert c.total_id == 0


def test_multiplicity_folds_a_pairing_as_that_many_frames():
    for a in (pairing(("tA", "s0"), ("tB", "s1")), pairing(("tA", "s1"), ("tB", "s0"))):
        per_frame = EvalCounters()
        for _ in range(3):
            accumulate(per_frame, a, TRUTH)
        assert accumulate(EvalCounters(), a, TRUTH, 3) == per_frame


def test_unknown_ids_rejected():
    with pytest.raises(UnknownId):
        accumulate(EvalCounters(), pairing(("tA", "ghost")), TRUTH)
    with pytest.raises(UnknownId):
        accumulate(EvalCounters(), pairing(("ghost", "s0")), TRUTH)


# trace truth derivation


def test_trace_owner_by_majority():
    traces = {0: {0: "t"}, 1: {0: "t"}, 2: {0: "t"}}
    owners = {0: ("p1",), 1: ("p1",), 2: ("p0",)}
    assert derive_trace_truth(traces, owners) == {"t": "p1"}


def test_trace_owner_tie_breaks_to_smallest():
    traces = {f: {0: "t"} for f in range(4)}
    owners = {0: ("p1",), 1: ("p1",), 2: ("p0",), 3: ("p0",)}
    assert derive_trace_truth(traces, owners) == {"t": "p0"}


def test_trace_truth_tracks_boxes_not_ordinals():
    traces = {0: {0: "tA", 1: "tB"}, 1: {1: "tA", 0: "tB"}}
    owners = {0: ("p0", "p1"), 1: ("p1", "p0")}
    assert derive_trace_truth(traces, owners) == {"tA": "p0", "tB": "p1"}


def test_box_without_recorded_owner_rejected():
    with pytest.raises(UnknownId):
        derive_trace_truth({0: {2: "t"}}, {0: ("p0",)})


# run evaluation


def _mixed_run():
    correct = pairing(("tA", "s0"), ("tB", "s1"))
    swapped = pairing(("tA", "s1"), ("tB", "s0"))
    frames = [
        FrameResult(f, {0: "tA", 1: "tB"}, correct if f < 7 else swapped, correct)
        for f in range(10)
    ]
    owners = {f: ("p0", "p1") for f in range(10)}
    return MatchRun(frames, {}, 0.0), owners


def test_evaluate_run_tallies_both_stages():
    run, owners = _mixed_run()
    evals = evaluate_run(run, {"s0": "p0", "s1": "p1"}, owners)
    assert set(evals) == set(STAGES)
    assert evals["raw"].r_cd() == 0.7
    assert evals["refined"].r_cd() == 1.0


def test_evaluate_run_rejects_unknown_stage():
    run, owners = _mixed_run()
    with pytest.raises(ValueError):
        evaluate_run(run, {"s0": "p0", "s1": "p1"}, owners, stages=("polished",))


def per_frame_fold(run, sensor_owners, box_owners, stage):
    """The tally as one `accumulate` call per frame."""
    trace_truth = derive_trace_truth({fr.frame_index: fr.box_traces for fr in run.frames}, box_owners)
    truth = GroundTruth(trace_truth, dict(sensor_owners))
    counters = EvalCounters()
    for fr in run.frames:
        accumulate(counters, fr.raw if stage == "raw" else fr.refined, truth)
    return counters


def churning_run(n_frames=600, seed=3):
    """Four boxes a frame whose trace ids are replaced one by one, and a
    raw stage that either makes a fresh random pairing of the live traces
    or repeats an earlier pair set as a new `Assignment`, so equal sets
    recur out of order. Box owners are random, so trace truth is a real
    majority vote."""
    rng = random.Random(seed)
    people = ("p0", "p1", "p2", "p3")
    sensor_owners = {f"s{k}": p for k, p in enumerate(people)}
    frames, box_owners, made = [], {}, []
    for f in range(n_frames):
        live = [f"t{f // 30 + k:03d}" for k in range(4)]
        box_owners[f] = tuple(rng.choice(people) for _ in live)
        if made and rng.random() < 0.6:
            pairs = frozenset(sorted(rng.choice(made)))  # equal, not the same object
        else:
            pairs = frozenset(p for p in zip(live, rng.sample(sorted(sensor_owners), 4)) if rng.random() < 0.7)
            made.append(pairs)
        refined = made[len(made) // 2]
        frames.append(FrameResult(f, dict(enumerate(live)), Assignment(pairs, rng.random()),
                                  Assignment(refined, 1.0)))
    return MatchRun(frames, {}, 0.0), sensor_owners, box_owners


def fragmenting_run():
    data = fragmenting_scene()
    return run_pipeline(data.frames, data.streams), data.sensor_owners, data.box_owners


@pytest.mark.parametrize("make_run", [fragmenting_run, churning_run])
def test_grouped_tally_equals_the_per_frame_fold(make_run):
    run, sensor_owners, box_owners = make_run()
    evals = evaluate_run(run, sensor_owners, box_owners)
    for stage in STAGES:
        sets = {(fr.raw if stage == "raw" else fr.refined).pairs for fr in run.frames}
        assert 1 < len(sets) < len(run.frames)
        expected = per_frame_fold(run, sensor_owners, box_owners, stage)
        assert expected.total_id > 0
        assert evals[stage].n_id == expected.n_id
        assert evals[stage].n_cd == expected.n_cd


def test_unknown_id_named_as_the_per_frame_fold_names_it():
    """Frame 3 is the first to pair an id that truth lacks; a set with
    another unknown id comes later but in more frames."""
    known = pairing(("tA", "s0"))
    picks = ([known, pairing(("tB", "s1")), known]
             + [pairing(("tB", "s1"), ("tA", "ghost"))]
             + [pairing(("phantom", "s0"))] * 5)
    frames = [FrameResult(f, {0: "tA", 1: "tB"}, a, known) for f, a in enumerate(picks)]
    run = MatchRun(frames, {}, 0.0)
    sensor_owners = {"s0": "p0", "s1": "p1"}
    box_owners = {f: ("p0", "p1") for f in range(len(frames))}
    with pytest.raises(UnknownId) as per_frame:
        per_frame_fold(run, sensor_owners, box_owners, "raw")
    with pytest.raises(UnknownId) as grouped:
        evaluate_run(run, sensor_owners, box_owners)
    assert str(grouped.value) == str(per_frame.value) == "sensor 'ghost' not in ground truth"


# length-gate sweep


@pytest.fixture(scope="module")
def small_scenario():
    return generate(two_person_config(duration=400 / 30.0))


def test_sweep_emits_one_row_per_gate_and_stage(small_scenario):
    rows = ts_sweep(small_scenario)
    assert [(r.ts, r.stage) for r in rows] == [
        (ts, stage) for ts in (0.33, 1.0, 2.0, 3.0, 4.0) for stage in STAGES
    ]
    assert all(math.isnan(r.r_cd) or 0.0 <= r.r_cd <= 1.0 for r in rows)


def test_sweep_restricted_to_one_gate_and_stage(small_scenario):
    rows = ts_sweep(small_scenario, ts_values=(2.0,), stages=("raw",))
    assert len(rows) == 1
    assert rows[0].ts == 2.0
    assert rows[0].stage == "raw"
    assert rows[0].r_cd == 1.0


def test_sweep_rejects_nonpositive_gate(small_scenario):
    with pytest.raises(ValueError):
        ts_sweep(small_scenario, ts_values=(0.0,))


def test_gate_longer_than_scenario_yields_nan(small_scenario):
    rows = ts_sweep(small_scenario, ts_values=(999.0,))
    assert all(math.isnan(r.r_cd) for r in rows)
