import math

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
from stridelink.pipeline import FrameResult, MatchRun
from stridelink.simulator import generate

from conftest import two_person_config

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
