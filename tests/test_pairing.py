import math
import random

import numpy as np
import pytest

from stridelink import pairing, pipeline
from stridelink.pairing import (
    Assignment,
    RefinedState,
    raw_pair,
    refined_pair,
    solve_matrix,
    update_rsim,
)
from stridelink.pipeline import PipelineParams, run_pipeline
from stridelink.similarity import SimilarityMatrix

from helpers import brute_force_lsap, lex_smallest, oracle_lsap, solve_lsap


def grid(rows):
    """Weights dict from a list of row lists; ids t0.., s0.."""
    return {
        (f"t{i}", f"s{j}"): float(v)
        for i, row in enumerate(rows)
        for j, v in enumerate(row)
    }


# solver against exhaustive enumeration


def _random_instance(rng, integer):
    nr, nc = rng.randint(1, 5), rng.randint(1, 5)
    weights = {}
    for i in range(nr):
        for j in range(nc):
            if rng.random() < 0.85:
                if integer:
                    weights[(f"t{i}", f"s{j}")] = float(rng.randint(0, 4))
                else:
                    weights[(f"t{i}", f"s{j}")] = rng.uniform(0, 10)
    return weights


def test_matches_enumeration_on_tie_rich_integer_instances():
    rng = random.Random(42)
    for _ in range(150):
        weights = _random_instance(rng, integer=True)
        got = solve_lsap(weights)
        best_obj, best_sets = brute_force_lsap(weights)
        assert got.objective == pytest.approx(best_obj, abs=1e-9)
        assert got.pairs == lex_smallest(best_sets)


def test_matches_enumeration_on_float_instances():
    rng = random.Random(43)
    for _ in range(100):
        weights = _random_instance(rng, integer=False)
        got = solve_lsap(weights)
        best_obj, best_sets = brute_force_lsap(weights)
        assert got.objective == pytest.approx(best_obj, abs=1e-9)
        assert got.pairs == lex_smallest(best_sets)


# fixed cases


def test_single_positive_pair():
    got = solve_lsap({("t0", "s0"): 0.7})
    assert got.pairs == {("t0", "s0")}
    assert got.objective == 0.7


def test_two_by_two_prefers_diagonal():
    got = solve_lsap(grid([[0.9, 0.2], [0.3, 0.8]]))
    assert got.pairs == {("t0", "s0"), ("t1", "s1")}
    assert got.objective == pytest.approx(1.7)


def test_three_traces_two_sensors_leaves_middle_unpaired():
    got = solve_lsap(grid([[5, 1], [4, 2], [1, 3]]))
    assert got.pairs == {("t0", "s0"), ("t2", "s1")}
    assert got.objective == 8.0


def test_zero_weight_match_reported_unpaired():
    got = solve_lsap(grid([[1, 0], [0, 0]]))
    assert got.pairs == {("t0", "s0")}
    assert got.objective == 1.0


def test_all_zero_weights_pair_nothing():
    got = solve_lsap(grid([[0, 0], [0, 0]]))
    assert got.pairs == frozenset()
    assert got.objective == 0.0


def test_zero_row_does_not_consume_a_column():
    got = solve_lsap({("t0", "s0"): 0.0, ("t1", "s0"): 2.0})
    assert got.pairs == {("t1", "s0")}


def test_empty_input():
    got = solve_lsap({})
    assert got.pairs == frozenset()
    assert got.objective == 0.0


def test_more_sensors_than_traces():
    got = solve_lsap(grid([[1, 5, 2]]))
    assert got.pairs == {("t0", "s1")}
    assert got.objective == 5.0


def test_tie_broken_toward_smallest_pair_list():
    got = solve_lsap(grid([[1, 1], [1, 1]]))
    assert got.sorted_pairs() == [("t0", "s0"), ("t1", "s1")]


def test_result_independent_of_dict_insertion_order():
    rng = random.Random(7)
    weights = _random_instance(rng, integer=True)
    items = list(weights.items())
    baseline = solve_lsap(weights)
    for _ in range(5):
        rng.shuffle(items)
        assert solve_lsap(dict(items)) == baseline


def test_uniform_scaling_keeps_the_same_pairs():
    rng = random.Random(9)
    weights = _random_instance(rng, integer=False)
    base = solve_lsap(weights).pairs
    for factor in (0.5, 3.0, 17.0):
        scaled = {k: v * factor for k, v in weights.items()}
        assert solve_lsap(scaled).pairs == base


def test_rejects_bad_weights():
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            solve_lsap({("t0", "s0"): bad})


def test_assignment_helpers():
    a = Assignment(frozenset({("t1", "s0"), ("t0", "s1")}), 3.0)
    assert a.sorted_pairs() == [("t0", "s1"), ("t1", "s0")]


def test_raw_pair_reads_the_matrix():
    m = SimilarityMatrix(["t0", "t1"], ["s0", "s1"], np.array([[0.9, 0.2], [0.3, 0.8]]))
    assert raw_pair(m).pairs == {("t0", "s0"), ("t1", "s1")}
    assert m.scores == grid([[0.9, 0.2], [0.3, 0.8]])


# the certificate against the walk that re-solves for every candidate


def _equivalence_instances(rng):
    """Weight matrices of 0-20 rows x 0-20 columns: integer ties, floats at
    several scales, zeroed and tiny entries, and near-ties around integer
    matrices."""
    for case in range(3000):
        nr, nc = rng.randint(0, 20), rng.randint(0, 20)
        if case % 2:
            nr, nc = nc, nr
        kind = case % 5
        if kind == 0:
            w = [[float(rng.randint(0, 3)) for _ in range(nc)] for _ in range(nr)]
        elif kind in (1, 2):
            scale = rng.choice((1e-3, 1.0, 1e2, 1e4))
            w = [[rng.uniform(0, scale) for _ in range(nc)] for _ in range(nr)]
        elif kind == 3:
            w = [[rng.choice((0.0, 0.0, 0.0, 1e-10, rng.uniform(0, 10), rng.uniform(0, 10)))
                  for _ in range(nc)] for _ in range(nr)]
        else:
            # an integer matrix whose optimum is about 10 * min(nr, nc): one
            # entry in three nudged by a multiple of eps at that scale
            eps = 1e-9 * max(1.0, 10.0 * min(nr, nc))
            w = [[float(rng.randint(5, 10)) for _ in range(nc)] for _ in range(nr)]
            for row in w:
                for j in range(nc):
                    if rng.random() < 1 / 3:
                        row[j] += rng.choice((-1, 1)) * rng.choice((0.3, 0.6, 1.0, 1.5, 2.5)) * eps
        yield w


def test_solver_equals_the_walk_without_certificate():
    rng = random.Random(8)
    for w in _equivalence_instances(rng):
        # zero-padded ids sort in index order, so both forms see one matrix
        row_ids = [f"t{i:02d}" for i in range(len(w))]
        col_ids = [f"s{j:02d}" for j in range(len(w[0]) if w else 0)]
        weights = {(t, s): v for t, row in zip(row_ids, w) for s, v in zip(col_ids, row)}
        want_pairs, want_objective = oracle_lsap(weights)
        for got in (solve_lsap(weights),
                    solve_matrix(np.array(w).reshape(len(row_ids), len(col_ids)), row_ids, col_ids)):
            assert got.pairs == want_pairs
            assert got.objective.hex() == want_objective.hex()


def test_weight_absorbed_by_rounding_still_pairs():
    # 1e16 + 1e-17 == 1e16 in floating point, so the solver leaves t0 on
    # the worthless s0 although t0-s3 carries weight; the walk still pairs
    # t0-s3, and no certificate may cut it short
    w = [[0.0, 3.0, 0.0, 1e-17], [1.0, 1e16, 0.0, 0.0]]
    want_pairs, want_objective = oracle_lsap(grid(w))
    assert want_pairs == {("t0", "s3"), ("t1", "s1")}
    got = solve_lsap(grid(w))
    assert (got.pairs, got.objective) == (want_pairs, want_objective)


def test_unique_optimum_takes_at_most_two_solves(monkeypatch):
    calls = []
    real = pairing.linear_sum_assignment

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pairing, "linear_sum_assignment", counted)
    # a dominant anti-diagonal: the optimum is unique and not in row order,
    # so each row has smaller positive columns the walk would have to rule out
    rng = random.Random(16)
    w = [[rng.uniform(0.1, 1.0) + (5.0 if i + j == 15 else 0.0) for j in range(16)]
         for i in range(16)]
    got = solve_lsap(grid(w))
    assert len(calls) <= 2
    assert got.pairs == {(f"t{i}", f"s{15 - i}") for i in range(16)}
    assert got.pairs == oracle_lsap(grid(w))[0]
    # an all-tied matrix is a real tie: the walk still finds the diagonal
    got = solve_matrix(np.ones((8, 8)), [f"t{i}" for i in range(8)], [f"s{j}" for j in range(8)])
    assert got.sorted_pairs() == [(f"t{i}", f"s{i}") for i in range(8)]
    assert got.objective == 8.0


# refined stage


def test_counts_accumulate_per_frame():
    state = RefinedState()
    a = Assignment(frozenset({("tA", "s0"), ("tB", "s1")}), 2.0)
    update_rsim(state, a)
    update_rsim(state, a)
    update_rsim(state, Assignment(frozenset({("tA", "s0")}), 1.0))
    assert state.counts == {("tA", "s0"): 3, ("tB", "s1"): 2}


def test_alternating_pairs_split_their_counts():
    state = RefinedState()
    for k in range(4):
        sensor = "s1" if k % 2 == 0 else "s2"
        update_rsim(state, Assignment(frozenset({("tA", sensor)}), 1.0))
    assert state.counts == {("tA", "s1"): 2, ("tA", "s2"): 2}


def test_refined_weighs_counts_logarithmically():
    state = RefinedState(
        {("tA", "s0"): 10, ("tA", "s1"): 2, ("tB", "s0"): 3, ("tB", "s1"): 8}
    )
    got = refined_pair(state)
    assert got.pairs == {("tA", "s0"), ("tB", "s1")}
    assert got.objective == math.log2(11) + math.log2(9)
    assert got.objective == pytest.approx(6.6293566200796095, rel=1e-12)


def test_single_frame_of_history_already_pairs():
    state = update_rsim(RefinedState(), Assignment(frozenset({("tA", "s0")}), 1.0))
    assert refined_pair(state).pairs == {("tA", "s0")}
    assert refined_pair(state).objective == 1.0  # log2(2)


def test_empty_history_pairs_nothing():
    assert refined_pair(RefinedState()).pairs == frozenset()


def test_retired_trace_releases_its_sensor():
    state = RefinedState({("tA", "s0"): 50, ("tB", "s0"): 3})
    state.retire_trace("tA")
    assert state.counts == {("tB", "s0"): 3}
    assert refined_pair(state).pairs == {("tB", "s0")}


def test_retiring_an_uncounted_trace_keeps_the_skip(monkeypatch):
    state = RefinedState({("tA", "s0"): 5, ("tB", "s1"): 5})
    held = refined_pair(state)
    solves = []
    real = pairing._solve
    monkeypatch.setattr(pairing, "_solve", lambda *args: solves.append(1) or real(*args))
    update_rsim(state, Assignment(frozenset({("tA", "s0")}), 0.0))
    state.retire_trace("tC")  # a trace the raw stage never paired
    assert refined_pair(state).pairs == held.pairs
    assert solves == []
    # retiring a trace that holds counts lays the state out anew and solves
    state.retire_trace("tB")
    assert refined_pair(state).pairs == {("tA", "s0")}
    assert len(solves) == 1


def test_entrenched_pairing_survives_one_noisy_frame():
    state = RefinedState({("tA", "s0"): 30, ("tB", "s1"): 30})
    noisy = Assignment(frozenset({("tA", "s1"), ("tB", "s0")}), 2.0)
    update_rsim(state, noisy)
    assert refined_pair(state).pairs == {("tA", "s0"), ("tB", "s1")}


def test_refined_flips_less_often_than_raw(separable_run):
    def changes(stage):
        frames = separable_run.frames
        return sum(
            1
            for prev, cur in zip(frames, frames[1:])
            if getattr(prev, stage).pairs != getattr(cur, stage).pairs
        )

    assert changes("refined") <= changes("raw")


# the refined stage's skipped solves against a fresh canonical walk


def _log2_weights(counts):
    return {k: math.log2(1 + c) for k, c in counts.items() if c > 0}


def _random_matching(rng, traces, sensors):
    traces, sensors = list(traces), list(sensors)
    rng.shuffle(traces)
    rng.shuffle(sensors)
    k = rng.randint(0, min(len(traces), len(sensors)))
    return frozenset(zip(traces[:k], sensors[:k]))


def _near_tie_counts(rng):
    """Counts whose refined optimum M pairs tb-s0 with count n * n and beats
    the lexicographically smaller ta-s0, tb-s1 (counts n - 1 each) by
    log2(1 + 1 / n^2), a few eps; each u<k> has its own sensor, in M and in
    the rival alike. Raw frames that add only to the u rows grow the total
    and so eps, and the rival comes within eps."""
    n = rng.randint(3000, 9000)
    counts = {("tb", "s0"): n * n, ("ta", "s0"): n - 1, ("tb", "s1"): n - 1}
    for k in range(rng.randint(0, 12)):
        counts[(f"u{k}", f"v{k}")] = rng.randint(1, 3)
    return counts


def _replay_refined(rng, counts, steps, shared_only):
    """Drive a RefinedState through random frames while keeping the same
    counts as a plain dict, and compare every refined pairing with a fresh
    oracle walk. Returns the distinct pair sets seen."""
    state = RefinedState(counts)
    counts = dict(counts)
    sensors = sorted({s for _, s in counts} | {f"s{j}" for j in range(rng.randint(1, 4))})
    live = sorted({t for t, _ in counts})
    born = len(live)
    seen = set()
    refined = refined_pair(state)
    for _ in range(steps):
        r = rng.random()
        if r < 0.06 and live:
            # a retirement, of a trace the refined stage pairs or not
            trace_id = rng.choice(live)
            live.remove(trace_id)
            state.retire_trace(trace_id)
            counts = {k: c for k, c in counts.items() if k[0] != trace_id}
        elif r < 0.14:
            # unpadded ids: t10 sorts before t9, unlike birth order
            live.append(f"t{born}")
            born += 1
        if shared_only or rng.random() < 0.6:
            # a frame that adds only to the held pairing
            raw = frozenset(p for p in refined.pairs
                            if rng.random() < 0.7 and not (shared_only and p[0] in ("ta", "tb")))
        else:
            raw = _random_matching(rng, live, sensors)
        update_rsim(state, Assignment(raw, 0.0))
        for pair in raw:
            counts[pair] = counts.get(pair, 0) + 1
        refined = refined_pair(state)
        want_pairs, want_objective = oracle_lsap(_log2_weights(counts))
        assert state.counts == {k: c for k, c in counts.items() if c > 0}
        assert refined.pairs == want_pairs
        assert refined.objective.hex() == want_objective.hex()
        seen.add(refined.pairs)
    return seen


def test_skipped_solves_equal_a_fresh_walk_on_random_histories():
    rng = random.Random(11)
    for _ in range(300):
        traces = [f"t{i}" for i in range(rng.randint(0, 5))]
        sensors = [f"s{j}" for j in range(rng.randint(1, 4))]
        counts = {(t, s): rng.randint(0, 4) for t in traces for s in sensors if rng.random() < 0.6}
        _replay_refined(rng, counts, 40, shared_only=False)


def test_skipped_solves_equal_a_fresh_walk_near_a_tie():
    rng = random.Random(12)
    flipped = 0
    for case in range(60):
        seen = _replay_refined(rng, _near_tie_counts(rng), 30, shared_only=case % 3 != 0)
        flipped += len({frozenset(t for t, _ in pairs) & {"ta", "tb"} for pairs in seen}) > 1
    # the rival overtook the held pairing in some histories, so a skip that
    # ignored the growing eps would have been caught
    assert flipped >= 5


def test_refined_objective_sums_math_log2_bitwise():
    # log2(1621) is where numpy's log2 and math.log2 part
    assert np.log2(1621.0) != math.log2(1621)
    state = RefinedState({("t0", "s0"): 1619, ("t1", "s1"): 1620})
    got = refined_pair(state)
    assert got.objective.hex() == (math.log2(1620) + math.log2(1621)).hex()
    # a skipped solve reads the same table
    update_rsim(state, Assignment(frozenset({("t0", "s0")}), 0.0))
    got = refined_pair(state)
    assert got.pairs == {("t0", "s0"), ("t1", "s1")}
    assert got.objective.hex() == (math.log2(1621) + math.log2(1621)).hex()


def test_refined_rows_sort_as_strings_past_t9999(monkeypatch):
    calls = []
    real = pairing.linear_sum_assignment

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pairing, "linear_sum_assignment", counted)
    traces = ["t9998", "t9999", "t10000", "t10001"]
    state = RefinedState()
    counts = {}
    rng = random.Random(5)
    refined = refined_pair(state)
    skipped = 0
    for k in range(60):
        if k % 4 == 0 or not refined.pairs:
            # every trace equally often with every sensor: a tie that only
            # the row order settles
            raw = frozenset(zip(traces, rng.sample(["s0", "s1", "s2", "s3"], 4)))
        else:
            raw = frozenset(p for p in refined.pairs if rng.random() < 0.5)
        update_rsim(state, Assignment(raw, 0.0))
        for pair in raw:
            counts[pair] = counts.get(pair, 0) + 1
        solves = len(calls)
        refined = refined_pair(state)
        skipped += len(calls) == solves
        want = solve_lsap(_log2_weights(counts))
        assert (refined.pairs, refined.objective.hex()) == (want.pairs, want.objective.hex())
    assert state.trace_ids == ["t10000", "t10001", "t9998", "t9999"]
    assert skipped > 10
    tied = RefinedState({(t, s): 1 for t in traces for s in ("s0", "s1")})
    assert refined_pair(tied).sorted_pairs() == [("t10000", "s0"), ("t10001", "s1")]


def test_refined_stage_skips_solves_on_a_steady_scene(monkeypatch, separable_data, separable_run):
    calls = []
    inside = []
    real_solve = pairing.linear_sum_assignment
    real_refined = pipeline.refined_pair

    def counted(*args, **kwargs):
        if inside:
            calls.append(1)
        return real_solve(*args, **kwargs)

    def refined(state):
        inside.append(1)
        try:
            return real_refined(state)
        finally:
            inside.pop()

    monkeypatch.setattr(pairing, "linear_sum_assignment", counted)
    monkeypatch.setattr(pipeline, "refined_pair", refined)
    run = run_pipeline(separable_data.frames, separable_data.streams, PipelineParams(ts_gate=2.0))
    assert [fr.refined for fr in run.frames] == [fr.refined for fr in separable_run.frames]
    # three walkers told apart early: one solve per frame would be 2,000
    assert len(calls) <= len(run.frames) // 100
