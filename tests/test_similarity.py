import math
import random

import numpy as np
import pytest

from stridelink import pipeline
from stridelink.model import DetectionFrame
from stridelink.similarity import (
    ExtremeStream,
    PairScorer,
    SensorRow,
    SimilarityMatrix,
    SimilarityParams,
    TernarySequence,
    detect_extremes,
    mark_extremes,
    sim,
)
from stridelink.simulator import generate

from conftest import two_person_config
from helpers import oracle_mark_cost, oracle_marks, oracle_sim


def tern(length, **marks):
    """TernarySequence with marks given as position=value kwargs (p10=1)."""
    values = [0] * length
    for key, v in marks.items():
        values[int(key[1:])] = v
    return TernarySequence(tuple(values))


# extremum detection


def test_constant_sequence_has_no_extremes():
    assert detect_extremes([5.0] * 50, 10).values == (0,) * 50


def test_triangle_peak_marked_once():
    seq = list(range(21)) + list(range(19, 0, -1))
    t = detect_extremes(seq, 10)
    assert [i for i, v in enumerate(t.values) if v == 1] == [20]


def test_sampled_sinusoid_marks_every_crest_and_trough():
    # period 30 over 100 samples: crests near 7.5+30k, troughs near 22.5+30k;
    # the window truncation also marks the rising left edge as a minimum
    seq = [math.sin(2 * math.pi * x / 30) for x in range(100)]
    t = detect_extremes(seq, 10)
    maxima = [i for i, v in enumerate(t.values) if v == 1]
    minima = [i for i, v in enumerate(t.values) if v == -1]
    assert len(maxima) == 4
    assert len(minima) == 4
    crest_zones = [{7, 8}, {37, 38}, {67, 68}, {97, 98}]
    assert all(any(m in zone for zone in crest_zones) for m in maxima)
    trough_zones = [{0}, {22, 23}, {52, 53}, {82, 83}]
    assert all(any(m in zone for zone in trough_zones) for m in minima)


def test_matches_literal_neighbor_scan_on_random_input():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(1, 200)
        d = rng.randint(2, 12)
        if rng.random() < 0.5:
            seq = [rng.random() for _ in range(n)]
        else:
            seq = [float(rng.randint(0, 3)) for _ in range(n)]  # plateaus
        assert list(detect_extremes(seq, d).values) == oracle_marks(seq, d)


def test_marks_unchanged_under_increasing_transform():
    rng = random.Random(5)
    seq = [rng.uniform(-3, 3) for _ in range(120)]
    base = detect_extremes(seq, 10).values
    assert detect_extremes([math.exp(v) for v in seq], 10).values == base


def test_ternary_values_restricted():
    with pytest.raises(ValueError):
        TernarySequence((0, 2, 0))


def test_adjacent_same_sign_marks_rejected():
    with pytest.raises(ValueError):
        TernarySequence((0, 1, 1, 0))
    TernarySequence((0, 1, -1, 0))  # opposite signs may touch


def test_params_validation():
    with pytest.raises(ValueError):
        SimilarityParams(d=1)
    with pytest.raises(ValueError):
        SimilarityParams(no_match_penalty_factor=0.0)


@pytest.mark.parametrize("field", ["d", "dif_window"])
def test_non_integer_window_rejected(field):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got 10.0"):
        SimilarityParams(**{field: 10.0})
    assert SimilarityParams(**{field: np.int64(10)}).dif_d == 10


def test_integer_penalty_factor_scores_as_its_float():
    as_int, as_float = (SimilarityParams(no_match_penalty_factor=k) for k in (2, 2.0))
    rows = [SensorRow(["a"], [[0, 1, 0, -1, 0]], params) for params in (as_int, as_float)]
    for sign in (1, -1):
        assert rows[0].costs[sign].dtype == np.float64
        assert rows[0].costs[sign].tolist() == rows[1].costs[sign].tolist()
    t, a = tern(40, p10=1, p25=-1), tern(40, p12=1)  # t's trough finds no trough in a
    assert sim(t, a, as_int) == sim(t, a, as_float) != sim(t, a)


# dif: the cost of one trace mark, seen through the score of a single mark


def test_dif_zero_for_unmarked_position():
    # only the mark at 10 costs anything: 1 mark / offset 2
    assert sim(tern(30, p10=1), tern(30, p12=1)) == 0.5


def test_dif_zero_on_exact_alignment():
    # offset 0 falls to the denominator floor
    assert sim(tern(30, p10=1), tern(30, p10=1)) == 2.0


def test_dif_penalty_when_no_match_in_window():
    t = tern(40, p15=1)
    a = tern(40, p15=-1)  # only an opposite mark nearby
    assert sim(t, a) == 1 / 15.0
    assert oracle_sim(t.values, a.values) == 1 / 15.0


def test_dif_search_clamped_to_short_sequence():
    t = tern(5, p0=1)
    a = TernarySequence((0, 0, 0))
    assert sim(t, a) == 1 / 15.0
    # the window -10..10 is cut to a's frames 3..5, where a mark sits at 3
    a = TernarySequence((1, 0, 0), start_frame=3)
    assert sim(t, a) == 1 / 3.0
    assert oracle_sim(t.values, a.values, a_start=3) == 1 / 3.0


def test_dif_finds_nearest_of_two_candidates():
    t = tern(40, p20=1)
    a = TernarySequence(tuple(1 if i in (17, 26) else 0 for i in range(40)))
    assert sim(t, a) == 1 / 3.0
    assert oracle_sim(t.values, a.values) == 1 / 3.0


# sim


def test_two_extremes_offset_by_two_score_one():
    t = tern(30, p10=1, p25=-1)
    a = tern(30, p12=1, p25=-1)
    assert sim(t, a) == 1.0


def test_identical_marks_hit_denominator_floor():
    t = tern(30, p5=1, p12=-1, p19=1, p26=-1)
    assert sim(t, t) == 8.0


def test_no_marks_scores_zero():
    t = TernarySequence((0,) * 30)
    a = tern(30, p5=1)
    assert sim(t, a) == 0.0


def test_sim_is_asymmetric():
    t = tern(40, p10=1)
    a = tern(40, p10=1, p20=-1, p30=1)
    assert sim(t, a) == 2.0
    assert sim(a, t) == pytest.approx(3 / 30.0)


def test_alignment_by_absolute_frame_not_list_position():
    t = TernarySequence((0, 0, 1, 0, 0), start_frame=100)
    a = TernarySequence((0, 0, 0, 0, 1, 0), start_frame=98)
    # t's mark sits at frame 102, a's at frame 102 as well
    assert sim(t, a) == 2.0  # dif 0, floor 0.5 -> 1/0.5


def test_uniform_shift_costs_exactly_marks_times_shift():
    length = 140
    positions = (30, 60, 90)
    values = [0] * length
    for p in positions:
        values[p] = 1
    t = TernarySequence(tuple(values))
    for k in range(1, 6):
        a = TernarySequence(tuple(values), start_frame=k)
        # 3 marks, each k frames off: total offset 3k
        assert sim(t, a) == len(positions) / (len(positions) * k)
        assert oracle_sim(t.values, a.values, a_start=k) == sim(t, a)


def test_sim_matches_literal_rule_on_random_marks():
    rng = random.Random(31)
    for _ in range(200):
        d = rng.randint(2, 12)
        t_vals = [rng.random() for _ in range(rng.randint(1, 80))]
        a_vals = [rng.random() for _ in range(rng.randint(1, 80))]
        t_start, a_start = rng.randint(0, 20), rng.randint(0, 20)
        params = SimilarityParams(d=d)
        got = sim(
            TernarySequence(tuple(oracle_marks(t_vals, d)), t_start),
            TernarySequence(tuple(oracle_marks(a_vals, d)), a_start),
            params,
        )
        assert got == oracle_sim(oracle_marks(t_vals, d), oracle_marks(a_vals, d), d,
                                 t_start, a_start)


# streaming engine


def test_streaming_matches_batch_on_random_interleavings():
    rng = random.Random(77)
    params = SimilarityParams()
    for _ in range(120):
        k = rng.randint(1, 4)
        n_t, n_a = rng.randint(1, 120), rng.randint(1, 120)
        t_vals = [rng.random() for _ in range(n_t)]
        a_vals = [[rng.random() for _ in range(n_a)] for _ in range(k)]
        t_start, a_start = rng.randint(0, 40), rng.randint(0, 5)
        ts = ExtremeStream(params.d, t_start)
        row = SensorRow.from_values([f"s{m}" for m in range(k)], a_vals, params, a_start)
        scorer = PairScorer(ts, row)
        i = j = 0
        while i < n_t or j < n_a:
            if i < n_t and (j >= n_a or rng.random() < 0.5):
                ts.push(t_vals[i])
                i += 1
            else:
                j += 1
            scorer.advance(a_start + j - 1)  # the row's frames so far
        t_marks = oracle_marks(t_vals, params.d)
        assert ts.marks == t_marks[:len(ts.marks)]
        ts.marks += t_marks[len(ts.marks):]  # the edge-truncated last marks too
        scorer.advance(math.inf)
        got = scorer.score()
        assert len(got) == k
        for vals, score in zip(a_vals, got):
            expected = oracle_sim(
                oracle_marks(t_vals, params.d), oracle_marks(vals, params.d),
                params.d, t_start, a_start,
            )
            assert score == expected


def test_scores_and_matrix_values_are_read_only():
    """The pipeline hands raw_pair a matrix it has solved again while the
    score rows it was built from are the very arrays they were, so
    neither a score row nor the matrix values may be written into."""
    vals = [math.sin(k / 2.0) for k in range(80)]
    row = SensorRow.from_values(["s0", "s1"], [vals, vals[::-1]])
    scorer = PairScorer(ExtremeStream(10), row)
    seen = [scorer.score()]
    for f, v in enumerate(vals):
        scorer.t.push(v)
        scorer.advance(f)
        if scorer.score() is not seen[-1]:
            seen.append(scorer.score())
    assert len(seen) > 3 and scorer.n == len(seen) - 1  # one new array per folded mark
    for scores in seen:
        with pytest.raises(ValueError, match="read-only"):
            scores[0] = 1.0

    values = np.array([[0.9, 0.2], [0.3, 0.8]])
    matrix = SimilarityMatrix(["t0", "t1"], ["s0", "s1"], values)
    with pytest.raises(ValueError, match="read-only"):
        matrix.values[0, 1] = 5.0
    assert values.flags.writeable  # the caller's own array is left as it was
    assert matrix.values.tolist() == [[0.9, 0.2], [0.3, 0.8]]


def test_row_checks_its_ids_and_block_shape():
    with pytest.raises(ValueError, match="sensor id 's0' given more than once"):
        SensorRow.from_values(["s1", "s0", "s2", "s0", "s1"], np.zeros((5, 3)))
    for bad in ([1.0, 2.0], [[1.0], [2.0], [3.0]], np.zeros((2, 1, 1))):
        with pytest.raises(ValueError, match="for a row of 2 sensors"):
            SensorRow.from_values(["s0", "s1"], bad, start_frame=4)
    pad = SimilarityParams().dif_d
    assert SensorRow.from_values(["s0", "s1"], np.zeros((2, 0))).costs[1].shape == (2, 2 * pad)
    row = SensorRow.from_values(["s0", "s1"], [[1.0, 2.0], [3.0, 4.0]], start_frame=4)
    assert row.costs[1].shape == row.costs[-1].shape == (2, 2 + 2 * pad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_block_names_sensor_and_frame(bad):
    block = np.ones((3, 10))
    block[2, 5] = bad
    block[1, 7] = bad
    with pytest.raises(ValueError, match=f"sensor 's2': non-finite step feature {bad} at frame 15"):
        SensorRow.from_values(["s0", "s1", "s2"], block, start_frame=10)


def test_row_marks_and_costs_match_literal_rules():
    """Marks against the literal extremum rule and every cost against the
    literal nearest-mark rule, over d of both parities, search windows
    other than d, rows shorter than half a window, and plateaus."""
    rng = random.Random(909)
    for case in range(400):
        d = rng.randint(2, 12)
        params = SimilarityParams(d=d, dif_window=rng.choice((None, rng.randint(1, 16))))
        half, pad, penalty = (d + 1) // 2, params.dif_d, params.no_match_penalty
        n = rng.randint(1, half) if case % 4 == 0 else rng.randint(half + 1, 120)
        k = rng.randint(1, 4)
        if case % 2:
            values = [[float(round(rng.uniform(0, 3))) for _ in range(n)] for _ in range(k)]
        else:
            values = [[rng.random() for _ in range(n)] for _ in range(k)]
        full = [oracle_marks(v, d) for v in values]
        marks = mark_extremes(np.array(values), d)
        assert marks.dtype == np.int8
        assert marks.tolist() == full
        row = SensorRow.from_values([f"s{m}" for m in range(k)], values, params, rng.randint(0, 30))
        for m in range(k):
            for sign in (1, -1):
                assert row.costs[sign][m].tolist() == [
                    oracle_mark_cost(full[m], c - pad, sign, pad, penalty) for c in range(n + 2 * pad)]


def test_advance_folds_as_a_row_of_the_frames_so_far_would():
    """A scorer advanced through frame f has folded exactly the trace marks
    at frames F <= f - half - dif_d, and folded them as a row built from
    only the frames through f would."""
    rng = random.Random(41)
    for params in (SimilarityParams(), SimilarityParams(d=7, dif_window=4)):
        half, dif_d = (params.d + 1) // 2, params.dif_d
        n, t0 = 200, 7
        a_vals = np.array([[rng.random() for _ in range(n)] for _ in range(3)])
        t_vals = [rng.random() for _ in range(n - t0)]
        t_marks = oracle_marks(t_vals, params.d)
        whole = SensorRow.from_values(["a", "b", "c"], a_vals, params)
        ts_whole = ExtremeStream(params.d, t0)
        s_whole = PairScorer(ts_whole, whole)
        for f in range(n):
            if f >= t0:
                ts_whole.push(t_vals[f - t0])
            s_whole.advance(f)
            assert s_whole.n == sum(1 for x, m in enumerate(t_marks) if m and t0 + x + half + dif_d <= f)
            prefix = SensorRow.from_values(["a", "b", "c"], a_vals[:, :f + 1], params)
            ts_prefix = ExtremeStream(params.d, t0)
            for v in t_vals[:len(ts_whole)]:
                ts_prefix.push(v)
            s_prefix = PairScorer(ts_prefix, prefix)
            s_prefix.advance(f)
            assert (s_whole.n, s_whole.totals.tolist()) == (s_prefix.n, s_prefix.totals.tolist())


def test_finalized_marks_are_a_prefix_of_batch_marks():
    rng = random.Random(13)
    values = [rng.random() for _ in range(90)]
    full = oracle_marks(values, 10)
    stream = ExtremeStream(10)
    for k, v in enumerate(values):
        stream.push(v)
        assert stream.marks == full[:max(0, k + 1 - stream.half)]
    assert len(stream.marks) == 85
    assert list(detect_extremes(values, 10).values) == full



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_push_rejected(bad):
    stream = ExtremeStream(10, start_frame=5)
    stream.push(1.0)
    with pytest.raises(ValueError, match="non-finite value .* at frame 6"):
        stream.push(bad)
    assert len(stream) == 1


def test_nan_sequence_rejected_where_the_nan_is():
    with pytest.raises(ValueError, match="non-finite value nan at frame 2"):
        detect_extremes([1.0, 2.0, math.nan, 0.5, 0.2, 0.1], 2)


# the similarity matrix the pipeline pairs from


def wave(n, period, phase=0.0):
    return [math.cos(2 * math.pi * (k + phase) / period) for k in range(n)]


def test_matching_rhythm_outscores_mismatched():
    t_a, t_b = detect_extremes(wave(150, 20)), detect_extremes(wave(150, 34))
    s_1, s_2 = detect_extremes(wave(150, 20)), detect_extremes(wave(150, 34))
    assert sim(t_a, s_1) > sim(t_a, s_2)
    assert sim(t_b, s_2) > sim(t_b, s_1)


def scored_keys(monkeypatch, frames, streams):
    """The (trace, sensor) keys of every matrix run_pipeline pairs, by frame."""
    keyed = []
    raw_pair = pipeline.raw_pair

    def spy(matrix):
        keyed.append(set(matrix.scores))
        return raw_pair(matrix)

    monkeypatch.setattr(pipeline, "raw_pair", spy)
    pipeline.run_pipeline(frames, streams, pipeline.PipelineParams(ts_gate=2.0))
    # one raw pairing per frame, in frame order
    assert len(keyed) == len(frames)
    return {fr.frame_index: keys for fr, keys in zip(frames, keyed)}


def test_full_matrix_when_everything_gated_in(monkeypatch):
    data = generate(two_person_config(duration=4.0, dropout_prob=0.0))
    keys = scored_keys(monkeypatch, data.frames, data.streams)
    # 2 s at 30 fps: frame 59 is the first with 60 values in every stream
    assert keys[58] == set()
    full = {(t, s) for t in ("t0000", "t0001") for s in ("p0-acc", "p1-acc")}
    assert all(keys[f] == full for f in range(59, 120))


def test_short_trace_row_absent(monkeypatch):
    data = generate(two_person_config(duration=6.0, dropout_prob=0.0))
    # p1 enters the scene at frame 40, so its trace gates in 40 frames late
    frames = [
        DetectionFrame(fr.frame_index, fr.timestamp, [
            b for b, owner in zip(fr.boxes, data.box_owners[fr.frame_index])
            if owner == "p0" or fr.frame_index >= 40
        ])
        for fr in data.frames
    ]
    keys = scored_keys(monkeypatch, frames, data.streams)
    early = {("t0000", "p0-acc"), ("t0000", "p1-acc")}
    assert all(keys[f] == early for f in range(59, 99))
    assert keys[99] == early | {("t0001", "p0-acc"), ("t0001", "p1-acc")}
