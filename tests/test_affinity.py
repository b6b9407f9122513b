"""Affinity features, distance gating, scoring, and top-K selection."""

import numpy as np
import pytest

from uncertrack.affinity import (gate_candidates, gate_positions,
                                 long_term_feature, score_links,
                                 short_term_feature, top_k_select,
                                 select_top_k, CandidateLink, AffinityFeature)
from uncertrack.detections import Detection
from uncertrack.errors import ConfigError
from uncertrack.model import ModelConfig, init_model
from uncertrack.numerics import Tape

from oracles import fd_gradient, gate_brute_force, rel_err, topk_brute_force


def _det(pos, frame=0):
    return Detection(pos=pos, velo=(1.0, 0.0), size=(4.0, 2.0, 1.5),
                     heading=0.0, score=0.7, frame=frame)


@pytest.fixture(scope="module")
def params():
    return init_model(ModelConfig(), seed=31)


def test_short_term_feature_basics():
    tape = Tape()
    u = np.array([1.0, -2.0])
    v = np.array([-1.0, 1.0])
    assert np.array_equal(short_term_feature(tape, u, v).value,
                          np.array([[2.0, 3.0]]))
    assert np.array_equal(short_term_feature(tape, u, u).value,
                          np.zeros((1, 2)))
    assert np.array_equal(short_term_feature(tape, u, v).value,
                          short_term_feature(tape, v, u).value)


def test_long_term_feature_zero_weights(params):
    zeroed = init_model(ModelConfig(), seed=31)
    for w in zeroed.mlp_mot.block.weights:
        w[...] = 0.0
    out = long_term_feature(Tape(), zeroed, np.zeros(32), np.zeros(64))
    assert np.array_equal(out.value, np.zeros((1, 64)))


def test_long_term_feature_birth_state_defined(params):
    x_mov = np.random.default_rng(1).standard_normal(32)
    out = long_term_feature(Tape(), params, x_mov, np.zeros(64))
    assert out.value.shape == (1, 64)
    assert np.all(np.isfinite(out.value))


def test_long_term_feature_gradient_wrt_history(params):
    rng = np.random.default_rng(2)
    x_mov = rng.standard_normal((1, 32))
    h = rng.standard_normal((1, 64)) * 0.5
    gh = np.zeros_like(h)

    def forward():
        tape = Tape()
        vh = tape.param(h, gh)
        return tape, tape.sum(long_term_feature(tape, params, x_mov, vh))

    gh[...] = 0.0
    tape, loss = forward()
    tape.backward(loss)
    analytic = gh.copy()

    def value():
        return float(forward()[1].value[0, 0])

    assert rel_err(analytic, fd_gradient(value, h)) < 1e-4


def test_gating_boundary_inclusive():
    prev = [_det((0.0, 0.0))]
    inside = [_det((0.0, 10.0), frame=1)]
    outside = [_det((0.0, 10.01), frame=1)]
    pairs, dists = gate_candidates(prev, inside, 10.0)
    assert len(pairs) == 1 and dists[0] == 10.0
    pairs, _ = gate_candidates(prev, outside, 10.0)
    assert len(pairs) == 0


def test_gating_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n_prev = int(rng.integers(0, 50))
        n_curr = int(rng.integers(0, 50))
        prev = rng.uniform(-30, 30, (n_prev, 2))
        curr = rng.uniform(-30, 30, (n_curr, 2))
        pairs, dists = gate_positions(prev, curr, 10.0)
        want = gate_brute_force(prev, curr, 10.0)
        assert [tuple(p) for p in pairs] == want
        for (m, n), d in zip(pairs, dists):
            assert abs(d - np.hypot(*(curr[n] - prev[m]))) < 1e-12


def test_gating_rejects_nonpositive_theta():
    with pytest.raises(ConfigError):
        gate_positions(np.zeros((1, 2)), np.zeros((1, 2)), 0.0)


def test_zero_affinity_net_scores_half(params):
    zeroed = init_model(ModelConfig(), seed=31)
    for w in zeroed.mlp_aff.block.weights:
        w[...] = 0.0
    prev = [_det((0.0, 0.0)), _det((5.0, 0.0))]
    curr = [_det((0.5, 0.0), frame=1), _det((5.5, 0.0), frame=1)]
    links = score_links(Tape(), zeroed, prev, curr, np.zeros((2, 64)))
    assert len(links) == 4
    assert all(l.score == 0.5 for l in links)


def test_scores_invariant_under_translation(params):
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        prev = [_det(tuple(p)) for p in rng.uniform(-10, 10, (m, 2))]
        curr = [_det(tuple(p), frame=1) for p in rng.uniform(-10, 10, (n, 2))]
        h = rng.standard_normal((m, 64)) * 0.3
        shift = rng.uniform(-40, 40, 2)
        prev2 = [_det((d.pos[0] + shift[0], d.pos[1] + shift[1])) for d in prev]
        curr2 = [_det((d.pos[0] + shift[0], d.pos[1] + shift[1]), frame=1)
                 for d in curr]
        a = score_links(Tape(), params, prev, curr, h)
        b = score_links(Tape(), params, prev2, curr2, h)
        assert len(a) == len(b)
        for la, lb in zip(a, b):
            # offsets (p+s)-(q+s) round differently from p-q, so allow 1e-9
            assert abs(la.score - lb.score) < 1e-9


def test_scores_strictly_inside_unit_interval(params):
    rng = np.random.default_rng(5)
    prev = [_det(tuple(p)) for p in rng.uniform(-10, 10, (6, 2))]
    curr = [_det(tuple(p), frame=1) for p in rng.uniform(-10, 10, (6, 2))]
    links = score_links(Tape(), params, prev, curr,
                        rng.standard_normal((6, 64)) * 0.2)
    assert links and all(0.0 < l.score < 1.0 for l in links)


def _mk_link(prev_index, curr_index, score, distance):
    feat = AffinityFeature(a_det=np.zeros(1), a_mot=np.zeros(1), a=np.zeros(2))
    return CandidateLink(prev_index=prev_index, curr_index=curr_index,
                         feature=feat, score=score, distance=distance)


def test_top_k_keeps_all_when_fewer():
    links = [_mk_link(i, 0, 0.5 + 0.1 * i, 1.0) for i in range(3)]
    sets = top_k_select(links, 10)
    assert len(sets) == 1 and len(sets[0].links) == 3
    assert [l.prev_index for l in sets[0].links] == [2, 1, 0]


def test_top_k_tie_broken_by_distance():
    links = [_mk_link(0, 0, 0.5, 2.0), _mk_link(1, 0, 0.5, 1.0)]
    sets = top_k_select(links, 1)
    assert sets[0].links[0].prev_index == 1


def test_top_k_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n_links = int(rng.integers(1, 26))
        links = [_mk_link(int(rng.integers(0, 12)), int(rng.integers(0, 3)),
                          float(rng.random()), float(rng.uniform(0, 10)))
                 for _ in range(n_links)]
        sets = top_k_select(links, 10)
        by_curr = {}
        for l in links:
            by_curr.setdefault(l.curr_index, []).append(
                (l.score, l.distance, l.prev_index))
        assert sorted(s.curr_index for s in sets) == sorted(by_curr)
        for s in sets:
            want = topk_brute_force(by_curr[s.curr_index], 10)
            got = [(l.score, l.distance, l.prev_index) for l in s.links]
            assert got == want


def test_select_top_k_segment_layout():
    pairs = np.array([[0, 0], [1, 0], [2, 0], [0, 1]])
    dists = np.array([1.0, 2.0, 3.0, 4.0])
    scores = np.array([0.9, 0.8, 0.95, 0.5])
    sel, seg, seg_curr = select_top_k(pairs, dists, scores, 2)
    assert list(seg_curr) == [0, 1]
    assert list(seg) == [0, 0, 1]
    # best two for det 0: prev 2 (0.95) then prev 0 (0.9)
    assert list(pairs[sel, 0]) == [2, 0, 0]


def test_window_gating_matches_each_window_alone():
    # windows stacked into one pack overlap in space; gating pairs only
    # within a window gives each window's own pairs and distances, bitwise
    rng = np.random.default_rng(33)
    windows = [(rng.uniform(-8, 8, (n, 2)), rng.uniform(-8, 8, (m, 2)))
               for n, m in [(7, 6), (0, 4), (5, 0), (9, 11)]]
    prev_pos = np.concatenate([p for p, _ in windows])
    curr_pos = np.concatenate([c for _, c in windows])
    prev_win = np.repeat(np.arange(4), [len(p) for p, _ in windows])
    curr_win = np.repeat(np.arange(4), [len(c) for _, c in windows])
    pairs, dists = gate_positions(prev_pos, curr_pos, 6.0, prev_win, curr_win)

    assert np.array_equal(prev_win[pairs[:, 0]], curr_win[pairs[:, 1]])
    want_pairs, want_dists = [], []
    prev_off = curr_off = 0
    for p, c in windows:
        wp, wd = gate_positions(p, c, 6.0)
        want_pairs.append(wp + [prev_off, curr_off])
        want_dists.append(wd)
        prev_off += len(p)
        curr_off += len(c)
    assert np.array_equal(pairs, np.concatenate(want_pairs))
    assert np.array_equal(dists, np.concatenate(want_dists))
