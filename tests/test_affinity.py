"""Affinity features, distance gating, scoring, and top-K selection."""

import numpy as np
import pytest

from uncertrack.affinity import (gate_positions, movement_features,
                                 pair_features, select_top_k)
from uncertrack.detections import Detection, FrameArrays, embed_frame
from uncertrack.errors import ConfigError
from uncertrack.model import ModelConfig, init_model
from uncertrack.numerics import Tape
from uncertrack.world import (FP_ID, NoiseConfig, corrupt_to_detections,
                              generate_world)

from oracles import (fd_gradient, gate_brute_force, gate_reference, rel_err,
                     topk_brute_force)


def _frame(positions):
    return FrameArrays.from_detections([
        Detection(pos=tuple(p), velo=(1.0, 0.0), size=(4.0, 2.0, 1.5),
                  heading=0.0, score=0.7) for p in positions])


def _gate_one_block(prev_pos, curr_pos, theta_d):
    """``gate_positions`` over one block: zero ids on both sides."""
    return gate_positions(prev_pos, curr_pos, theta_d,
                          np.zeros(len(prev_pos), dtype=int),
                          np.zeros(len(curr_pos), dtype=int))


def _features(tape, params, prev, curr, h_mot_prev):
    """Gate two frames and run ``pair_features`` on the gated pairs."""
    pairs, _ = _gate_one_block(prev.pos, curr.pos, params.config.theta_d)
    _, a, logits = pair_features(
        tape, params, embed_frame(tape, params, prev),
        embed_frame(tape, params, curr),
        movement_features(tape, params, prev.pos, curr.pos, pairs),
        h_mot_prev, pairs)
    return pairs, a, logits


def _long_term(tape, params, h_mot_prev):
    """``a`` of two fixed frames (all four pairs gated), and where its a_mot
    columns end."""
    prev = _frame([(0.0, 0.0), (3.0, 1.0)])
    curr = _frame([(0.8, 0.1), (3.5, 1.5)])
    _, a, _ = _features(tape, params, prev, curr, h_mot_prev)
    return a, params.config.hidden_dim


@pytest.fixture(scope="module")
def params():
    return init_model(ModelConfig(), seed=31)


def test_short_term_feature_basics():
    # a = [a_mot ; a_det] with a_det = |x_det_curr - x_det_prev|
    params = init_model(ModelConfig(det_dim=2, mov_dim=4, field_dim=4,
                                    hidden_dim=6), seed=31)
    frame = _frame([(0.0, 0.0)])
    pairs = np.array([[0, 0]])

    def a_det(u, v):
        tape = Tape()
        x_mov = movement_features(tape, params, frame.pos, frame.pos, pairs)
        _, a, _ = pair_features(tape, params, tape.const(u), tape.const(v),
                                x_mov, tape.const(np.zeros((1, 6))), pairs)
        return a.value[:, 6:]

    u = np.array([1.0, -2.0])
    v = np.array([-1.0, 1.0])
    assert np.array_equal(a_det(u, v), np.array([[2.0, 3.0]]))
    assert np.array_equal(a_det(u, u), np.zeros((1, 2)))
    assert np.array_equal(a_det(u, v), a_det(v, u))


def test_long_term_feature_zero_weights(params):
    zeroed = init_model(ModelConfig(), seed=31)
    for w in zeroed.mlp_mot.block.weights:
        w[...] = 0.0
    tape = Tape()
    a, hidden = _long_term(tape, zeroed, tape.const(np.zeros((2, 64))))
    assert np.array_equal(a.value[:, :hidden], np.zeros((len(a.value), 64)))


def test_long_term_feature_birth_state_defined(params):
    tape = Tape()
    a, hidden = _long_term(tape, params, tape.const(np.zeros((2, 64))))
    assert a.value[:, :hidden].shape == (4, 64)
    assert np.all(np.isfinite(a.value[:, :hidden]))


def test_long_term_feature_gradient_wrt_history(params):
    rng = np.random.default_rng(2)
    h = rng.standard_normal((2, 64)) * 0.5
    gh = np.zeros_like(h)
    mask = np.zeros((1, params.config.aff_dim))
    mask[:, :params.config.hidden_dim] = 1.0  # keep the a_mot columns

    def forward():
        tape = Tape()
        a, _ = _long_term(tape, params, tape.param(h, gh))
        return tape, tape.sum(tape.mul(a, tape.const(mask)))

    gh[...] = 0.0
    tape, loss = forward()
    tape.backward(loss)
    analytic = gh.copy()

    def value():
        return float(forward()[1].value[0, 0])

    assert rel_err(analytic, fd_gradient(value, h)) < 1e-4


def test_gating_boundary_inclusive():
    prev = np.array([[0.0, 0.0]])
    pairs, dists = _gate_one_block(prev, np.array([[0.0, 10.0]]), 10.0)
    assert len(pairs) == 1 and dists[0] == 10.0
    pairs, _ = _gate_one_block(prev, np.array([[0.0, 10.01]]), 10.0)
    assert len(pairs) == 0


def test_gating_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n_prev = int(rng.integers(0, 50))
        n_curr = int(rng.integers(0, 50))
        prev = rng.uniform(-30, 30, (n_prev, 2))
        curr = rng.uniform(-30, 30, (n_curr, 2))
        pairs, dists = _gate_one_block(prev, curr, 10.0)
        want = gate_brute_force(prev, curr, 10.0)
        assert [tuple(p) for p in pairs] == want
        for (m, n), d in zip(pairs, dists):
            assert abs(d - np.hypot(*(curr[n] - prev[m]))) < 1e-12
        # per-axis squares and no re-sort: bitwise the summed (N, M, 2) form
        ref_pairs, ref_dists = gate_reference(prev, curr, 10.0)
        assert np.array_equal(pairs, ref_pairs)
        assert np.array_equal(dists, ref_dists)


def test_gating_rejects_nonpositive_theta():
    with pytest.raises(ConfigError):
        _gate_one_block(np.zeros((1, 2)), np.zeros((1, 2)), 0.0)


def test_gating_rejects_descending_window_ids():
    # windows are gated as contiguous row blocks in ascending id order
    pos = np.zeros((3, 2))
    ascending = np.array([0, 0, 1])
    for prev_win, curr_win in [(ascending, np.array([1, 0, 0])),
                               (np.array([0, 2, 1]), ascending)]:
        with pytest.raises(ConfigError, match="ascend"):
            gate_positions(pos, pos, 5.0, prev_win, curr_win)
    pairs, _ = gate_positions(pos, pos, 5.0, ascending, ascending)
    assert pairs.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1], [2, 2]]


def _predecessor_recall(worlds):
    """Share of (true predecessor, detection) pairs that the default gate
    keeps, over every transition of the worlds."""
    theta_d = ModelConfig().theta_d
    kept = total = 0
    for log in worlds:
        for t in range(1, log.num_frames):
            prev, curr = log.frames[t - 1], log.frames[t]
            ids_prev, ids_curr = log.true_ids[t - 1], log.true_ids[t]
            m, n = np.nonzero((ids_prev[:, None] == ids_curr[None, :])
                              & (ids_curr[None, :] != FP_ID))
            pairs, _ = _gate_one_block(prev.pos, curr.pos, theta_d)
            gated = pairs[:, 0] * len(curr) + pairs[:, 1]
            kept += int(np.isin(m * len(curr) + n, gated).sum())
            total += len(m)
    return kept / total


@pytest.mark.parametrize("agents, frames, frame_rate, seeds", [
    pytest.param(24, 120, 10.0, range(4), id="sparse"),    # ~17 dets/frame
    pytest.param(100, 120, 10.0, range(4), id="dense"),    # ~69 dets/frame
    pytest.param(24, 200, 20.0, range(8), id="sparse-20hz"),
])
def test_default_gate_keeps_true_predecessors(agents, frames, frame_rate, seeds):
    # detector noise, not the frame interval, sets the reach of a true
    # predecessor: 5 m keeps >= 0.999 of them at 10 and 20 Hz (4.5 m does not)
    worlds = [corrupt_to_detections(
        generate_world(agents, frames, frame_rate=frame_rate, seed=s),
        NoiseConfig(), seed=s, num_frames=frames, frame_rate=frame_rate)
        for s in seeds]
    assert _predecessor_recall(worlds) >= 0.999


def test_zero_affinity_net_scores_half(params):
    # a zero net gives logit 0, an affinity of sigmoid(0) = 1/2
    zeroed = init_model(ModelConfig(), seed=31)
    for w in zeroed.mlp_aff.block.weights:
        w[...] = 0.0
    prev = _frame([(0.0, 0.0), (3.0, 0.0)])
    curr = _frame([(0.5, 0.0), (3.5, 0.0)])
    tape = Tape()
    pairs, _, logits = _features(tape, zeroed, prev, curr,
                                 tape.const(np.zeros((2, 64))))
    assert len(pairs) == 4
    assert np.all(logits.value == 0.0)


def test_scores_invariant_under_translation(params):
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        prev_pos = rng.uniform(-10, 10, (m, 2))
        curr_pos = rng.uniform(-10, 10, (n, 2))
        h = rng.standard_normal((m, 64)) * 0.3
        shift = rng.uniform(-40, 40, 2)
        tape = Tape()
        pa, _, a = _features(tape, params, _frame(prev_pos), _frame(curr_pos),
                             tape.const(h))
        pb, _, b = _features(tape, params, _frame(prev_pos + shift),
                             _frame(curr_pos + shift), tape.const(h))
        assert len(pa) == len(pb)
        # offsets (p+s)-(q+s) round differently from p-q, so allow 1e-9
        assert np.all(np.abs(a.value - b.value) < 1e-9)


def test_logits_finite_and_loss_finite(params):
    # logits are not squashed, so large hidden states give large logits;
    # they and the matching loss on them stay finite
    rng = np.random.default_rng(5)
    prev = _frame(rng.uniform(-10, 10, (6, 2)))
    curr = _frame(rng.uniform(-10, 10, (6, 2)))
    for scale in (0.2, 1e3):
        tape = Tape()
        h = tape.const(rng.standard_normal((6, 64)) * scale)
        pairs, _, logits = _features(tape, params, prev, curr, h)
        assert len(pairs) and np.all(np.isfinite(logits.value))
        for label in (0.0, 1.0):
            loss = tape.bce(logits, np.full(len(pairs), label),
                            np.ones(len(pairs)))
            assert np.isfinite(loss.value[0, 0])


def _links(entries):
    """(prev, curr, logit, distance) tuples as select_top_k's arrays."""
    pairs = np.array([[p, c] for p, c, _, _ in entries]).reshape(-1, 2)
    scores = np.array([s for _, _, s, _ in entries])
    dists = np.array([d for _, _, _, d in entries])
    return pairs, dists, scores


def test_top_k_keeps_all_when_fewer():
    pairs, dists, scores = _links([(i, 0, 0.5 + 0.1 * i, 1.0) for i in range(3)])
    sel, top = select_top_k(pairs, dists, scores, 10)
    assert list(pairs[sel, 1]) == [0, 0, 0] and list(top) == [True, False, False]
    assert list(pairs[sel, 0]) == [2, 1, 0]


def test_top_k_tie_broken_by_distance():
    pairs, dists, scores = _links([(0, 0, 0.5, 2.0), (1, 0, 0.5, 1.0)])
    sel, _ = select_top_k(pairs, dists, scores, 1)
    assert list(pairs[sel, 0]) == [1]


def test_top_k_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n_links = int(rng.integers(1, 26))
        entries = [(int(rng.integers(0, 12)), int(rng.integers(0, 3)),
                    float(rng.random()), float(rng.uniform(0, 10)))
                   for _ in range(n_links)]
        pairs, dists, scores = _links(entries)
        sel, top = select_top_k(pairs, dists, scores, 10)
        by_curr = {}
        for p, c, s, d in entries:
            by_curr.setdefault(c, []).append((s, d, p))
        curr = pairs[sel, 1]
        assert np.all(np.diff(curr) >= 0)  # (curr, rank) order
        assert np.array_equal(top, np.diff(curr, prepend=-1) != 0)
        assert sorted(np.unique(curr).tolist()) == sorted(by_curr)
        for c in by_curr:
            want = topk_brute_force(by_curr[c], 10)
            got = [(scores[i], dists[i], pairs[i, 0]) for i in sel[curr == c]]
            assert got == want


def test_select_top_k_segment_layout():
    pairs = np.array([[0, 0], [1, 0], [2, 0], [0, 1]])
    dists = np.array([1.0, 2.0, 3.0, 4.0])
    scores = np.array([0.9, 0.8, 0.95, 0.5])
    sel, top = select_top_k(pairs, dists, scores, 2)
    assert list(pairs[sel, 1]) == [0, 0, 1]
    assert list(top) == [True, False, True]
    # best two for det 0: prev 2 (0.95) then prev 0 (0.9)
    assert list(pairs[sel, 0]) == [2, 0, 0]


def test_select_top_k_zero_pairs():
    # a transition without pairs keeps none: every detection is a birth
    pairs, dists = _gate_one_block(np.zeros((0, 2)), np.zeros((3, 2)), 5.0)
    assert pairs.shape == (0, 2) and dists.shape == (0,)
    sel, top = select_top_k(pairs, dists, np.zeros(0), 4)
    assert sel.shape == top.shape == (0,)
    assert sel.dtype.kind == "i" and top.dtype == bool


def test_window_gating_matches_each_window_alone():
    # windows side by side in one frame (the SIM's final step) overlap in
    # space; gating pairs only within a window gives each window's own pairs
    # and distances, bitwise
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
        wp, wd = _gate_one_block(p, c, 6.0)
        want_pairs.append(wp + [prev_off, curr_off])
        want_dists.append(wd)
        prev_off += len(p)
        curr_off += len(c)
    assert np.array_equal(pairs, np.concatenate(want_pairs))
    assert np.array_equal(dists, np.concatenate(want_dists))

    for _ in range(50):  # random packs, bitwise the summed (N, M, 2) form
        n_prev, n_curr = rng.integers(0, 60, size=2)
        prev_pos = rng.uniform(-15, 15, (n_prev, 2))
        curr_pos = rng.uniform(-15, 15, (n_curr, 2))
        prev_win = np.sort(rng.integers(0, 3, n_prev))
        curr_win = np.sort(rng.integers(0, 3, n_curr))
        got = gate_positions(prev_pos, curr_pos, 6.0, prev_win, curr_win)
        want = gate_reference(prev_pos, curr_pos, 6.0, prev_win, curr_win)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_compound_ids_gate_each_transition_alone():
    # every transition of several windows side by side in one call:
    # previous side frames 0..T-2, current side 1..T-1, compound block id
    # transition * n_windows + window; cut at the transitions' first current
    # rows, the pairs and distances are bitwise those of one call per
    # transition
    rng = np.random.default_rng(35)
    n_win = 3
    frames = []  # (positions, window ids) per frame
    for t in range(7):
        sizes = [0] * n_win if t == 3 else rng.integers(0, 9, n_win)
        frames.append((rng.uniform(-8, 8, (sum(sizes), 2)),
                       np.repeat(np.arange(n_win), sizes)))
    off = np.cumsum([0] + [len(p) for p, _ in frames])
    pos = np.concatenate([p for p, _ in frames])
    block = np.concatenate([t * n_win + w for t, (_, w) in enumerate(frames)])
    pairs, dists = gate_positions(pos[:off[-2]], pos[off[1]:], 6.0,
                                  block[:off[-2]], block[off[1]:] - n_win)
    cut = np.searchsorted(pairs[:, 1], off[1:] - off[1])
    for t in range(1, len(frames)):
        (prev, prev_win), (curr, curr_win) = frames[t - 1], frames[t]
        want_pairs, want_dists = gate_positions(prev, curr, 6.0, prev_win,
                                                curr_win)
        lo, hi = cut[t - 1], cut[t]
        assert np.array_equal(pairs[lo:hi] - [off[t - 1], off[t] - off[1]],
                              want_pairs)
        assert np.array_equal(dists[lo:hi], want_dists)
    assert cut[-1] == len(pairs) and cut[2] == cut[3] == cut[4]
