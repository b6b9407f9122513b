"""ASU, MSA, and the full per-sequence encoding loop."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import uncertrack.affinity as affinity
import uncertrack.encoder as encoder
from uncertrack.detections import Detection, FrameArrays
from uncertrack.encoder import (asu_update, encode_sequence, final_step,
                                implicit_chains, msa_aggregate)
from uncertrack.errors import ConfigError
from uncertrack.forecaster import MeanPoolSIM, forecast_sequence
from uncertrack.model import ModelConfig, init_model, variant_config
from uncertrack.numerics import Tape, mlp_forward
from uncertrack.world import NoiseConfig, corrupt_to_detections, generate_world

from oracles import (best_prev_loop, chains_from, encode_loop, fd_gradient,
                     float64_copy, msa_direct, pairs_per_transition, rel_err)


def _small_config(**kw):
    base = dict(det_dim=8, mov_dim=4, field_dim=4, hidden_dim=6,
                k_candidates=4)
    base.update(kw)
    return ModelConfig(**base)


def _frames_from_log(log, start, length):
    return [FrameArrays.from_detections(log.frames[t])
            for t in range(start, start + length)]


def _ages(enc):
    # a final detection's age: the linked predecessors in its implicit chain
    return (implicit_chains(enc)[:, 1:] >= 0).sum(axis=1).tolist()


def test_birth_state_is_zero():
    # a detection with no gated predecessor starts from zero states and age
    # 0, exactly like a detection of the window's first frame
    def frame(x):
        return FrameArrays.from_detections([Detection(
            pos=(x, 0.0), velo=(8.0, 0.0), size=(4, 2, 1.5), heading=0.0,
            score=0.9)])

    params = init_model(ModelConfig(), seed=9)
    born = encode_sequence(Tape(), params, [frame(0.0), frame(50.0)])
    assert pairs_per_transition(born) == [0]
    assert np.array_equal(born.h_mot_final.value, np.zeros((1, 64)))
    assert _ages(born) == [0]
    # the affinity state of a birth reaches the next update through ASU
    later = encode_sequence(Tape(), params,
                            [frame(0.0), frame(50.0), frame(50.8)])
    first = encode_sequence(Tape(), params, [frame(50.0), frame(50.8)])
    assert np.array_equal(later.h_mot_final.value, first.h_mot_final.value)
    assert _ages(later) == _ages(first) == [1]


def test_asu_zero_params_zero_outputs():
    cfg = _small_config()
    params = init_model(cfg, seed=0)
    for block in params.blocks():
        for w in block.weights:
            w[...] = 0.0
    tape = Tape()
    h_mot, h_aff = asu_update(tape, params,
                              tape.const(np.zeros((1, cfg.x_dim))),
                              np.zeros((1, cfg.aff_dim)),
                              np.zeros((1, 6)), np.zeros((1, 6)))
    assert np.array_equal(h_mot.value, np.zeros((1, 6)))
    assert np.array_equal(h_aff.value, np.zeros((1, 6)))


def test_asu_deterministic():
    cfg = _small_config()
    params = init_model(cfg, seed=1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, cfg.x_dim))
    a = rng.standard_normal((3, cfg.aff_dim))
    pm = np.tanh(rng.standard_normal((3, 6)))
    pa = np.tanh(rng.standard_normal((3, 6)))
    one, two = (asu_update(tape, params, tape.const(x), a, pm, pa)
                for tape in (Tape(), Tape()))
    assert np.array_equal(one[0].value, two[0].value)
    assert np.array_equal(one[1].value, two[1].value)


def test_asu_coupling_gradient_through_affinity_gru():
    # sum(h_mot) must have nonzero, finite-difference-consistent gradients
    # w.r.t. the affinity-chain GRU parameters: the ASU path is live.
    cfg = _small_config()
    params = float64_copy(init_model(cfg, seed=2))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, cfg.x_dim))
    a = rng.standard_normal((2, cfg.aff_dim))
    pm = np.tanh(rng.standard_normal((2, 6)))
    pa = np.tanh(rng.standard_normal((2, 6)))

    def forward():
        tape = Tape()
        h_mot, _ = asu_update(tape, params, tape.const(x), a, pm, pa)
        return tape, tape.sum(h_mot)

    params.zero_grads()
    tape, loss = forward()
    tape.backward(loss)
    analytic = [g.copy() for g in params.gru_aff.block.grads]
    assert any(np.abs(g).max() > 0 for g in analytic)

    def value():
        return float(forward()[1].value[0, 0])

    for w, ana in zip(params.gru_aff.block.weights, analytic):
        assert rel_err(ana, fd_gradient(value, w)) < 1e-4
    params.zero_grads()


def test_msa_single_candidate_is_gated_identity():
    cfg = _small_config()
    params = init_model(cfg, seed=4)
    rng = np.random.default_rng(5)
    h_k = np.tanh(rng.standard_normal((1, 6)))
    pm = np.tanh(rng.standard_normal((1, 6)))
    x = rng.standard_normal((1, cfg.x_dim))
    s = np.array([[0.7]])
    tape = Tape()
    h_mot, _, alpha = msa_aggregate(tape, params, np.array([0]), 1,
                                    tape.const(h_k), tape.const(pm),
                                    tape.const(x), tape.const(s))
    assert np.array_equal(alpha.value, np.array([[1.0]]))
    # gate still applies: output = g * h, strictly inside (-|h|, |h|)
    g = 1.0 / (1.0 + np.exp(-(np.concatenate([h_k, pm, x], axis=1)
                              @ params.gate_mot.block.weights[0]
                              + params.gate_mot.block.weights[1])))
    assert np.allclose(h_mot.value, g * h_k, atol=1e-12)


def test_msa_uniform_scores_allone_gates_take_mean():
    cfg = _small_config()
    params = init_model(cfg, seed=6)
    params.gate_mot.block.weights[0][...] = 0.0
    params.gate_mot.block.weights[1][...] = 500.0  # sigmoid saturates to 1.0
    rng = np.random.default_rng(7)
    k = 3
    h_k = np.tanh(rng.standard_normal((k, 6)))
    tape = Tape()
    h_mot, _, alpha = msa_aggregate(
        tape, params, np.zeros(k, dtype=int), 1, tape.const(h_k),
        tape.const(np.zeros((k, 6))), tape.const(np.zeros((k, cfg.x_dim))),
        tape.const(np.full((k, 1), 0.42)))
    assert np.allclose(alpha.value, 1.0 / k, atol=1e-12)
    assert np.allclose(h_mot.value, h_k.mean(axis=0, keepdims=True), atol=1e-9)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_msa_matches_term_by_term_oracle(seed):
    cfg = _small_config()
    params = init_model(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    h_mot_k = np.tanh(rng.standard_normal((k, 6)))
    h_aff_k = np.tanh(rng.standard_normal((k, 6)))
    prev_mot = np.tanh(rng.standard_normal((k, 6)))
    prev_aff = np.tanh(rng.standard_normal((k, 6)))
    x = rng.standard_normal((k, cfg.x_dim))
    a = rng.standard_normal((k, cfg.aff_dim))
    logits = rng.uniform(-3.0, 3.0, (k, 1))

    tape = Tape()
    h_mot, h_aff, alpha = msa_aggregate(
        tape, params, np.zeros(k, dtype=int), 1, tape.const(h_mot_k),
        tape.const(prev_mot), tape.const(x), tape.const(logits),
        h_aff_k=tape.const(h_aff_k), prev_aff=tape.const(prev_aff),
        a=tape.const(a))

    want_mot, want_aff, want_alpha = msa_direct(
        h_mot_k, prev_mot, x, h_aff_k, prev_aff, a, logits[:, 0],
        params.gate_mot.block.weights[0], params.gate_mot.block.weights[1][0],
        params.gate_aff.block.weights[0], params.gate_aff.block.weights[1][0])

    assert np.max(np.abs(h_mot.value[0] - want_mot)) < 1e-9
    assert np.max(np.abs(h_aff.value[0] - want_aff)) < 1e-9
    assert np.max(np.abs(alpha.value[:, 0] - want_alpha)) < 1e-9


def test_msa_alpha_properties():
    cfg = _small_config()
    params = init_model(cfg, seed=13)
    rng = np.random.default_rng(14)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        logits = rng.uniform(-4.0, 4.0, (k, 1))
        tape = Tape()
        h_mot, _, alpha = msa_aggregate(
            tape, params, np.zeros(k, dtype=int), 1,
            tape.const(np.tanh(rng.standard_normal((k, 6)))),
            tape.const(np.tanh(rng.standard_normal((k, 6)))),
            tape.const(rng.standard_normal((k, cfg.x_dim))),
            tape.const(logits))
        al = alpha.value[:, 0]
        assert abs(al.sum() - 1.0) < 1e-9
        order = np.argsort(logits[:, 0])
        assert np.all(np.diff(al[order]) > 0) or k == 1


def test_msa_candidate_order_invariance():
    cfg = _small_config()
    params = init_model(cfg, seed=15)
    rng = np.random.default_rng(16)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        h_k = np.tanh(rng.standard_normal((k, 6)))
        pm = np.tanh(rng.standard_normal((k, 6)))
        x = rng.standard_normal((k, cfg.x_dim))
        s = rng.uniform(-3.0, 3.0, (k, 1))
        perm = rng.permutation(k)

        def run(hk, pmv, xv, sv):
            tape = Tape()
            out, _, _ = msa_aggregate(tape, params, np.zeros(k, dtype=int), 1,
                                      tape.const(hk), tape.const(pmv),
                                      tape.const(xv), tape.const(sv))
            return out.value

        a = run(h_k, pm, x, s)
        b = run(h_k[perm], pm[perm], x[perm], s[perm])
        assert np.max(np.abs(a - b)) < 1e-9


def test_msa_gates_bounded():
    cfg = _small_config()
    params = init_model(cfg, seed=17)
    rng = np.random.default_rng(18)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        h_k = np.tanh(rng.standard_normal((k, 6)))
        pm = np.tanh(rng.standard_normal((k, 6)))
        x = rng.standard_normal((k, cfg.x_dim))
        tape = Tape()
        g = tape.sigmoid(mlp_forward(tape, params.gate_mot,
                                     tape.concat([tape.const(h_k),
                                                  tape.const(pm),
                                                  tape.const(x)])))
        assert np.all(g.value > 0.0) and np.all(g.value < 1.0)


def test_msa_zero_candidates_give_zero_states():
    # a segment without candidates (a birth) is a zero row: zero candidates
    # give (n_seg, H) zero states, and a backward pass through them adds
    # zeros to the previous states' gradient
    cfg = _small_config()
    params = init_model(cfg, seed=19)
    for n_seg in (0, 3):
        tape = Tape()
        prev_mot = tape.param(np.zeros((3, 6)), np.zeros((3, 6)))

        def rows(n_cols):
            return tape.const(np.zeros((0, n_cols)))

        h_mot, h_aff, alpha = msa_aggregate(
            tape, params, np.zeros(0, dtype=int), n_seg,
            rows(6), tape.gather_rows(prev_mot, np.zeros(0, dtype=int)),
            rows(cfg.x_dim), rows(1), h_aff_k=rows(6), prev_aff=rows(6),
            a=rows(cfg.aff_dim))
        assert np.array_equal(h_mot.value, np.zeros((n_seg, 6)))
        assert np.array_equal(h_aff.value, np.zeros((n_seg, 6)))
        assert alpha.value.shape == (0, 1)
        tape.backward(tape.sum(h_mot))
        assert np.array_equal(prev_mot.grad, np.zeros((3, 6)))


# ---- encode_sequence ---------------------------------------------------------


def test_single_agent_unambiguous_world():
    tracks = generate_world(1, 80, motion_mix={"cv": 1.0}, seed=20)
    log = corrupt_to_detections(tracks, NoiseConfig.zero(), seed=0)
    start = tracks[0].birth_frame
    frames = _frames_from_log(log, start, 20)
    params = init_model(ModelConfig(), seed=21)
    enc = encode_sequence(Tape(), params, frames)
    assert enc.h_mot_final.value.shape == (1, 64)
    assert pairs_per_transition(enc) == [1] * 19
    assert len(enc.alphas) == 19 and np.allclose(enc.alphas, 1.0)
    assert _ages(enc) == [19]


def test_gating_isolation_between_far_agents():
    # two agents > theta_d apart encode exactly as if each were alone
    def mk_frames(offsets):
        frames = []
        for t in range(6):
            dets = []
            for off in offsets:
                dets.append(Detection(pos=(off + 0.8 * t, 0.0),
                                      velo=(8.0, 0.0), size=(4, 2, 1.5),
                                      heading=0.0, score=0.9))
            frames.append(FrameArrays.from_detections(dets))
        return frames

    params = float64_copy(init_model(ModelConfig(), seed=22))
    both = encode_sequence(Tape(), params, mk_frames([0.0, 30.0]))
    alone0 = encode_sequence(Tape(), params, mk_frames([0.0]))
    alone1 = encode_sequence(Tape(), params, mk_frames([30.0]))
    # same dot products, but BLAS rounds 1-row and 2-row batches differently
    assert np.max(np.abs(both.h_mot_final.value[0]
                         - alone0.h_mot_final.value[0])) < 1e-12
    assert np.max(np.abs(both.h_mot_final.value[1]
                         - alone1.h_mot_final.value[0])) < 1e-12


def test_dropped_frame_births_new_state():
    # agent static at origin; frame 2 empty; its reappearance at frame 3 has
    # no gated candidate (gap frame had no detections), so it is a birth.
    det = Detection(pos=(0.0, 0.0), velo=(0.0, 0.0), size=(4, 2, 1.5),
                    heading=0.0, score=0.9)
    frames = [FrameArrays.from_detections(dets)
              for dets in ([det], [det], [], [det], [det])]
    params = init_model(ModelConfig(), seed=23)
    enc = encode_sequence(Tape(), params, frames)
    # hand-traced schedule: transitions have 1, 0, 0, 1 candidates
    assert pairs_per_transition(enc) == [1, 0, 0, 1]
    assert _ages(enc) == [1]  # reborn at frame 3, one update since
    assert implicit_chains(enc).tolist() == [[0, 0, -1, -1, -1]]


def test_empty_final_frame_gives_empty_encoding():
    det = Detection(pos=(0.0, 0.0), velo=(0.0, 0.0), size=(4, 2, 1.5),
                    heading=0.0, score=0.9)
    frames = [FrameArrays.from_detections(dets) for dets in ([det], [det], [])]
    params = init_model(ModelConfig(), seed=24)
    enc = encode_sequence(Tape(), params, frames)
    assert enc.h_mot_final.value.shape == (0, 64)


def test_alpha_sums_per_detection_in_full_world():
    tracks = generate_world(8, 100, seed=25)
    log = corrupt_to_detections(tracks, NoiseConfig(), seed=26)
    frames = _frames_from_log(log, 30, 12)
    params = float64_copy(init_model(ModelConfig(), seed=27))
    enc = encode_sequence(Tape(), params, frames)
    # a detection's candidates are the selected pairs into its row
    curr = enc.pairs[enc.selected, 1]
    assert len(curr) > 0
    sums = np.zeros(enc.offsets[-1])
    np.add.at(sums, curr, enc.alphas)
    assert np.max(np.abs(sums[np.unique(curr)] - 1.0)) < 1e-9


def test_affinity_parameters_reach_forecast_path():
    # gradient of a loss on the final encoding w.r.t. MLP_aff is nonzero and
    # matches finite differences: affinity logits drive alpha and h_aff.
    tracks = generate_world(3, 80, seed=28, area=15.0)
    log = corrupt_to_detections(
        tracks, NoiseConfig(pos_sigma=0.3, miss_rate=0.0, fp_rate=1.0,
                            burst_prob=0.0), seed=29)
    # K above the candidate counts so the selected set is perturbation-stable
    cfg = _small_config(theta_d=10.0, k_candidates=10)
    params = float64_copy(init_model(cfg, seed=30))
    start = max(t.birth_frame for t in tracks)
    frames = _frames_from_log(log, start, 5)

    def forward():
        tape = Tape()
        enc = encode_sequence(tape, params, frames)
        w = np.linspace(0.5, 1.5, enc.h_mot_final.value.size).reshape(
            enc.h_mot_final.value.shape)
        return tape, tape.sum(tape.mul(enc.h_mot_final, tape.const(w)))

    params.zero_grads()
    tape, loss = forward()
    tape.backward(loss)
    analytic = [g.copy() for g in params.mlp_aff.block.grads]
    assert any(np.abs(g).max() > 1e-12 for g in analytic)

    def value():
        return float(forward()[1].value[0, 0])

    for w, ana in zip(params.mlp_aff.block.weights, analytic):
        assert rel_err(ana, fd_gradient(value, w)) < 1e-4
    params.zero_grads()


@pytest.mark.parametrize("variant", ["full", "baseline"])
def test_diagnostics_match_segment_loop_oracle(variant):
    # best_prev, ages and implicit chains of a run of seeded windows laid
    # end to end equal the one-segment-at-a-time reference
    windows = []
    for seed in (40, 41, 42):
        log = corrupt_to_detections(generate_world(8, 100, seed=seed),
                                    NoiseConfig(), seed=seed)
        windows.append(_frames_from_log(log, 30, 12))
    params = init_model(variant_config(variant, _small_config()), seed=43)
    enc = encode_sequence(Tape(), params, *_end_to_end(windows))

    want, ages = best_prev_loop(enc.pairs, enc.selected, enc.alphas,
                                enc.offsets[-1])
    assert np.array_equal(enc.best_prev, want)
    assert _ages(enc) == ages[enc.offsets[-2]:].tolist()
    assert implicit_chains(enc).tolist() == chains_from(want, enc.offsets)


def _lone_window():
    log = corrupt_to_detections(generate_world(24, 100, seed=44),
                                NoiseConfig(), seed=44)
    return _frames_from_log(log, 30, 20)


def _random_windows(seed):
    # three windows of 8 frames in one 12 m square: frame 4 is empty in
    # every window, and a window may have no rows in any other frame
    rng = np.random.default_rng(seed)
    windows = []
    for _ in range(3):
        sizes = [0 if t == 4 else int(rng.integers(0, 9)) for t in range(8)]
        windows.append([FrameArrays(
            pos=rng.uniform(0, 12, (n, 2)), velo=rng.normal(0, 3, (n, 2)),
            size=rng.uniform(1, 5, (n, 3)), heading=rng.uniform(-3, 3, n),
            score=rng.uniform(0.1, 0.9, n)) for n in sizes])
    return windows


def _end_to_end(windows):
    # equally long windows laid end to end: the run and the windows' starts
    return ([f for w in windows for f in w],
            len(windows[0]) * np.arange(len(windows)))


def _grads(params, tape, h_final, logits):
    # gradients of a loss that reaches every encoder weight through the
    # final states and through every transition's logits
    w = np.linspace(0.5, 1.5, h_final.value.size, dtype=h_final.value.dtype)
    loss = tape.sum(tape.mul(h_final, tape.const(w.reshape(h_final.shape))))
    for z in logits:
        loss = tape.add(loss, tape.sum(z))
    params.zero_grads()
    tape.backward(loss)
    grads = [g.copy() for b in params.blocks() for g in b.grads]
    params.zero_grads()
    return grads


@pytest.mark.parametrize("variant", ["full", "baseline"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("layout", ["lone", "pack"])
def test_encoding_matches_the_per_transition_loop(layout, dtype, variant):
    # one embedding, one gate call and one movement MLP per pass, cut per
    # transition, give bitwise what calling them per frame or per transition
    # gives; gradients differ only by summation order
    # (a pack is windows laid end to end, encoded with their starts)
    windows = [_lone_window()] if layout == "lone" else _random_windows(45)
    params = init_model(variant_config(variant, ModelConfig()), seed=46)
    if dtype == "float64":
        params = float64_copy(params)
    tape, loop_tape = Tape(), Tape()
    enc = encode_sequence(tape, params, *_end_to_end(windows))
    h_final, (pairs, logits, sel, alphas) = encode_loop(loop_tape, params,
                                                         windows)

    assert enc.h_mot_final.value.dtype == np.dtype(dtype)
    assert np.array_equal(enc.h_mot_final.value, h_final.value)
    assert len(logits) == len(windows[0]) - 1
    if layout == "pack":  # the empty frame 4 leaves two transitions pairless
        assert pairs_per_transition(enc)[3:5] == [0, 0]
    assert enc.pairs.dtype == pairs.dtype
    assert np.array_equal(enc.pairs, pairs)
    assert np.array_equal(enc.logits.value,
                          np.concatenate([z.value for z in logits]))
    assert np.array_equal(enc.selected, sel)
    assert np.array_equal(enc.alphas, alphas)

    got = _grads(params, tape, enc.h_mot_final, [enc.logits])
    want = _grads(params, loop_tape, h_final, logits)
    tol = 100 * np.finfo(dtype).eps
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w), initial=0.0) <= tol * np.max(np.abs(w),
                                                                 initial=0.0)


def test_frame_local_stages_run_once_per_pass(monkeypatch):
    params = init_model(ModelConfig(), seed=47)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("embed_frame", "gate_positions", "select_top_k"):
        monkeypatch.setattr(encoder, name,
                            counted(name, getattr(encoder, name)))
    mlp_forward_ = affinity.mlp_forward

    def mlp_forward_counted(tape, layer, x):
        calls["mlp_mov"] += layer is params.mlp_mov
        return mlp_forward_(tape, layer, x)

    monkeypatch.setattr(affinity, "mlp_forward", mlp_forward_counted)
    for frames, starts in ((_lone_window(), (0,)),
                           _end_to_end(_random_windows(48)),
                           (_world_run(30), (0, 5, 10))):
        calls.clear()
        encode_sequence(Tape(), params, frames, starts)
        assert calls == {"embed_frame": 1, "gate_positions": 1, "mlp_mov": 1,
                         "select_top_k": len(frames) - starts[-1] - 1}


def test_windows_laid_end_to_end_gate_only_their_own_transitions(monkeypatch):
    # three 5-frame windows laid end to end, each window's first frame a
    # copy of the previous window's last one moved by 1 cm: the gate is
    # offered exactly the 3 * 4 transitions inside the windows, and no pair
    # joins a window's last frame to the next window's first
    steps, n_win = 5, 3
    frames = _random_run(57, steps * n_win, empty=())
    starts = steps * np.arange(n_win)
    for s in starts[1:]:
        frames[s] = replace(frames[s - 1], pos=frames[s - 1].pos + 0.01)
    frame_of = {tuple(p): t for t, f in enumerate(frames) for p in f.pos}
    offered, gated = set(), set()
    gate = encoder.gate_positions

    def spy(prev_pos, curr_pos, theta_d, prev_ids, curr_ids):
        pairs, dists = gate(prev_pos, curr_pos, theta_d, prev_ids, curr_ids)
        for b in np.intersect1d(prev_ids, curr_ids):
            offered.update((frame_of[tuple(p)], frame_of[tuple(c)])
                           for p in prev_pos[prev_ids == b]
                           for c in curr_pos[curr_ids == b])
        gated.update((frame_of[tuple(prev_pos[i])], frame_of[tuple(curr_pos[j])])
                     for i, j in pairs)
        return pairs, dists

    monkeypatch.setattr(encoder, "gate_positions", spy)
    params = init_model(ModelConfig(), seed=58)
    encode_sequence(Tape(), params, frames, starts)
    inside = {(s + t, s + t + 1) for s in starts for t in range(steps - 1)}
    assert offered == inside and len(inside) == n_win * (steps - 1)
    assert gated <= inside and len(gated) == len(inside)
    for s in starts[1:]:  # the boundaries would pair if they were gated
        prev, curr = frames[s - 1].pos, frames[s].pos
        assert len(gate(prev, curr, params.config.theta_d,
                        np.zeros(len(prev), dtype=int),
                        np.zeros(len(curr), dtype=int))[0]) > 0


@pytest.mark.parametrize("variant", ["full", "baseline"])
@pytest.mark.parametrize("layout", ["random", "worlds"])
def test_diagnostics_of_a_pack_equal_each_window_alone(layout, variant):
    # best_prev and implicit_chains of a pack of windows laid end to end
    # (with an empty frame, or of seeded worlds with long chains) are each
    # window's own, shifted by the rows of the windows laid out before it
    if layout == "random":
        windows = _random_windows(49)
    else:
        windows = [_frames_from_log(corrupt_to_detections(
            generate_world(8, 100, seed=seed), NoiseConfig(), seed=seed), 30, 12)
            for seed in (40, 41, 42)]
    params = init_model(variant_config(variant, ModelConfig()), seed=50)
    pack = encode_sequence(Tape(), params, *_end_to_end(windows))
    pack_chains = implicit_chains(pack)
    # before[w][t]: rows of windows 0..w-1 in frame t
    before = np.cumsum([[0] * len(windows[0])]
                       + [[len(f) for f in w] for w in windows], axis=0)
    final = 0
    for w, frames in enumerate(windows):
        alone = encode_sequence(Tape(), params, frames)
        # laid-out row of the pack for each of the window's rows
        to_pack = np.concatenate([
            pack.offsets[t] + before[w][t] + np.arange(len(f))
            for t, f in enumerate(frames)])
        linked = alone.best_prev >= 0
        assert linked.any() and not linked.all()
        assert np.all(pack.best_prev[to_pack][~linked] == -1)
        assert np.array_equal(pack.best_prev[to_pack][linked],
                              to_pack[alone.best_prev[linked]])
        chains = implicit_chains(alone)
        shift = before[w][::-1]  # columns run from the final frame back
        want = np.where(chains >= 0, chains + shift, -1)
        n = len(frames[-1])
        assert np.array_equal(pack_chains[final:final + n], want)
        final += n
    assert final == len(pack_chains)
    assert np.any(pack_chains[:, 1:] >= 0)


def test_k_candidates_do_nothing_without_msa():
    # without MSA only the top-ranked candidate is kept, whatever K is
    frames = _lone_window()
    runs = []
    for k in (1, 10):
        params = init_model(variant_config("asu", replace(ModelConfig(),
                                                          k_candidates=k)),
                            seed=51)
        tape = Tape()
        enc = encode_sequence(tape, params, frames)
        runs.append((enc, _grads(params, tape, enc.h_mot_final, [enc.logits])))
    (one, g_one), (ten, g_ten) = runs
    assert np.array_equal(one.h_mot_final.value, ten.h_mot_final.value)
    assert np.array_equal(one.logits.value, ten.logits.value)
    assert np.array_equal(one.selected, ten.selected)
    # every current detection with candidates keeps exactly one
    curr = ten.pairs[ten.selected, 1]
    assert len(curr) > 0 and len(np.unique(curr)) == len(curr)
    assert len(np.unique(ten.pairs[:, 1])) == len(curr) < len(ten.pairs)
    assert all(np.array_equal(a, b) for a, b in zip(g_one, g_ten))


def _random_run(seed, n_frames, empty):
    # frames in one 12 m square, the frames in ``empty`` without rows
    rng = np.random.default_rng(seed)
    sizes = [0 if t in empty else int(rng.integers(1, 9))
             for t in range(n_frames)]
    return [FrameArrays(
        pos=rng.uniform(0, 12, (n, 2)), velo=rng.normal(0, 3, (n, 2)),
        size=rng.uniform(1, 5, (n, 3)), heading=rng.uniform(-3, 3, n),
        score=rng.uniform(0.1, 0.9, n)) for n in sizes]


def _world_run(n_frames):
    log = corrupt_to_detections(generate_world(24, 100, seed=44),
                                NoiseConfig(), seed=44)
    return _frames_from_log(log, 10, n_frames)


# (run, steps, starts): overlapping windows at stride 1 and 5, disjoint
# windows, and a run with an empty frame inside every window and an empty
# last frame in window 2
RUNS = {
    "stride-1": lambda: (_world_run(20), 15, (0, 1, 2, 3, 4, 5)),
    "stride-5": lambda: (_world_run(45), 20, (0, 5, 10, 15, 20, 25)),
    "disjoint": lambda: (_world_run(37), 12, (0, 25)),
    "empty": lambda: (_random_run(52, 15, empty=(6, 10)), 8, (0, 1, 3, 7)),
}


def _laid_out(frames, steps, starts, offsets):
    # the laid-out row of every row of each window encoded alone, and the
    # rows of the windows before it at each step
    before = np.cumsum([[0] * steps]
                       + [[len(frames[s + t]) for t in range(steps)]
                          for s in starts], axis=0)
    rows = [np.concatenate([offsets[t] + before[j][t]
                            + np.arange(len(frames[s + t]))
                            for t in range(steps)])
            for j, s in enumerate(starts)]
    return rows, before


def _close(got, want, dtype):
    # equal up to the rounding of BLAS products over matrices of another
    # height (a window alone has fewer rows than the pass it is laid out in)
    tol = 100 * np.finfo(dtype).eps * max(np.max(np.abs(want), initial=0.0), 1.0)
    return got.shape == want.shape and np.max(np.abs(got - want),
                                              initial=0.0) <= tol


@pytest.mark.parametrize("variant", ["full", "baseline"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("layout", list(RUNS))
def test_laid_out_windows_encode_as_each_window_alone(layout, dtype, variant):
    # each window's rows, pairs, selections and predecessors in one pass
    # over a run of frames with window starts are those of the window
    # encoded alone
    frames, steps, starts = RUNS[layout]()
    params = init_model(variant_config(variant, ModelConfig()), seed=53)
    if dtype == "float64":
        params = float64_copy(params)
    windows = [frames[s:s + steps] for s in starts]
    run = encode_sequence(Tape(), params, frames, starts)

    rows, before = _laid_out(frames, steps, starts, run.offsets)
    run_chains = implicit_chains(run)
    final = 0
    for j, window in enumerate(windows):
        alone = encode_sequence(Tape(), params, window)
        to_run = rows[j]
        mine = np.isin(run.pairs[:, 1], to_run)
        assert np.array_equal(run.pairs[mine], to_run[alone.pairs])
        assert np.array_equal(run.pair_block[mine],
                              alone.pair_block * len(starts) + j)
        assert _close(run.logits.value[mine], alone.logits.value, dtype)
        kept = mine[run.selected]
        assert np.array_equal(run.selected[kept],
                              np.flatnonzero(mine)[alone.selected])
        assert _close(run.alphas[kept], alone.alphas, dtype)
        linked = alone.best_prev >= 0
        assert np.array_equal(run.best_prev[to_run],
                              np.where(linked, to_run[alone.best_prev], -1))
        n = len(window[-1])
        assert _close(run.h_mot_final.value[final:final + n],
                      alone.h_mot_final.value, dtype)
        chains = implicit_chains(alone)
        assert np.array_equal(run_chains[final:final + n],
                              np.where(chains >= 0, chains + before[j][::-1], -1))
        final += n
    assert final == len(run_chains) == len(run.h_mot_final.value)
    assert len(run.pairs) > 0 and np.any(run_chains[:, 1:] >= 0)


@pytest.mark.parametrize("layout", list(RUNS))
def test_laid_out_forecasts_equal_each_window_alone(layout):
    frames, steps, starts = RUNS[layout]()
    params = init_model(ModelConfig(), seed=54)
    for w in params.mlp_dec.block.weights:
        w *= 30.0  # forecasts that move away from the detections
    sim = MeanPoolSIM(radius=10.0)
    windows = [frames[s:s + steps] for s in starts]
    _, run = forecast_sequence(params, frames, sim=sim, starts=starts)
    alone = [f for w in windows for f in forecast_sequence(params, w, sim=sim)[1]]
    assert len(run) == len(alone)
    for f, a in zip(run, alone):
        assert _close(f.waypoints, a.waypoints, np.float32)
    assert final_step(frames, starts)[1].tolist() == [
        j for j, w in enumerate(windows) for _ in range(len(w[-1]))]


@pytest.mark.parametrize("starts", [(), (1, 2), (0, 3, 2), (0, 0, 1), (0, 9)])
def test_window_starts_must_ascend_from_zero_and_leave_two_frames(starts):
    frames = _random_run(55, 10, empty=())
    with pytest.raises(ConfigError, match="window starts|at least 2 frames"):
        encode_sequence(Tape(), init_model(ModelConfig(), seed=56), frames,
                        starts)
