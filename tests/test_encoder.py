"""ASU, MSA, and the full per-sequence encoding loop."""

import numpy as np
import pytest

from uncertrack.detections import Detection, FrameArrays, stack_windows
from uncertrack.encoder import (asu_update, encode_sequence, implicit_chains,
                                msa_aggregate)
from uncertrack.errors import ConfigError
from uncertrack.model import ModelConfig, init_model, variant_config
from uncertrack.numerics import Tape, mlp_forward
from uncertrack.world import NoiseConfig, corrupt_to_detections, generate_world

from oracles import (best_prev_loop, chains_from, fd_gradient, msa_direct,
                     rel_err)


def _small_config(**kw):
    base = dict(det_dim=8, mov_dim=4, field_dim=4, hidden_dim=6,
                k_candidates=4)
    base.update(kw)
    return ModelConfig(**base)


def _frames_from_log(log, start, length):
    return [FrameArrays.from_detections(log.frames[t])
            for t in range(start, start + length)]


def test_birth_state_is_zero():
    # a detection with no gated predecessor starts from zero states and age
    # 0, exactly like a detection of the window's first frame
    def frame(x):
        return FrameArrays.from_detections([Detection(
            pos=(x, 0.0), velo=(8.0, 0.0), size=(4, 2, 1.5), heading=0.0,
            score=0.9)])

    params = init_model(ModelConfig(), seed=9)
    born = encode_sequence(Tape(), params, [frame(0.0), frame(50.0)])
    assert [len(r.pairs) for r in born.transitions] == [0]
    assert np.array_equal(born.h_mot_final.value, np.zeros((1, 64)))
    assert born.ages_final[0] == 0
    # the affinity state of a birth reaches the next update through ASU
    later = encode_sequence(Tape(), params,
                            [frame(0.0), frame(50.0), frame(50.8)])
    first = encode_sequence(Tape(), params, [frame(50.0), frame(50.8)])
    assert np.array_equal(later.h_mot_final.value, first.h_mot_final.value)
    assert later.ages_final[0] == first.ages_final[0] == 1


def test_asu_zero_params_zero_outputs():
    cfg = _small_config()
    params = init_model(cfg, seed=0)
    for block in params.blocks():
        for w in block.weights:
            w[...] = 0.0
    tape = Tape()
    h_mot, h_aff = asu_update(tape, params,
                              np.zeros((1, cfg.x_dim)),
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
    one = asu_update(Tape(), params, x, a, pm, pa)
    two = asu_update(Tape(), params, x, a, pm, pa)
    assert np.array_equal(one[0].value, two[0].value)
    assert np.array_equal(one[1].value, two[1].value)


def test_asu_coupling_gradient_through_affinity_gru():
    # sum(h_mot) must have nonzero, finite-difference-consistent gradients
    # w.r.t. the affinity-chain GRU parameters: the ASU path is live.
    cfg = _small_config()
    params = init_model(cfg, seed=2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, cfg.x_dim))
    a = rng.standard_normal((2, cfg.aff_dim))
    pm = np.tanh(rng.standard_normal((2, 6)))
    pa = np.tanh(rng.standard_normal((2, 6)))

    def forward():
        tape = Tape()
        h_mot, _ = asu_update(tape, params, x, a, pm, pa)
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


def test_msa_empty_candidates_rejected():
    cfg = _small_config()
    params = init_model(cfg, seed=19)
    tape = Tape()
    with pytest.raises(ConfigError):
        msa_aggregate(tape, params, np.zeros(0, dtype=int), 0,
                      tape.const(np.zeros((0, 6))), tape.const(np.zeros((0, 6))),
                      tape.const(np.zeros((0, cfg.x_dim))),
                      tape.const(np.zeros((0, 1))))


# ---- encode_sequence ---------------------------------------------------------


def test_single_agent_unambiguous_world():
    tracks = generate_world(1, 80, motion_mix={"cv": 1.0}, seed=20)
    log = corrupt_to_detections(tracks, NoiseConfig.zero(), seed=0)
    start = tracks[0].birth_frame
    frames = _frames_from_log(log, start, 20)
    params = init_model(ModelConfig(), seed=21)
    enc = encode_sequence(Tape(), params, frames)
    assert enc.h_mot_final.value.shape == (1, 64)
    for rec in enc.transitions:
        assert len(rec.pairs) == 1
        assert np.allclose(rec.alphas, 1.0)
    assert enc.ages_final[0] == 19


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

    params = init_model(ModelConfig(), seed=22)
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
    assert [len(r.pairs) for r in enc.transitions] == [1, 0, 0, 1]
    assert enc.ages_final[0] == 1  # reborn at frame 3, one update since
    chains = implicit_chains(enc)
    assert chains[0][0] == 0 and chains[0][1] == 0 and chains[0][2] is None


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
    params = init_model(ModelConfig(), seed=27)
    enc = encode_sequence(Tape(), params, frames)
    for rec in enc.transitions:
        if len(rec.seg) == 0:
            continue
        sums = np.zeros(len(rec.seg_curr))
        np.add.at(sums, rec.seg, rec.alphas)
        assert np.max(np.abs(sums - 1.0)) < 1e-9


def test_affinity_parameters_reach_forecast_path():
    # gradient of a loss on the final encoding w.r.t. MLP_aff is nonzero and
    # matches finite differences: affinity logits drive alpha and h_aff.
    tracks = generate_world(3, 80, seed=28, area=15.0)
    log = corrupt_to_detections(
        tracks, NoiseConfig(pos_sigma=0.3, miss_rate=0.0, fp_rate=1.0,
                            burst_prob=0.0), seed=29)
    # K above the candidate counts so the selected set is perturbation-stable
    cfg = _small_config(theta_d=10.0, k_candidates=10)
    params = init_model(cfg, seed=30)
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
    # best_prev, ages and implicit chains of a pack of seeded windows equal
    # the one-segment-at-a-time reference
    windows = []
    for seed in (40, 41, 42):
        log = corrupt_to_detections(generate_world(8, 100, seed=seed),
                                    NoiseConfig(), seed=seed)
        windows.append(_frames_from_log(log, 30, 12))
    frames = stack_windows(windows)
    params = init_model(variant_config(variant, _small_config()), seed=43)
    enc = encode_sequence(Tape(), params, frames)

    ages = np.zeros(len(frames[0]), dtype=int)
    best_prevs = []
    for rec in enc.transitions:
        n_curr = len(frames[rec.frame])
        if len(rec.seg):
            want, ages = best_prev_loop(rec.seg, rec.seg_curr, rec.alphas,
                                        rec.pairs[rec.selected, 0], ages, n_curr)
        else:
            want, ages = {}, np.zeros(n_curr, dtype=int)
        assert rec.best_prev == want
        best_prevs.append(want)
    assert np.array_equal(enc.ages_final, ages)
    assert implicit_chains(enc) == chains_from(best_prevs, len(frames[-1]))
