"""Packing windows into one tape pass, the joint loss, and the training loop."""

import re
from dataclasses import replace

import numpy as np
import pytest

from oracles import mean_pool_reference
from uncertrack import forecaster
from uncertrack.detections import FrameArrays, stack_windows
from uncertrack.encoder import TransitionRecord, encode_sequence
from uncertrack.errors import ConfigError
from uncertrack.forecaster import (PACK_DETECTIONS, MeanPoolSIM, SequenceSample,
                                   TrainConfig, augment_sample, build_sample,
                                   decode_trajectory, forecast_sequence,
                                   pack_ranges, pack_samples, total_loss,
                                   train)
from uncertrack.model import VARIANTS, ModelConfig, init_model, variant_config
from uncertrack.numerics import Tape, grad_check, mlp_forward
from uncertrack.world import (FP_ID, NoiseConfig, corrupt_to_detections,
                              generate_world)

SMALL = ModelConfig(det_dim=8, mov_dim=4, field_dim=4, hidden_dim=6,
                    k_candidates=4)


def _world(seed, agents=6, frames=80):
    return corrupt_to_detections(generate_world(agents, frames, seed=seed),
                                 NoiseConfig(), seed=seed, num_frames=frames)


def _frames(n_dets, steps=4):
    rng = np.random.default_rng(n_dets)
    return [FrameArrays(pos=rng.uniform(-5, 5, (n_dets, 2)),
                        velo=np.zeros((n_dets, 2)), size=np.ones((n_dets, 3)),
                        heading=np.zeros(n_dets), score=np.full(n_dets, 0.8))
            for _ in range(steps)]


def test_build_sample_matches_per_agent_loop():
    # the cap keeps a frame's most confident detections in their order, and
    # each target is ground truth minus the detection, step by step, until
    # the agent's track ends
    log = _world(9, agents=30, frames=120)
    config = ModelConfig()
    stride = int(round(log.frame_rate * config.step_seconds))
    tracks = {tr.agent_id: tr for tr in log.tracks}
    capped = cut_short = 0
    for t0 in range(0, 70, 3):
        sample = build_sample(log, t0, 20, config, max_detections=12)
        for t, frame in enumerate(sample.frames):
            dets = log.frames[t0 + t]
            keep = sorted(sorted(range(len(dets)),
                                 key=lambda i: -dets[i].score)[:12])
            capped += len(keep) < len(dets)
            assert np.array_equal(frame.pos, [dets[i].pos for i in keep])
            assert np.array_equal(sample.true_ids[t], log.true_ids[t0 + t][keep])
        t_final = t0 + 19
        for n, agent in enumerate(sample.true_ids[-1]):
            for k in range(config.pred_steps):
                f = t_final + stride * (k + 1)
                cols = slice(2 * k, 2 * k + 2)
                if agent == FP_ID or f > tracks[agent].death_frame:
                    cut_short += agent != FP_ID
                    assert not sample.target_mask[n, cols].any()
                    assert not sample.target_offsets[n, cols].any()
                    continue
                tr = tracks[agent]
                assert np.array_equal(sample.target_mask[n, cols], [1.0, 1.0])
                assert np.array_equal(sample.target_offsets[n, cols],
                                      tr.pos[tr.index_at(f)]
                                      - sample.frames[-1].pos[n])
    assert capped and cut_short


def _samples(config):
    """Four augmented windows: one with a transition that has no gated pairs
    (an empty frame), one without a matched target."""
    rng = np.random.default_rng(0)
    out = []
    for seed, t0 in [(1, 10), (2, 25), (3, 5), (4, 30)]:
        out.append(augment_sample(build_sample(_world(seed), t0, 20, config), rng))
    out[1].frames[6] = FrameArrays.from_detections([])
    out[1].true_ids[6] = np.zeros(0, dtype=int)
    out[2].target_mask[...] = 0.0
    return out


def _loss(params, sample, tape, sim=None):
    enc = encode_sequence(tape, params, sample.frames)
    p_n = enc.h_mot_final
    if sim is not None:
        p_n = sim(tape, p_n, sample.frames[-1])
    offsets = mlp_forward(tape, params.mlp_dec, p_n)
    return enc, total_loss(tape, offsets, sample, enc.transitions, lam=0.7)


def test_pack_ranges_keep_order_and_budget():
    sizes = [17, 15, 20, 17, 16, 18, 17, 14, 200, 60, 70, 3]
    ranges = pack_ranges([_frames(n) for n in sizes])
    assert ranges[0][0] == 0 and ranges[-1][1] == len(sizes)
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    for lo, hi in ranges:
        load = sum(sizes[lo:hi])
        assert hi - lo == 1 or load <= PACK_DETECTIONS
        if hi < len(sizes):  # stopped only because the next window overflows
            assert load + sizes[hi] > PACK_DETECTIONS
    assert (8, 9) in ranges  # above the budget: runs alone


@pytest.mark.parametrize("variant", ["full", "baseline"])
def test_packed_loss_and_gradients_equal_per_window_sum(variant):
    config = variant_config(variant, SMALL)
    params = init_model(config, seed=5)
    samples = _samples(config)

    loss_sum, l_traj_sum, l_aff_sum, n_traj_sum = 0.0, 0.0, 0.0, 0
    for sample in samples:
        tape = Tape()
        _, (loss, l_traj, l_aff, n_traj) = _loss(params, sample, tape)
        tape.backward(loss)
        loss_sum += loss.value[0, 0]
        l_traj_sum += l_traj
        l_aff_sum += l_aff
        n_traj_sum += n_traj
    per_window = [g.copy() for b in params.blocks() for g in b.grads]
    params.zero_grads()

    tape = Tape()
    enc, (loss, l_traj, l_aff, n_traj) = _loss(params, pack_samples(samples), tape)
    tape.backward(loss)
    packed = [g.copy() for b in params.blocks() for g in b.grads]
    params.zero_grads()

    assert len(enc.transitions[5].pairs) > 0  # other windows still pair there
    assert abs(loss.value[0, 0] - loss_sum) < 1e-10
    assert abs(l_traj - l_traj_sum) < 1e-10 and abs(l_aff - l_aff_sum) < 1e-10
    assert n_traj == n_traj_sum == 3
    assert max(np.max(np.abs(a - b)) for a, b in zip(per_window, packed)) < 1e-10
    assert any(np.max(np.abs(g)) > 0 for g in packed)


@pytest.mark.parametrize("variant, sim", [
    *(pytest.param(v, None, id=v) for v in VARIANTS),
    pytest.param("full", MeanPoolSIM(), id="full-meanpool")])
def test_end_to_end_gradients_match_finite_differences(variant, sim):
    # encoder, (SIM,) decoder and joint loss together, at full model size
    config = variant_config(variant)
    params = init_model(config, seed=0)
    log = corrupt_to_detections(generate_world(4, 60, seed=5), NoiseConfig(),
                                seed=5)
    sample = build_sample(log, 10, 4, config)
    if sim is not None:  # the SIM must mix some encodings to be checked
        tape = Tape()
        p_n = encode_sequence(tape, params, sample.frames).h_mot_final
        assert np.any(sim(tape, p_n, sample.frames[-1]).value != p_n.value)

    def loss_fn():
        tape = Tape()
        _, (loss, _, _, _) = _loss(params, sample, tape, sim=sim)
        tape.backward(loss)
        return float(loss.value[0, 0])

    report = grad_check(loss_fn, params.blocks(), samples=100)
    assert report.passed(), report.summary()


def test_loss_adds_a_fixed_number_of_nodes():
    # one smooth-L1 and one BCE, whatever the number of transitions
    params = init_model(SMALL, seed=6)
    counts = []
    for sample in _samples(SMALL)[:1] + [pack_samples(_samples(SMALL))]:
        tape = Tape()
        enc = encode_sequence(tape, params, sample.frames)
        offsets = mlp_forward(tape, params.mlp_dec, enc.h_mot_final)
        before = len(tape._nodes)
        total_loss(tape, offsets, sample, enc.transitions, 0.7)
        counts.append(len(tape._nodes) - before)
    assert counts[0] == counts[1] <= 8


def test_confident_wrong_affinities_keep_their_gradient():
    # a pack of two one-transition windows: a label-0 pair at logit +20 in
    # window 0, a label-1 pair at logit -20 and a label-0 pair at 0.5 in
    # window 1.  Each logit gets the BCE gradient (sigmoid(z) - y) w / sum(w),
    # scaled by the loss's lam * (window, transition) count / transitions;
    # none vanishes, however confident the wrong affinity
    frame = FrameArrays(pos=np.zeros((2, 2)), velo=np.zeros((2, 2)),
                        size=np.ones((2, 3)), heading=np.zeros(2),
                        score=np.ones(2))
    window = SequenceSample(frames=[frame, frame],
                            true_ids=[np.array([1, 2]), np.array([1, 2])],
                            target_offsets=np.zeros((2, 12)),
                            target_mask=np.zeros((2, 12)))
    pack = pack_samples([window, window])
    z = np.array([[20.0], [-20.0], [0.5]])
    labels = np.array([0.0, 1.0, 0.0])
    weights = np.array([1.0, 0.5, 0.5])  # 1 / pairs in the pair's window
    grad = np.zeros_like(z)
    tape = Tape()
    empty = np.zeros(0, dtype=int)
    rec = TransitionRecord(frame=1, pairs=np.array([[1, 0], [2, 2], [3, 2]]),
                           logits=tape.param(z, grad), selected=empty,
                           seg=empty, seg_curr=empty, alphas=np.zeros(0))
    lam = 0.7
    loss, _, _, _ = total_loss(tape, tape.const(np.zeros((4, 12))), pack,
                               [rec], lam)
    tape.backward(loss)
    scale = lam * 2 / 1  # two scored (window, transition)s over one transition
    want = scale * (1.0 / (1.0 + np.exp(-z[:, 0])) - labels) * weights / weights.sum()
    assert np.all(grad[:, 0] != 0.0)
    assert np.allclose(grad[:, 0], want, rtol=1e-12, atol=0.0)


def test_degenerate_window_is_rejected():
    # window 1 has one unmatched detection in its last frame and no pairs
    lone = FrameArrays(pos=np.zeros((1, 2)), velo=np.zeros((1, 2)),
                       size=np.ones((1, 3)), heading=np.zeros(1),
                       score=np.ones(1))
    degenerate = SequenceSample(
        frames=[FrameArrays.from_detections([])] * 19 + [lone],
        true_ids=[np.zeros(0, dtype=int)] * 19 + [np.array([0])],
        target_offsets=np.zeros((1, 12)), target_mask=np.zeros((1, 12)))
    pack = pack_samples([_samples(SMALL)[0], degenerate])
    with pytest.raises(ConfigError, match="degenerate window 1"):
        _loss(init_model(SMALL, seed=7), pack, Tape())


def test_mean_pool_sim_equals_dense_reference():
    # two windows over the same ground, each with an isolated row
    rng = np.random.default_rng(12)
    pos = np.concatenate([rng.uniform(0.0, 4.0, size=(9, 2)), [[90.0, 90.0]],
                          rng.uniform(0.0, 4.0, size=(7, 2)), [[-80.0, 5.0]]])
    window = np.repeat([0, 1], [10, 8])
    n = len(pos)
    frame = FrameArrays(pos=pos, velo=np.zeros((n, 2)), size=np.ones((n, 3)),
                        heading=np.zeros(n), score=np.ones(n), window=window)
    enc = rng.standard_normal((n, 6))
    tape = Tape()
    got = MeanPoolSIM(radius=6.0)(tape, tape.const(enc), frame).value
    want = mean_pool_reference(pos, window, enc, 6.0)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.array_equal(got[[9, 17]], enc[[9, 17]])
    assert np.all(np.any(got[:9] != enc[:9], axis=1))


@pytest.mark.parametrize("sim", [None, MeanPoolSIM(radius=10.0)])
def test_packed_forecasts_equal_each_window_alone(sim):
    # the windows overlap in space: neither gating nor the SIM may mix them
    params = init_model(SMALL, seed=8)
    windows = [s.frames for s in _samples(SMALL)]
    _, packed = forecast_sequence(params, stack_windows(windows), sim=sim)
    row = 0
    for frames in windows:
        _, alone = forecast_sequence(params, frames, sim=sim)
        for f in alone:
            assert np.max(np.abs(packed[row].waypoints - f.waypoints)) < 1e-10
            row += 1
    assert row == len(packed)


@pytest.mark.parametrize("variant", VARIANTS)
def test_window_with_empty_frames_packs_like_alone(variant):
    # one window loses a middle frame and its final frame: its transitions
    # into and out of them have no pairs, and it forecasts zero rows, on the
    # same path as every other window
    config = variant_config(variant, SMALL)
    params = init_model(config, seed=10)
    samples = _samples(config)
    gappy = samples[3]
    for t in (9, len(gappy.frames) - 1):
        gappy.frames[t] = FrameArrays.from_detections([])
        gappy.true_ids[t] = np.zeros(0, dtype=int)
    gappy.target_offsets = gappy.target_offsets[:0]
    gappy.target_mask = gappy.target_mask[:0]

    loss_sum, alone = 0.0, []
    for sample in samples:
        tape = Tape()
        _, (loss, _, _, _) = _loss(params, sample, tape)
        tape.backward(loss)
        loss_sum += loss.value[0, 0]
        alone += forecast_sequence(params, sample.frames)[1]
    per_window = [g.copy() for b in params.blocks() for g in b.grads]
    params.zero_grads()

    pack = pack_samples(samples)
    tape = Tape()
    _, (loss, _, _, _) = _loss(params, pack, tape)
    tape.backward(loss)
    packed = [g.copy() for b in params.blocks() for g in b.grads]
    params.zero_grads()
    _, forecasts = forecast_sequence(params, pack.frames)

    assert abs(loss.value[0, 0] - loss_sum) < 1e-10
    assert max(np.max(np.abs(a - b)) for a, b in zip(per_window, packed)) < 1e-10
    assert len(forecasts) == len(alone) == len(pack.frames[-1])
    for got, want in zip(forecasts, alone):
        assert np.max(np.abs(got.waypoints - want.waypoints)) < 1e-10


@pytest.mark.parametrize("variant, sim", [
    *(pytest.param(v, None, id=v) for v in VARIANTS),
    pytest.param("full", MeanPoolSIM(), id="full-meanpool")])
def test_forecasts_record_nothing_and_equal_a_recording_tape(monkeypatch,
                                                             variant, sim):
    # inference binds parameters as constants: its tape holds no node, and
    # every waypoint is bitwise what a recording tape computes
    params = init_model(variant_config(variant, SMALL), seed=9)
    frames = stack_windows([s.frames for s in _samples(SMALL)])
    tape = Tape()
    p_n = encode_sequence(tape, params, frames).h_mot_final
    if sim is not None:
        p_n = sim(tape, p_n, frames[-1])
    _, want = decode_trajectory(tape, params, p_n, frames[-1].pos)
    assert tape._nodes

    tapes = []

    class SpyTape(Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tapes.append(self)

    monkeypatch.setattr(forecaster, "Tape", SpyTape)
    _, got = forecast_sequence(params, frames, sim=sim)
    assert len(tapes) == 1 and tapes[0]._nodes == []
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.waypoints, w.waypoints)


def test_training_is_bitwise_repeatable():
    cfg = TrainConfig(batch_sequences=4, windows_per_world=3, epochs=2, seed=3,
                      model=ModelConfig(det_dim=8, mov_dim=4, hidden_dim=6,
                                        k_candidates=4))
    worlds = [_world(seed, frames=60) for seed in (10, 11, 12)]
    params_a, stats_a = train(cfg, worlds)
    params_b, stats_b = train(cfg, worlds)
    assert stats_a == stats_b
    assert all(np.isfinite([s.l_traj for s in stats_a] + [s.l_aff for s in stats_a]))
    for block_a, block_b in zip(params_a.blocks(), params_b.blocks()):
        for wa, wb in zip(block_a.weights, block_b.weights):
            assert np.array_equal(wa, wb)


def _assert_refused(cls, name, value):
    # built directly and through dataclasses.replace, the way callers vary
    # a default config
    message = re.escape(f"{cls.__name__}.{name} must be") + r".*got " + \
        re.escape(repr(value))
    with pytest.raises(ConfigError, match=message):
        cls(**{name: value})
    with pytest.raises(ConfigError, match=message):
        replace(cls(), **{name: value})


@pytest.mark.parametrize("cls, name, value", [
    (TrainConfig, "lr", float("nan")), (TrainConfig, "lr_decay", float("inf")),
    (TrainConfig, "lambda_end", -float("inf")),
    (TrainConfig, "smooth_l1_beta", float("nan")),
    (ModelConfig, "theta_d", float("inf")),
    (ModelConfig, "step_seconds", float("nan"))])
def test_config_rejects_non_finite(cls, name, value):
    _assert_refused(cls, name, value)


@pytest.mark.parametrize("cls, name, value", [
    (TrainConfig, "epochs", 0), (TrainConfig, "epochs", -3),
    (TrainConfig, "batch_sequences", 0), (TrainConfig, "lr", 0.0),
    (TrainConfig, "smooth_l1_beta", 0.0), (TrainConfig, "t_obs", 0),
    (TrainConfig, "lr_num_decays", -1), (TrainConfig, "lambda_start", -0.5),
    # a count must be an integer, not a float or a bool
    (TrainConfig, "epochs", 2.0), (TrainConfig, "windows_per_world", True),
    (ModelConfig, "hidden_dim", 0), (ModelConfig, "det_dim", -3),
    (ModelConfig, "field_dim", 0), (ModelConfig, "k_candidates", 2.5),
    (ModelConfig, "pred_steps", 0), (ModelConfig, "theta_d", -1.5),
    (ModelConfig, "step_seconds", 0.0)])
def test_config_rejects_non_positive(cls, name, value):
    _assert_refused(cls, name, value)


@pytest.mark.parametrize("cls, name, value", [
    (TrainConfig, "seed", 1.5), (TrainConfig, "seed", True),
    (TrainConfig, "augmentation", 1), (TrainConfig, "augmentation", "no"),
    (ModelConfig, "use_asu", "no"), (ModelConfig, "use_msa", 0)])
def test_config_rejects_non_integer_seed_and_non_bool_flags(cls, name, value):
    _assert_refused(cls, name, value)


def test_config_accepts_numpy_integer_seed():
    assert TrainConfig(seed=np.int64(3)).seed == 3
