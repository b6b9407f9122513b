"""Packing windows into one tape pass, the joint loss, and the training loop."""

import re
from dataclasses import replace

import numpy as np
import pytest

from oracles import (bce_direct, float64_copy, gt_future_loop,
                     mean_pool_reference, pairs_per_transition)
from uncertrack import forecaster
from uncertrack.detections import FrameArrays
from uncertrack.encoder import SequenceEncoding, encode_sequence, final_step
from uncertrack.errors import ConfigError
from uncertrack.forecaster import (PACK_DETECTIONS, MeanPoolSIM, SequenceSample,
                                   TrainConfig, augment_sample, build_sample,
                                   cut_window, decode_trajectory,
                                   forecast_sequence, gt_future, join_samples,
                                   pack_ranges, total_loss, train)
from uncertrack.model import VARIANTS, ModelConfig, init_model, variant_config
from uncertrack.numerics import Tape, grad_check
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
        frames, true_ids = cut_window(log, t0, 20, 12)
        for t, frame in enumerate(frames):
            dets = list(log.frames[t0 + t])
            keep = sorted(sorted(range(len(dets)),
                                 key=lambda i: -dets[i].score)[:12])
            capped += len(keep) < len(dets)
            assert np.array_equal(frame.pos, [dets[i].pos for i in keep])
            assert np.array_equal(true_ids[t], log.true_ids[t0 + t][keep])
        sample = build_sample(log, t0, 20, config)
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
                assert tr.birth_frame <= f  # else the row index would wrap
                assert np.array_equal(sample.target_mask[n, cols], [1.0, 1.0])
                assert np.array_equal(sample.target_offsets[n, cols],
                                      tr.pos[f - tr.birth_frame]
                                      - sample.frames[-1].pos[n])
    assert capped and cut_short


def test_cut_windows_share_the_world_read_only():
    # a window's frames are the world's own, so a write into one raises
    # instead of changing the world; augmenting and capping make new columns
    log = _world(9, agents=30, frames=120)
    frames, ids = cut_window(log, 10, 20)
    assert frames[0] is log.frames[10] and ids[0] is log.true_ids[10]
    with pytest.raises(ValueError, match="read-only"):
        cut_window(log, 10, 20)[0][0].pos[0, 0] = 1.0
    sample = augment_sample(build_sample(log, 10, 20, ModelConfig()),
                            np.random.default_rng(0))
    assert all(f.pos.flags.writeable for f in sample.frames)
    capped = cut_window(log, 10, 20, 12)[0]
    assert [len(f) for f in capped] == [min(len(f), 12) for f in frames]
    assert any(len(f) > 12 for f in frames)
    for t0 in (-1, 101):
        with pytest.raises(ConfigError, match="outside the world's 120 frames"):
            cut_window(log, t0, 20)


def test_cap_keeps_the_rows_of_an_argsort_over_the_rows():
    # scores rounded to one decimal tie within every frame; the cap keeps
    # the rows np.argsort picks from the rows' negated scores, in row order
    log = _world(9, agents=30, frames=120)
    log = replace(log, frames=[replace(f, score=np.round(f.score, 1))
                               for f in log.frames])
    ties = 0
    for cap in (3, 12, 17):
        frames, ids = cut_window(log, 40, 20, cap)
        for t, frame in enumerate(frames):
            rows = list(log.frames[40 + t])
            keep = np.argsort([-d.score for d in rows])[:cap]
            keep.sort()
            dropped = set(range(len(rows))) - set(keep)
            ties += min(rows[i].score for i in keep) in {
                rows[i].score for i in dropped}
            assert frame.pos.tobytes() == np.array(
                [rows[i].pos for i in keep]).reshape(-1, 2).tobytes()
            assert np.array_equal(ids[t], log.true_ids[40 + t][keep])
    assert ties


@pytest.mark.parametrize("frame_rate", [10.0, 20.0])
def test_gt_future_equals_per_agent_loop(frame_rate):
    # every frame's detections (false positives included) and every agent,
    # at instants before an agent's birth, inside its life and past its death
    frames = 140
    log = corrupt_to_detections(
        generate_world(12, frames, frame_rate=frame_rate, seed=13),
        NoiseConfig(), seed=13, num_frames=frames, frame_rate=frame_rate)
    config = ModelConfig()
    agents = [tr.agent_id for tr in log.tracks][::-1]
    partly = 0
    for frame in range(0, frames, 3):
        ids = np.concatenate([log.true_ids[frame], agents])
        pos, alive = gt_future(log, ids, frame, config)
        want_pos, want_alive = gt_future_loop(log, ids, frame, config)
        assert np.array_equal(alive, want_alive)
        assert np.array_equal(pos, want_pos)
        assert pos.dtype == want_pos.dtype
        assert not alive[ids == FP_ID].any()
        partly += np.count_nonzero(alive.any(axis=1) & ~alive.all(axis=1))
    assert partly > 0 and (np.concatenate(log.true_ids) == FP_ID).any()

    # one frame per id: every id of every third frame, each at its own frame
    at = np.arange(0, frames, 3)
    ids = np.concatenate([np.concatenate([log.true_ids[f], agents]) for f in at])
    per_id = np.repeat(at, [len(log.true_ids[f]) + len(agents) for f in at])
    pos, alive = gt_future(log, ids, per_id, config)
    want = [gt_future_loop(log, [a], f, config) for a, f in zip(ids, per_id)]
    assert np.array_equal(alive, np.concatenate([w[1] for w in want]))
    assert np.array_equal(pos, np.concatenate([w[0] for w in want]))

    pos, alive = gt_future(log, [], 5, config)
    assert pos.shape == (0, config.pred_steps + 1, 2)
    assert alive.shape == (0, config.pred_steps + 1)


def test_gt_future_refuses_an_id_without_a_track():
    log = _world(9)
    missing = max(tr.agent_id for tr in log.tracks) + 7
    for ids in ([missing], [FP_ID, 0, missing], [-5]):
        with pytest.raises(ConfigError, match=f"agent {ids[-1]} has no track"):
            gt_future(log, ids, 10, ModelConfig())


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
    # the forward pass and loss of one training pack, as train() runs them
    enc, offsets = forecaster._forward(tape, params, sample.frames, sim,
                                       sample.starts)
    return enc, total_loss(tape, offsets, sample, enc, lam=0.7)


def test_pack_ranges_keep_order_and_budget():
    # sizes are fractions of the budget, so the rule is checked at any budget
    fractions = [0.13, 0.12, 0.16, 0.13, 0.125, 0.14, 0.13, 0.11, 1.6, 0.47,
                 0.55, 0.02]
    sizes = [max(1, round(f * PACK_DETECTIONS)) for f in fractions]
    ranges = pack_ranges([_frames(n) for n in sizes])
    assert ranges[0][0] == 0 and ranges[-1][1] == len(sizes)
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    for lo, hi in ranges:
        load = sum(sizes[lo:hi])
        assert hi - lo == 1 or load <= PACK_DETECTIONS
        if hi < len(sizes):  # stopped only because the next window overflows
            assert load + sizes[hi] > PACK_DETECTIONS
    assert (8, 9) in ranges  # above the budget: runs alone
    assert pack_ranges([]) == []


@pytest.mark.parametrize("variant", ["full", "baseline"])
def test_packed_loss_and_gradients_equal_per_window_sum(variant):
    config = variant_config(variant, SMALL)
    params = float64_copy(init_model(config, seed=5))
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
    pack = join_samples(samples)
    enc, (loss, l_traj, l_aff, n_traj) = _loss(params, pack, tape)
    tape.backward(loss)
    packed = [g.copy() for b in params.blocks() for g in b.grads]
    params.zero_grads()

    assert pairs_per_transition(enc)[5] > 0  # other windows still pair there
    assert abs(loss.value[0, 0] - loss_sum) < 1e-10
    # l_aff sums each window's mean over transitions of its per-transition
    # mean BCE, and the loss adds lam times it
    ids = np.concatenate(pack.true_ids)[enc.run_rows[enc.pairs]]
    labels = (ids[:, 0] == ids[:, 1]) & (ids[:, 0] != FP_ID)
    terms = np.array([bce_direct(z, y)
                      for z, y in zip(enc.logits.value[:, 0], labels)])
    want_aff = sum(terms[enc.pair_block == b].mean()
                   for b in np.unique(enc.pair_block)) / 19
    assert abs(l_aff - want_aff) < 1e-10
    assert abs(loss.value[0, 0] - (l_traj + 0.7 * l_aff)) < 1e-10
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
    params = float64_copy(init_model(config, seed=0))
    log = corrupt_to_detections(generate_world(4, 60, seed=5), NoiseConfig(),
                                seed=5)
    sample = build_sample(log, 10, 4, config)
    if sim is not None:  # the SIM must mix some encodings to be checked
        tape = Tape()
        p_n = encode_sequence(tape, params, sample.frames).h_mot_final
        assert np.any(sim(tape, p_n, *final_step(sample.frames)).value
                      != p_n.value)

    def loss_fn():
        tape = Tape()
        _, (loss, _, _, _) = _loss(params, sample, tape, sim=sim)
        tape.backward(loss)
        return float(loss.value[0, 0])

    report = grad_check(loss_fn, params.blocks(), samples=100)
    assert report.passed(), report.summary()


def test_loss_adds_a_fixed_number_of_nodes():
    # one smooth-L1 and one BCE, whatever the number of transitions: smooth-L1
    # over every final row, BCE over the encoder's concatenated logits, scale,
    # add
    params = init_model(SMALL, seed=6)
    counts = []
    for sample in _samples(SMALL)[:1] + [join_samples(_samples(SMALL))]:
        tape = Tape()
        enc = encode_sequence(tape, params, sample.frames, sample.starts)
        offsets = decode_trajectory(tape, params, enc.h_mot_final)
        before = len(tape._nodes)
        total_loss(tape, offsets, sample, enc, 0.7)
        counts.append(len(tape._nodes) - before)
    assert counts[0] == counts[1] == 4


def test_loss_without_targets_has_no_trajectory_term():
    # no window of the pack supervises a forecast, but every window pairs:
    # the smooth-L1 weighs every row 0, so it reads 0 and trains no decoder
    params = float64_copy(init_model(SMALL, seed=11))
    samples = _samples(SMALL)
    for s in samples:
        s.target_mask[...] = 0.0
    tape = Tape()
    enc, (loss, l_traj, l_aff, n_traj) = _loss(params, join_samples(samples),
                                               tape)
    tape.backward(loss)
    assert l_traj == 0.0 and n_traj == 0
    assert l_aff > 0.0 and len(enc.pairs) > 0
    assert all(np.all(g == 0.0) for g in params.mlp_dec.block.grads)
    assert np.any(params.mlp_aff.block.grads[0] != 0.0)


def test_loss_without_pairs_has_no_affinity_term():
    # every row of every frame is a birth: a km from every other row of any
    # frame, no pair is gated, and the BCE over zero logits reads 0 while
    # the targets still train
    config = variant_config("full", SMALL)
    params = float64_copy(init_model(config, seed=12))
    sample = build_sample(_world(5), 10, 20, config)
    sample = replace(sample, frames=[
        replace(f, pos=1e3 * np.repeat((100 * t + np.arange(len(f)))[:, None],
                                       2, axis=1))
        for t, f in enumerate(sample.frames)])
    tape = Tape()
    enc, (loss, l_traj, l_aff, n_traj) = _loss(params, sample, tape)
    tape.backward(loss)
    assert len(enc.pairs) == 0 and enc.logits.value.shape == (0, 1)
    assert l_aff == 0.0 and l_traj > 0.0 and n_traj == 1
    assert loss.value[0, 0] == l_traj
    # births decode zero states, so the decoder trains through its biases
    assert np.any(params.mlp_dec.block.grads[-1] != 0.0)


def test_confident_wrong_affinities_keep_their_gradient():
    # a pack of two one-transition windows: a label-0 pair at logit +20 in
    # window 0, a label-1 pair at logit -20 and a label-0 pair at 0.5 in
    # window 1.  Each logit gets the BCE gradient (sigmoid(z) - y) w, scaled
    # by the loss's lam / transitions; none vanishes, however confident the
    # wrong affinity
    frame = FrameArrays(pos=np.zeros((2, 2)), velo=np.zeros((2, 2)),
                        size=np.ones((2, 3)), heading=np.zeros(2),
                        score=np.ones(2))
    window = SequenceSample(frames=[frame, frame],
                            true_ids=[np.array([1, 2]), np.array([1, 2])],
                            target_offsets=np.zeros((2, 12)),
                            target_mask=np.zeros((2, 12)))
    pack = join_samples([window, window])
    z = np.array([[20.0], [-20.0], [0.5]])
    labels = np.array([0.0, 1.0, 0.0])
    weights = np.array([1.0, 0.5, 0.5])  # 1 / pairs in the pair's window
    grad = np.zeros_like(z)
    tape = Tape()
    # laid-out rows: step 0 is rows 0-3, step 1 rows 4-7, two per window;
    # the run holds window 0's frames, then window 1's
    empty = np.zeros(0, dtype=int)
    enc = SequenceEncoding(pairs=np.array([[1, 4], [2, 6], [3, 6]]),
                           pair_block=np.array([0, 1, 1]),
                           logits=tape.param(z, grad), selected=empty,
                           alphas=np.zeros(0), best_prev=np.full(8, -1),
                           offsets=np.array([0, 4, 8]),
                           run_rows=np.array([0, 1, 4, 5, 2, 3, 6, 7]),
                           h_mot_final=tape.const(np.zeros((4, 6))))
    lam = 0.7
    loss, _, _, _ = total_loss(tape, tape.const(np.zeros((4, 12))), pack,
                               enc, lam)
    tape.backward(loss)
    scale = lam / 1  # one transition
    want = scale * (1.0 / (1.0 + np.exp(-z[:, 0])) - labels) * weights
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
    pack = join_samples([_samples(SMALL)[0], degenerate])
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
                        heading=np.zeros(n), score=np.ones(n))
    enc = rng.standard_normal((n, 6))
    tape = Tape()
    got = MeanPoolSIM(radius=6.0)(tape, tape.const(enc), frame, window).value
    want = mean_pool_reference(pos, window, enc, 6.0)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.array_equal(got[[9, 17]], enc[[9, 17]])
    assert np.all(np.any(got[:9] != enc[:9], axis=1))


@pytest.mark.parametrize("sim", [None, MeanPoolSIM(radius=10.0)])
def test_packed_forecasts_equal_each_window_alone(sim):
    # the windows overlap in space: neither gating nor the SIM may mix them
    params = init_model(SMALL, seed=8)
    samples = _samples(SMALL)
    pack = join_samples(samples)
    _, packed = forecast_sequence(params, pack.frames, sim=sim,
                                  starts=pack.starts)
    row = 0
    for sample in samples:
        _, alone = forecast_sequence(params, sample.frames, sim=sim)
        for f in alone:
            assert np.max(np.abs(packed[row].waypoints - f.waypoints)) < 1e-10
            row += 1
    assert row == len(packed)


@pytest.mark.parametrize("variant", VARIANTS)
def test_window_with_empty_frames_packs_like_alone(variant):
    # the last window loses its first, a middle and its final frame, and
    # window 1 its final frame: two of them border the next or the previous
    # window in the pack's run.  Their transitions have no pairs, and a
    # window without final rows forecasts zero rows, on the same path as
    # every other window
    config = variant_config(variant, SMALL)
    params = float64_copy(init_model(config, seed=10))
    samples = _samples(config)
    for sample, gaps in ((samples[3], (0, 9, -1)), (samples[1], (-1,))):
        for t in gaps:
            sample.frames[t] = FrameArrays.from_detections([])
            sample.true_ids[t] = np.zeros(0, dtype=int)
        if -1 in gaps:
            sample.target_offsets = sample.target_offsets[:0]
            sample.target_mask = sample.target_mask[:0]

    loss_sum, alone = 0.0, []
    for sample in samples:
        tape = Tape()
        _, (loss, _, _, _) = _loss(params, sample, tape)
        tape.backward(loss)
        loss_sum += loss.value[0, 0]
        alone += forecast_sequence(params, sample.frames)[1]
    per_window = [g.copy() for b in params.blocks() for g in b.grads]
    params.zero_grads()

    pack = join_samples(samples)
    tape = Tape()
    _, (loss, _, _, _) = _loss(params, pack, tape)
    tape.backward(loss)
    packed = [g.copy() for b in params.blocks() for g in b.grads]
    params.zero_grads()
    _, forecasts = forecast_sequence(params, pack.frames, starts=pack.starts)

    assert abs(loss.value[0, 0] - loss_sum) < 1e-10
    assert max(np.max(np.abs(a - b)) for a, b in zip(per_window, packed)) < 1e-10
    assert len(forecasts) == len(alone) == len(pack.target_mask)
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
    pack = join_samples(_samples(SMALL))
    frames, starts = pack.frames, pack.starts
    final, window = final_step(frames, starts)
    tape = Tape()
    p_n = encode_sequence(tape, params, frames, starts).h_mot_final
    if sim is not None:
        p_n = sim(tape, p_n, final, window)
    offsets = decode_trajectory(tape, params, p_n).value
    assert tape._nodes
    steps = params.config.pred_steps
    want = [pos[None, :] + row.reshape(steps, 2)
            for pos, row in zip(final.pos, offsets)]

    tapes = []

    class SpyTape(Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tapes.append(self)

    monkeypatch.setattr(forecaster, "Tape", SpyTape)
    _, got = forecast_sequence(params, frames, sim=sim, starts=starts)
    assert len(tapes) == 1 and tapes[0]._nodes == []
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.waypoints, w)


def _record_dtypes(monkeypatch):
    # every tape op's value, and every gradient its backward receives
    seen = []
    node = Tape._node

    def spy(self, value, parents, backward):
        seen.append(value.dtype)

        def checked(g):
            seen.append(g.dtype)
            backward(g)

        return node(self, value, parents, checked)

    monkeypatch.setattr(Tape, "_node", spy)
    return seen


def test_float32_training_and_forecasts_hold_only_float32(monkeypatch):
    # one float64 constant would silently promote the whole pass back to
    # float64, and every other test would stay green
    seen = _record_dtypes(monkeypatch)
    cfg = TrainConfig(batch_sequences=4, windows_per_world=2, epochs=1,
                      model=SMALL)
    worlds = [_world(seed, frames=60) for seed in (10, 11)]
    params, _ = train(cfg, worlds, sim=MeanPoolSIM())
    assert all(w.dtype == np.float32 for b in params.blocks() for w in b.weights)
    n_train = len(seen)
    pack = join_samples(_samples(SMALL))
    forecast_sequence(params, pack.frames, sim=MeanPoolSIM(),
                      starts=pack.starts)
    assert n_train > 1000 and len(seen) > n_train + 100
    assert set(seen) == {np.dtype(np.float32)}


def test_float32_forecasts_match_float64_on_a_dense_window():
    # the same weights in both dtypes; the decoder is scaled so that the
    # offsets span metres, as a trained model's do (measured: ~4e-6 m apart
    # at 10-19 m offsets, ~95 detections and ~200 gated pairs per frame)
    log = corrupt_to_detections(generate_world(100, 60, seed=0),
                                NoiseConfig(), seed=0, num_frames=60)
    frames = cut_window(log, 20, 20)[0]
    params = init_model(ModelConfig(), seed=0)
    params.mlp_dec.block.weights[2] *= 200.0
    params.mlp_dec.block.weights[3] += 1.0
    _, f32 = forecast_sequence(params, frames)
    _, f64 = forecast_sequence(float64_copy(params), frames)
    assert len(f32) == len(f64) > 80
    offsets = np.array([f.waypoints - p for f, p in zip(f64, frames[-1].pos)])
    assert np.abs(offsets).max() > 10.0
    gap = max(np.abs(a.waypoints - b.waypoints).max() for a, b in zip(f32, f64))
    assert gap < 1e-3


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
    (ModelConfig, "theta_d", float("inf")),
    (ModelConfig, "step_seconds", float("nan")),
    # an integer beyond float range
    pytest.param(TrainConfig, "lr", 10 ** 400, id="TrainConfig-lr-10**400")])
def test_config_rejects_non_finite(cls, name, value):
    _assert_refused(cls, name, value)


@pytest.mark.parametrize("cls, name, value", [
    (TrainConfig, "epochs", 0), (TrainConfig, "epochs", -3),
    (TrainConfig, "batch_sequences", 0), (TrainConfig, "lr", 0.0),
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
    (ModelConfig, "use_asu", "no"), (ModelConfig, "use_msa", 0)])
def test_config_rejects_non_integer_seed_and_non_bool_flags(cls, name, value):
    _assert_refused(cls, name, value)


def test_config_accepts_numpy_integer_seed():
    assert TrainConfig(seed=np.int64(3)).seed == 3
