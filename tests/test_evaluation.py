"""Evaluation windows, packed forecasting, the kinematic baselines and the
ablation harness."""

import json
from dataclasses import replace

import numpy as np
import pytest

import uncertrack.encoder as encoder
import uncertrack.evaluation as evaluation
from oracles import evaluate_direct, linear_fit_residual, match_brute_force
from uncertrack.detections import FrameArrays
from uncertrack.evaluation import (MATCH_THRESHOLD_M, NL_RESIDUAL_THRESHOLD,
                                   EvalReport, ablation_run,
                                   constant_velocity_fde, evaluate_model,
                                   match_for_eval, nonlinearity_residual,
                                   stand_still_fde)
from uncertrack.forecaster import forecast_sequence, window_starts
from uncertrack.model import (EVAL_STRIDE, T_OBS, VARIANTS, ModelConfig,
                              init_model, variant_config)
from uncertrack.world import NoiseConfig, corrupt_to_detections, generate_world

SMALL = ModelConfig(det_dim=8, mov_dim=4, field_dim=4, hidden_dim=6,
                    k_candidates=4)


def _world(seed, frame_rate=10.0, frames=100, agents=8):
    tracks = generate_world(agents, frames, frame_rate=frame_rate, seed=seed)
    return corrupt_to_detections(tracks, NoiseConfig(), seed=seed,
                                 num_frames=frames, frame_rate=frame_rate)


def test_zero_decoder_equals_stand_still_exactly():
    params = init_model(SMALL, seed=1)
    for w in params.mlp_dec.block.weights:
        w[...] = 0.0
    worlds = [_world(2), _world(3, agents=20)]
    report = evaluate_model(params, worlds)
    assert report.num_matched > 0
    assert report == stand_still_fde(worlds, config=params.config)


def test_mixed_frame_rates_evaluate_as_each_world_alone():
    params = init_model(SMALL, seed=4)
    w10, w20 = _world(5), _world(6, frame_rate=20.0, frames=140)
    both = evaluate_model(params, [w10, w20])
    alone = [evaluate_model(params, [w]) for w in (w10, w20)]
    assert both.num_windows == sum(r.num_windows for r in alone)
    assert both.num_matched == sum(r.num_matched for r in alone)
    assert both.num_nonlinear == sum(r.num_nonlinear for r in alone)
    combined = sum(r.fde_cm * r.num_matched for r in alone) / both.num_matched
    assert abs(both.fde_cm - combined) < 1e-9 * combined
    assert stand_still_fde([w10, w20]).fde_cm is not None


def _match_one_window(det, gt):
    return match_for_eval(det, gt, np.zeros(len(det), dtype=int),
                          np.zeros(len(gt), dtype=int))


@pytest.mark.parametrize("n_det, n_gt", [(0, 0), (0, 6), (6, 0), (8, 8),
                                          (15, 10), (10, 25)])
def test_match_for_eval_equals_brute_force(n_det, n_gt):
    # even trials on a 0.5 m lattice: exact distance ties, and pairs exactly
    # at the 2 m threshold
    rng = np.random.default_rng(100 * n_det + n_gt)
    for trial in range(40):
        if trial % 2 == 0:
            det = rng.integers(-4, 5, size=(n_det, 2)) * 0.5
            gt = rng.integers(-4, 5, size=(n_gt, 2)) * 0.5
        else:
            det = rng.uniform(-3.0, 3.0, size=(n_det, 2))
            gt = rng.uniform(-3.0, 3.0, size=(n_gt, 2))
        got = _match_one_window(det, gt)
        want = match_brute_force(det, gt, MATCH_THRESHOLD_M)
        assert np.array_equal(got, np.array([(i, j) for i, j, _ in want],
                                            dtype=int).reshape(-1, 2))


def test_match_for_eval_keeps_the_threshold_and_breaks_ties_in_order():
    det = np.array([[0.0, 0.0], [10.0, 0.0]])
    gt = np.array([[0.0, 2.0], [2.0, 0.0], [10.0, 2.0 + 1e-9]])
    assert _match_one_window(det, gt).tolist() == [[0, 0]]
    assert _match_one_window(det[::-1], gt[::-1]).tolist() == [[1, 1]]


def test_match_for_eval_over_windows_equals_each_window_alone():
    # windows side by side overlap in space but never match across; window 1
    # is empty, window 2 has no ground truth, and windows 0 and 3 hold the
    # same lattice points, so equal distances (and ties) recur across windows
    rng = np.random.default_rng(17)
    lattice = (rng.integers(-4, 5, size=(9, 2)) * 0.5,
               rng.integers(-4, 5, size=(7, 2)) * 0.5)
    windows = [lattice, (np.zeros((0, 2)), np.zeros((0, 2))),
               (rng.uniform(-3, 3, (5, 2)), np.zeros((0, 2))), lattice,
               (rng.uniform(-3, 3, (6, 2)), rng.uniform(-3, 3, (10, 2)))]
    det = np.concatenate([d for d, _ in windows])
    gt = np.concatenate([g for _, g in windows])
    det_window = np.repeat(np.arange(len(windows)), [len(d) for d, _ in windows])
    gt_window = np.repeat(np.arange(len(windows)), [len(g) for _, g in windows])
    got = match_for_eval(det, gt, det_window, gt_window)

    alone = [_match_one_window(d, g) for d, g in windows]
    det_off = np.cumsum([0] + [len(d) for d, _ in windows])
    gt_off = np.cumsum([0] + [len(g) for _, g in windows])
    assert np.array_equal(got, np.concatenate(
        [m + [d0, g0] for m, d0, g0 in zip(alone, det_off, gt_off)]))
    assert len(alone[0]) > 0 and np.array_equal(alone[0], alone[3])


def test_nonlinearity_residual_equals_normal_equations():
    # curved futures, whose residuals are well above rounding noise, against
    # the oracle's uncentred normal equations
    rng = np.random.default_rng(14)
    for n in (3, 6, 10):
        m = 300
        t = 0.5 * np.arange(1, n + 1)[None, :, None]
        angle = rng.uniform(0.0, 2 * np.pi, size=(m, 1, 1))
        accel = rng.uniform(0.2, 1.0, size=(m, 1, 1)) * np.concatenate(
            [np.cos(angle), np.sin(angle)], axis=2)
        futures = (rng.uniform(-30.0, 30.0, size=(m, 1, 2))
                   + rng.normal(0.0, 1.5, size=(m, 1, 2)) * t
                   + 0.5 * accel * t * t)
        got = nonlinearity_residual(futures)
        want = np.array([linear_fit_residual(f) for f in futures])
        assert got.shape == (m,)
        assert np.max(np.abs(got - want) / want) <= 1e-12
    # one point, two points and a straight line fit exactly
    assert np.array_equal(nonlinearity_residual(rng.normal(size=(4, 1, 2))),
                          np.zeros(4))
    line = 3.0 + np.arange(1.0, 7.0)[None, :, None] * np.array([0.5, -1.25])
    assert np.max(nonlinearity_residual(rng.normal(size=(4, 2, 2)))) < 1e-20
    assert nonlinearity_residual(line)[0] < 1e-20
    assert nonlinearity_residual(np.zeros((0, 6, 2))).shape == (0,)


def test_windows_whose_final_frames_are_empty_score_nothing():
    # every window's last frame is empty, so each pack forecasts zero rows
    log = _world(2)
    finals = set(range(T_OBS - 1, window_starts(log, T_OBS, SMALL) + T_OBS - 1,
                       EVAL_STRIDE))
    empty = FrameArrays.from_detections([])
    log = replace(log, frames=[empty if t in finals else f
                               for t, f in enumerate(log.frames)],
                  true_ids=[ids[:0] if t in finals else ids
                            for t, ids in enumerate(log.true_ids)])
    want = EvalReport(fde_cm=None, nl_fde_cm=None, num_matched=0,
                      num_nonlinear=0, num_windows=len(finals))
    assert evaluate_model(init_model(SMALL, seed=1), [log]) == want
    assert stand_still_fde([log], config=SMALL) == want
    assert constant_velocity_fde([log], config=SMALL) == want


def test_world_shorter_than_one_window_scores_nothing():
    log = _world(3)
    log = replace(log, frames=log.frames[:T_OBS + 5],
                  true_ids=log.true_ids[:T_OBS + 5])
    assert window_starts(log, T_OBS, SMALL) == 0
    report = evaluate_model(init_model(SMALL, seed=1), [log])
    assert report.num_windows == 0 and report.fde_cm is None


def test_kinematic_baselines_on_one_noiseless_cv_agent():
    # one constant-velocity agent seen without noise: constant velocity
    # forecasts it exactly, and standing still misses by speed x 3 s
    tracks = generate_world(1, 80, motion_mix={"cv": 1.0}, seed=7)
    world = corrupt_to_detections(tracks, NoiseConfig.zero(), seed=7,
                                  num_frames=80)
    speed = float(np.hypot(*tracks[0].velo[0]))
    assert np.allclose(np.hypot(tracks[0].velo[:, 0], tracks[0].velo[:, 1]),
                       speed)
    assert constant_velocity_fde([world]).fde_cm < 1e-6
    assert abs(stand_still_fde([world]).fde_cm - speed * 3.0 * 100.0) < 1e-6


def test_evaluation_embeds_and_gates_each_frame_once(monkeypatch):
    # a 120-frame world's 15 windows of 20 frames, one pack, read frames
    # 0..89: each is embedded once (not once per window holding it) and each
    # of their 89 transitions is gated once (not 19 per window, 285); the
    # world's ground truth is gathered and matched in one call each (not
    # one per window)
    log = _world(11, frames=120, agents=24)
    embedded, gated, scored = [], [], []
    embed_frame, gate_positions = encoder.embed_frame, encoder.gate_positions

    def embed_counted(tape, params, frame):
        embedded.append(len(frame))
        return embed_frame(tape, params, frame)

    def gate_counted(prev_pos, curr_pos, theta_d, prev_window, curr_window):
        # gate_positions gates blocks 0..largest id one at a time
        gated.append(int(max(prev_window.max(initial=0),
                             curr_window.max(initial=0))) + 1)
        return gate_positions(prev_pos, curr_pos, theta_d, prev_window,
                              curr_window)

    def counted(name, fn):
        def wrapper(*args):
            scored.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(encoder, "embed_frame", embed_counted)
    monkeypatch.setattr(encoder, "gate_positions", gate_counted)
    for name in ("gt_future", "match_for_eval"):
        monkeypatch.setattr(evaluation, name,
                            counted(name, getattr(evaluation, name)))
    report = evaluate_model(init_model(SMALL, seed=1), [log])
    assert report.num_windows == 15 and report.num_matched > 0
    assert embedded == [sum(len(log.frames[t]) for t in range(90))]
    assert gated == [89]
    assert scored == ["gt_future", "match_for_eval"]


def _direct_frame(dets):
    """FrameArrays of a detection list, built without ``from_detections``."""
    return FrameArrays(pos=np.array([d.pos for d in dets]).reshape(-1, 2),
                       velo=np.array([d.velo for d in dets]).reshape(-1, 2),
                       size=np.array([d.size for d in dets]).reshape(-1, 3),
                       heading=np.array([d.heading for d in dets]),
                       score=np.array([d.score for d in dets]))


def _model_forecast(params):
    def forecast(dets_per_frame, seconds):
        _, out = forecast_sequence(params, [_direct_frame(d)
                                            for d in dets_per_frame])
        return np.array([f.waypoints[-1] for f in out])
    return forecast


def _stand_still(dets_per_frame, seconds):
    return np.array([d.pos for d in dets_per_frame[-1]])


def _constant_velocity(dets_per_frame, seconds):
    return np.array([np.array(d.pos) + np.array(d.velo) * seconds
                     for d in dets_per_frame[-1]])


@pytest.fixture(scope="module")
def oracle_worlds():
    # 10 Hz, 20 Hz, and a dense world above 100 detections per frame
    dense = corrupt_to_detections(generate_world(150, 60, seed=7),
                                  NoiseConfig(), seed=7, num_frames=60)
    assert max(len(f) for f in dense.frames) > 100
    return [_world(2), _world(6, frame_rate=20.0, frames=140), dense]


@pytest.mark.parametrize("scorer", ["zero-decoder", "init", "stand-still",
                                    "constant-velocity"])
def test_evaluation_matches_per_window_oracle(scorer, oracle_worlds):
    params = init_model(SMALL, seed=3)
    if scorer == "zero-decoder":
        for w in params.mlp_dec.block.weights:
            w[...] = 0.0
    forecast = {"stand-still": _stand_still,
                "constant-velocity": _constant_velocity}.get(
                    scorer, _model_forecast(params))
    want = evaluate_direct(oracle_worlds, forecast, t_obs=20, window_stride=5,
                           pred_steps=SMALL.pred_steps,
                           step_seconds=SMALL.step_seconds,
                           threshold=MATCH_THRESHOLD_M,
                           nl_threshold=NL_RESIDUAL_THRESHOLD)
    assert want["num_matched"] > 0 and want["num_nonlinear"] > 0
    if scorer == "stand-still":
        got = stand_still_fde(oracle_worlds, config=SMALL)
    elif scorer == "constant-velocity":
        got = constant_velocity_fde(oracle_worlds, config=SMALL)
    else:
        got = evaluate_model(params, oracle_worlds)
    for key in ("num_matched", "num_nonlinear", "num_windows"):
        assert getattr(got, key) == want[key], key
    for key in ("fde_cm", "nl_fde_cm"):
        assert abs(getattr(got, key) - want[key]) <= 1e-9 * want[key], key


def test_ablation_run_evaluates_every_variant_and_seed():
    world = _world(8, agents=12)
    seeds = [0, 1]

    def train_fn(variant, seed):
        return init_model(variant_config(variant, SMALL), seed)

    report = ablation_run(train_fn, [world], seeds)
    assert list(report.variants) == list(VARIANTS)
    for variant in VARIANTS:
        row = report.variants[variant]
        for i, seed in enumerate(seeds):
            want = evaluate_model(train_fn(variant, seed), [world])
            assert want.num_nonlinear > 0
            assert [row[k][i] for k in ("fde_cm", "nl_fde_cm", "num_matched",
                                        "num_nonlinear")] == [
                want.fde_cm, want.nl_fde_cm, want.num_matched, want.num_nonlinear]
    assert json.loads(report.to_json())["variants"] == report.variants
    text = report.to_text()
    assert all(variant in text for variant in VARIANTS)


def test_to_text_reports_a_variant_without_samples_as_absent():
    # a run on windows without nonlinear (or matched) samples reports None
    row = {"num_matched": [4, 4], "num_nonlinear": [0, 2]}
    report = EvalReport(fde_cm=None, nl_fde_cm=None, num_matched=4,
                        num_nonlinear=2, num_windows=3, variants={
                            "msa": {**row, "fde_cm": [500.0, 520.0],
                                    "nl_fde_cm": [None, 610.0]},
                            "full": {**row, "fde_cm": [None, None],
                                     "nl_fde_cm": [None, None]}})
    lines = report.to_text().splitlines()
    msa = next(line for line in lines if line.startswith("msa"))
    full = next(line for line in lines if line.startswith("full"))
    assert "510.0 ± 10.0" in msa and msa.split()[-1] == "absent"
    assert full.split()[1:] == ["absent", "absent"]
    assert f"> {NL_RESIDUAL_THRESHOLD})" in lines[2]
    assert json.loads(report.to_json())["nl_threshold"] == NL_RESIDUAL_THRESHOLD
