"""Evaluation windows, packed forecasting, and the kinematic baselines."""

import numpy as np

from uncertrack.evaluation import (constant_velocity_fde, evaluate_model,
                                   stand_still_fde)
from uncertrack.model import ModelConfig, init_model
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
    assert report.fde_cm == stand_still_fde(worlds)


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
    assert stand_still_fde([w10, w20]) is not None


def test_kinematic_baselines_on_one_noiseless_cv_agent():
    # one constant-velocity agent seen without noise: constant velocity
    # forecasts it exactly, and standing still misses by speed x 3 s
    tracks = generate_world(1, 80, motion_mix={"cv": 1.0}, seed=7)
    world = corrupt_to_detections(tracks, NoiseConfig.zero(), seed=7,
                                  num_frames=80)
    speed = float(np.hypot(*tracks[0].velo[0]))
    assert np.allclose(np.hypot(tracks[0].velo[:, 0], tracks[0].velo[:, 1]),
                       speed)
    assert constant_velocity_fde([world]) < 1e-6
    assert abs(stand_still_fde([world]) - speed * 3.0 * 100.0) < 1e-6
