"""Model initialisation and weight file round trips."""

from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from uncertrack.encoder import encode_sequence
from uncertrack.errors import ConfigError
from uncertrack.forecaster import (TrainConfig, build_sample, decode_trajectory,
                                   model_config_from_train, total_loss)
from uncertrack.model import (VARIANTS, ModelConfig, ModelParams, init_model,
                              load_model, save_model, variant_config)
from uncertrack.numerics import GruParams, Tape
from uncertrack.world import NoiseConfig, corrupt_to_detections, generate_world

from oracles import float64_copy


def _non_bias_tensors(params: ModelParams):
    for f in fields(ModelParams):
        layer = getattr(params, f.name)
        if f.name == "config" or layer is None:
            continue
        weights = layer.block.weights
        if isinstance(layer, GruParams):  # [Wz, Uz, bz, Wr, Ur, br, Wc, Uc, bc]
            weights = [w for i, w in enumerate(weights) if i % 3 != 2]
        else:  # MLP [W0, b0, W1, b1, ...] and linear [W, b]
            weights = weights[0::2]
        for i, w in enumerate(weights):
            yield f"{f.name}[{i}]", w


@pytest.mark.parametrize("variant", VARIANTS)
def test_train_config_defaults_are_the_model_defaults(variant):
    assert model_config_from_train(TrainConfig(), variant) == variant_config(variant)


def test_train_and_model_configs_share_no_field():
    # each setting has one home: TrainConfig carries the model's as .model
    train_fields = {f.name for f in fields(TrainConfig)}
    assert not train_fields & {f.name for f in fields(ModelConfig)}
    assert "model" in train_fields


@pytest.mark.parametrize("seed", [0, 401, 501])
def test_varied_train_config_is_checked_and_trains_the_same_model(seed):
    # the benchmark's set-up: one epoch of the default training settings
    cfg = replace(TrainConfig(), epochs=1, seed=seed)
    assert model_config_from_train(cfg, "full") == ModelConfig(
        det_dim=64, mov_dim=32, field_dim=32, hidden_dim=64, k_candidates=10,
        theta_d=5.0, use_asu=True, use_msa=True, pred_steps=6,
        step_seconds=0.5)
    with pytest.raises(ConfigError, match="TrainConfig.epochs"):
        replace(cfg, epochs=0)
    with pytest.raises(FrozenInstanceError):
        cfg.epochs = 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_init_leaves_no_weight_dead(variant):
    # a weight with one input row, like the score embedding's (1, n), is
    # still a weight: all-zero weights and biases would keep its ReLUs at 0
    # with zero gradient, and the detector's confidence would never arrive
    config = variant_config(variant)
    params = init_model(config, seed=0)
    for name, w in _non_bias_tensors(params):
        assert np.any(w != 0.0), name

    log = corrupt_to_detections(generate_world(4, 60, seed=5), NoiseConfig(),
                                seed=5)
    sample = build_sample(log, 10, 4, config)
    tape = Tape()
    enc = encode_sequence(tape, params, sample.frames)
    offsets = decode_trajectory(tape, params, enc.h_mot_final)
    loss = total_loss(tape, offsets, sample, enc, lam=0.7)[0]
    tape.backward(loss)
    assert np.any(params.mlp_score.block.grads[0] != 0.0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_save_load_round_trip_bitwise(tmp_path, variant):
    config = variant_config(variant)
    params = init_model(config, seed=3)
    path = tmp_path / "model.bin"
    save_model(path, params)
    loaded = load_model(path, config)  # seed 0's init, then overwritten
    assert [b.name for b in loaded.blocks()] == [b.name for b in params.blocks()]
    for a, b in zip(params.blocks(), loaded.blocks()):
        assert len(a.weights) == len(b.weights)
        for x, y in zip(a.weights, b.weights):
            assert x.dtype == y.dtype == np.float32
            assert x.tobytes() == y.tobytes()


def test_load_keeps_the_model_dtype(tmp_path):
    # a float64 file loads rounded into a float32 model, and a value beyond
    # float32's range is refused instead of loading as infinity
    config = variant_config("baseline")
    wide = float64_copy(init_model(config, seed=3))
    wide.mlp_dec.block.weights[0] += 1e-9  # not representable in float32
    path = tmp_path / "wide.bin"
    save_model(path, wide)
    loaded = load_model(path, config)
    for a, b in zip(wide.blocks(), loaded.blocks()):
        for x, y in zip(a.weights, b.weights):
            assert y.dtype == np.float32
            assert np.array_equal(y, x.astype(np.float32))

    wide.mlp_dec.block.weights[1][0, 2] = 1e39
    save_model(path, wide)
    with pytest.raises(ConfigError, match=r"wide\.bin: block 'mlp_dec' tensor "
                                          r"1 holds a value beyond float32"):
        load_model(path, config)


def test_load_under_another_variant_names_unexpected_blocks(tmp_path):
    path = tmp_path / "full.bin"
    save_model(path, init_model(variant_config("full"), seed=1))
    with pytest.raises(ConfigError, match=r"unexpected blocks: \['gate_aff', "
                                          r"'gate_mot', 'gru_aff'\]"):
        load_model(path, variant_config("baseline"))


def test_load_wrong_tensor_shape_rejected(tmp_path):
    path = tmp_path / "small.bin"
    save_model(path, init_model(ModelConfig(field_dim=4), seed=1))
    with pytest.raises(ConfigError, match=r"block 'mlp_velo' tensor 0: file "
                                          r"shape \(2, 4\) vs configured "
                                          r"shape \(2, 5\)"):
        load_model(path, ModelConfig(field_dim=5))
