"""Model configuration, parameter assembly, and weight file round trips.

Feature dimensions follow the working defaults: 64-dim unary detection
embedding, 32-dim movement feature, 64-dim hidden states, 64-dim long-term
affinity feature, so the pair input x is 96-dim and the affinity feature a
is 128-dim.

Parameters are float32 (``numerics.params.PARAM_DTYPE``), so training and
inference compute in float32; detections, world files, gating and evaluation
stay float64, and weight files store float64, which holds every float32
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, check_fields
from .numerics import (GruParams, MlpParams, ParamBlock, load_weights,
                       make_gru, make_mlp, save_weights)
from .rng import substream

__all__ = ["ModelConfig", "ModelParams", "VARIANTS", "T_OBS", "EVAL_STRIDE",
           "MAX_DETECTIONS", "stride_and_horizon", "variant_config",
           "init_model", "save_model", "load_model"]

VARIANTS = ("baseline", "asu", "msa", "full")

# Window settings shared by world generation, training and evaluation
T_OBS = 20            # observed frames per window
EVAL_STRIDE = 5       # frames between evaluation window starts
MAX_DETECTIONS = 100  # most confident detections a training frame keeps


@dataclass(frozen=True)
class ModelConfig:
    det_dim: int = 64
    mov_dim: int = 32
    field_dim: int = 32
    hidden_dim: int = 64
    k_candidates: int = 10
    # Distance gate on candidate pairs, in metres: the measured reach of a
    # true predecessor (seeded worlds, default noise).  At 10 Hz, 5 m keeps
    # 0.9993 of true predecessors (p99.9 distance 4.8 m) with 107 pairs per
    # dense transition instead of 246 at 10 m; at 20 Hz it keeps 0.99964.
    # Position noise does not shrink with the frame interval, so the gate is
    # not scaled by it (a 2.5 m gate at 20 Hz keeps only 0.983).  Data at
    # 2 Hz needs the paper's 10 m, since 5 m keeps only 0.943 there: build
    # its config as ``ModelConfig(theta_d=10.0)``.
    theta_d: float = 5.0
    use_asu: bool = True
    use_msa: bool = True
    pred_steps: int = 6
    step_seconds: float = 0.5

    def __post_init__(self):
        check_fields(self, "a positive integer",
                     ("det_dim", "mov_dim", "field_dim", "hidden_dim",
                      "k_candidates", "pred_steps"))
        check_fields(self, "a positive finite number",
                     ("theta_d", "step_seconds"))
        check_fields(self, "a bool", ("use_asu", "use_msa"))

    @property
    def x_dim(self) -> int:
        return self.det_dim + self.mov_dim

    @property
    def aff_dim(self) -> int:
        # a = [a_mot ; a_det]
        return self.hidden_dim + self.det_dim

    @property
    def gru_mot_in(self) -> int:
        return self.x_dim + (self.hidden_dim if self.use_asu else 0)


def stride_and_horizon(frame_rate: float,
                       config: ModelConfig) -> tuple[int, int]:
    """Frames between forecast waypoints, and frames to the last waypoint,
    at a world's frame rate.

    A forecast step that is not a whole positive number of frames is
    refused: rounding it would move every target and the fde horizon.
    """
    frames = frame_rate * config.step_seconds
    stride = round(frames)
    if stride < 1 or abs(frames - stride) > 1e-9:
        raise ConfigError(f"a forecast step of {config.step_seconds} s at "
                          f"{frame_rate} Hz is {frames} frames, not a whole "
                          "positive number")
    return stride, config.pred_steps * stride


def variant_config(name: str, base: ModelConfig | None = None) -> ModelConfig:
    """Ablation variants: single-candidate baseline up to the full model."""
    base = base or ModelConfig()
    table = {
        "baseline": dict(use_asu=False, use_msa=False),
        "asu": dict(use_asu=True, use_msa=False),
        "msa": dict(use_asu=False, use_msa=True),
        "full": dict(use_asu=True, use_msa=True),
    }
    if name not in table:
        raise ConfigError(f"unknown variant '{name}' (choose from {VARIANTS})")
    return replace(base, **table[name])


@dataclass
class ModelParams:
    config: ModelConfig
    mlp_velo: MlpParams
    mlp_size: MlpParams
    mlp_head: MlpParams
    mlp_score: MlpParams
    mlp_fus: MlpParams
    mlp_mov: MlpParams
    mlp_mot: MlpParams
    mlp_aff: MlpParams
    gru_mot: GruParams
    mlp_dec: MlpParams
    gru_aff: GruParams | None = None
    gate_mot: MlpParams | None = None
    gate_aff: MlpParams | None = None

    def blocks(self) -> list[ParamBlock]:
        parts = [self.mlp_velo, self.mlp_size, self.mlp_head, self.mlp_score,
                 self.mlp_fus, self.mlp_mov, self.mlp_mot, self.mlp_aff,
                 self.gru_mot, self.mlp_dec, self.gru_aff, self.gate_mot,
                 self.gate_aff]
        return [p.block for p in parts if p is not None]

    def zero_grads(self) -> None:
        for b in self.blocks():
            b.zero_grads()


def init_model(config: ModelConfig, seed: int) -> ModelParams:
    rng = substream(seed, "init")
    c = config
    fd, dd, md, hd = c.field_dim, c.det_dim, c.mov_dim, c.hidden_dim
    params = ModelParams(
        config=c,
        mlp_velo=make_mlp("mlp_velo", [2, fd], ["relu"], rng),
        mlp_size=make_mlp("mlp_size", [3, fd], ["relu"], rng),
        mlp_head=make_mlp("mlp_head", [2, fd], ["relu"], rng),  # (cos, sin)
        mlp_score=make_mlp("mlp_score", [1, fd], ["relu"], rng),
        mlp_fus=make_mlp("mlp_fus", [4 * fd, dd], ["relu"], rng),
        mlp_mov=make_mlp("mlp_mov", [2, md], ["relu"], rng),
        mlp_mot=make_mlp("mlp_mot", [md + hd, hd], ["relu"], rng),
        mlp_aff=make_mlp("mlp_aff", [c.aff_dim, hd, 1], ["relu", "identity"], rng),
        gru_mot=make_gru("gru_mot", c.gru_mot_in, hd, rng),
        mlp_dec=make_mlp("mlp_dec", [hd, hd, 2 * c.pred_steps],
                         ["relu", "identity"], rng),
    )
    if c.use_asu:
        params.gru_aff = make_gru("gru_aff", c.aff_dim, hd, rng)
    if c.use_msa:
        params.gate_mot = make_mlp("gate_mot", [2 * hd + c.x_dim, hd],
                                   ["identity"], rng)
        params.gate_aff = make_mlp("gate_aff", [2 * hd + c.aff_dim, hd],
                                   ["identity"], rng)
    return params


def save_model(path, params: ModelParams) -> None:
    save_weights(path, params.blocks())


def load_model(path, config: ModelConfig) -> ModelParams:
    """Rebuild a model from a weight file, verifying it against config.

    Block names are compared before shapes, so a file of another variant is
    reported by the blocks it has too many or too few.  Every tensor of the
    model built here is overwritten by the file's, in the model's dtype: a
    file saved from a float32 model loads bitwise, and a value beyond
    float32's range is refused rather than loaded as infinity.
    """
    params = init_model(config, seed=0)
    stored = {b.name: b for b in load_weights(path)}
    unexpected = sorted(set(stored) - {b.name for b in params.blocks()})
    if unexpected:
        raise ConfigError(f"{path}: weight file holds unexpected blocks: "
                          f"{unexpected} (wrong variant?)")
    for block in params.blocks():
        if block.name not in stored:
            raise ConfigError(f"{path}: weight file is missing block "
                              f"'{block.name}' required by the configuration")
        src = stored[block.name]
        if len(src.weights) != len(block.weights):
            raise ConfigError(f"{path}: block '{block.name}': file holds "
                              f"{len(src.weights)} tensors, config expects "
                              f"{len(block.weights)}")
        for i, (a, b) in enumerate(zip(block.weights, src.weights)):
            if a.shape != b.shape:
                raise ConfigError(f"{path}: block '{block.name}' tensor {i}: "
                                  f"file shape {b.shape} vs configured shape "
                                  f"{a.shape}")
            with np.errstate(over="ignore"):  # refused just below
                a[...] = b
            if not np.all(np.isfinite(a)):
                raise ConfigError(f"{path}: block '{block.name}' tensor {i} "
                                  f"holds a value beyond {a.dtype}'s range")
    return params
