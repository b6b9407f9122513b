"""Dense reverse-mode numerics: tape, layers, losses, Adam, serialization."""

from .layers import (GruParams, LinearParams, MlpParams, gru_step,
                     linear_forward, make_gru, make_linear, make_mlp,
                     mlp_forward)
from .params import (GradCheckReport, ParamBlock, adam_step, grad_check,
                     make_block)
from .serialize import load_weights, save_weights
from .tape import SCORE_EPS, NumericsError, Tape, Var

__all__ = [
    "Tape", "Var", "NumericsError", "SCORE_EPS",
    "MlpParams", "GruParams", "LinearParams",
    "make_mlp", "make_gru", "make_linear",
    "mlp_forward", "gru_step", "linear_forward",
    "ParamBlock", "make_block", "adam_step", "grad_check", "GradCheckReport",
    "save_weights", "load_weights",
]
