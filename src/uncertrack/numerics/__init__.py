"""Dense reverse-mode numerics: tape, layers, losses, Adam, serialization."""

from .layers import GruParams, MlpParams, gru_step, make_gru, make_mlp, mlp_forward
from .params import (GradCheckReport, ParamBlock, adam_step, grad_check,
                     make_block)
from .serialize import load_weights, save_weights
from .tape import NumericsError, Tape, Var

__all__ = [
    "Tape", "Var", "NumericsError",
    "MlpParams", "GruParams",
    "make_mlp", "make_gru",
    "mlp_forward", "gru_step",
    "ParamBlock", "make_block", "adam_step", "grad_check", "GradCheckReport",
    "save_weights", "load_weights",
]
