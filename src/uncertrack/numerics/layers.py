"""MLPs and a GRU cell on top of the tape.

All forward functions accept a ``Var`` or raw array input.  Raw inputs become
constants in the layer's weight dtype, so float64 detection columns feed a
float32 model without promoting it; batched inputs are rows of a 2-D matrix,
a single vector is a 1-row batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ParamBlock, make_block
from .tape import NumericsError, Tape, Var

__all__ = ["MlpParams", "GruParams", "make_mlp", "make_gru", "mlp_forward",
           "gru_step"]

_ACTIVATIONS = ("relu", "identity")


@dataclass
class MlpParams:
    """Stack of linear layers; ``block.weights`` is [W0, b0, W1, b1, ...]."""

    block: ParamBlock
    activations: list[str]

    @property
    def in_dim(self) -> int:
        return self.block.weights[0].shape[0]


@dataclass
class GruParams:
    """Gated recurrent unit; weights [Wz, Uz, bz, Wr, Ur, br, Wc, Uc, bc]."""

    block: ParamBlock
    input_dim: int
    hidden_dim: int


def make_mlp(name: str, dims: list[int], activations: list[str],
             rng: np.random.Generator) -> MlpParams:
    if len(activations) != len(dims) - 1:
        raise NumericsError(f"mlp {name}: need one activation per layer")
    for act in activations:
        if act not in _ACTIVATIONS:
            raise NumericsError(f"mlp {name}: unknown activation '{act}'")
    shapes = []
    for a, b in zip(dims[:-1], dims[1:]):
        shapes.append((a, b))
        shapes.append((1, b))
    return MlpParams(block=make_block(name, shapes, rng,
                                      biases=range(1, len(shapes), 2)),
                     activations=list(activations))


def make_gru(name: str, input_dim: int, hidden_dim: int,
             rng: np.random.Generator) -> GruParams:
    shapes = []
    for _ in range(3):  # update, reset, candidate
        shapes.append((input_dim, hidden_dim))
        shapes.append((hidden_dim, hidden_dim))
        shapes.append((1, hidden_dim))
    return GruParams(block=make_block(name, shapes, rng, biases=(2, 5, 8)),
                     input_dim=input_dim, hidden_dim=hidden_dim)


def _bind(tape: Tape, block: ParamBlock) -> list[Var]:
    # repeated applications of one block on a tape share leaf Vars
    cached = tape._bound.get(id(block))
    if cached is None:
        cached = [tape.param(w, g) for w, g in zip(block.weights, block.grads)]
        tape._bound[id(block)] = cached
    return cached


def _lift(tape: Tape, block: ParamBlock, x) -> Var:
    # a raw input becomes a constant in the block's weight dtype
    if isinstance(x, Var):
        return x
    return tape.const(np.asarray(x, dtype=block.weights[0].dtype))


def _check_dim(name: str, x: Var, want: int) -> None:
    if x.value.shape[1] != want:
        raise NumericsError(f"{name}: input dim {x.value.shape[1]}, expected {want}")


def mlp_forward(tape: Tape, params: MlpParams, x) -> Var:
    """Run the MLP; gradients flow to both the input and the weights."""
    h = _lift(tape, params.block, x)
    _check_dim(params.block.name, h, params.in_dim)
    bound = _bind(tape, params.block)
    for layer, act in enumerate(params.activations):
        h = tape.linear(h, bound[2 * layer], bound[2 * layer + 1])
        if act == "relu":
            h = tape.relu(h)
    return h


def gru_step(tape: Tape, params: GruParams, x, h_prev) -> Var:
    """One GRU update: reset gate applied to the recurrent candidate term.

        z = sigmoid(x Wz + h Uz + bz)
        r = sigmoid(x Wr + h Ur + br)
        c = tanh(x Wc + (r * h) Uc + bc)
        h' = (1 - z) * h + z * c
    """
    x = _lift(tape, params.block, x)
    h = _lift(tape, params.block, h_prev)
    _check_dim(params.block.name, x, params.input_dim)
    _check_dim(params.block.name, h, params.hidden_dim)
    wz, uz, bz, wr, ur, br, wc, uc, bc = _bind(tape, params.block)
    return tape.gru(x, h, wz, uz, bz, wr, ur, br, wc, uc, bc)
