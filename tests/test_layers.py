"""MLP and GRU cells: trivial cases, hand oracle, finite differences."""

import numpy as np
import pytest

from uncertrack.numerics import (MlpParams, NumericsError, ParamBlock, Tape,
                                 gru_step, make_gru, make_mlp, mlp_forward)

from oracles import fd_gradient, float64_copy, gru_direct, rel_err


def _zero_mlp(dims, activations):
    shapes = []
    for a, b in zip(dims[:-1], dims[1:]):
        shapes.append((a, b))
        shapes.append((1, b))
    block = ParamBlock("m", [np.zeros(s) for s in shapes])
    return MlpParams(block=block, activations=activations)


def test_mlp_zero_weights_identity_activation():
    mlp = _zero_mlp([2, 2], ["identity"])
    out = mlp_forward(Tape(), mlp, np.array([1.0, 2.0]))
    assert np.array_equal(out.value, np.zeros((1, 2)))


def test_mlp_identity_weight_relu_clamps():
    mlp = _zero_mlp([2, 2], ["relu"])
    mlp.block.weights[0][...] = np.eye(2)
    out = mlp_forward(Tape(), mlp, np.array([-1.0, 3.0]))
    assert np.array_equal(out.value, np.array([[0.0, 3.0]]))


def test_mlp_dimension_mismatch():
    mlp = _zero_mlp([3, 2], ["relu"])
    with pytest.raises(NumericsError):
        mlp_forward(Tape(), mlp, np.array([1.0, 2.0]))


@pytest.mark.parametrize("dims", [[2, 3, 1], [4, 8, 2], [5, 6, 6, 1]])
def test_mlp_gradients_match_finite_differences(dims):
    rng = np.random.default_rng(17)
    acts = ["relu"] * (len(dims) - 2) + ["identity"]
    mlp = float64_copy(make_mlp("m", dims, acts, rng))
    x = rng.standard_normal(dims[0])

    def forward():
        tape = Tape()
        return tape, tape.sum(mlp_forward(tape, mlp, x))

    mlp.block.zero_grads()
    tape, loss = forward()
    tape.backward(loss)
    analytic = [g.copy() for g in mlp.block.grads]

    def value():
        return float(forward()[1].value[0, 0])

    for w, ana in zip(mlp.block.weights, analytic):
        assert rel_err(ana, fd_gradient(value, w)) < 1e-4


def test_gru_zero_params_zero_state():
    gru = make_gru("g", 3, 4, np.random.default_rng(0))
    for w in gru.block.weights:
        w[...] = 0.0
    out = gru_step(Tape(), gru, np.array([1.0, -2.0, 0.5]), np.zeros(4))
    assert np.array_equal(out.value, np.zeros((1, 4)))


def test_gru_deterministic_and_bounded():
    rng = np.random.default_rng(5)
    gru = make_gru("g", 4, 8, rng)
    x = rng.standard_normal(4)
    h = np.tanh(rng.standard_normal(8))
    a = gru_step(Tape(), gru, x, h).value
    b = gru_step(Tape(), gru, x, h).value
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) < 1.0)


def test_gru_matches_hand_oracle():
    rng = np.random.default_rng(11)
    gru = float64_copy(make_gru("g", 4, 8, rng))
    for w in gru.block.weights:  # give the zero biases some life too
        if w.shape[0] == 1:
            w[...] = rng.standard_normal(w.shape) * 0.1
    x = rng.standard_normal((3, 4))
    h = np.tanh(rng.standard_normal((3, 8)))
    got = gru_step(Tape(), gru, x, h).value
    want = gru_direct(gru.block.weights, x, h)
    assert rel_err(got, want) < 1e-12


@pytest.mark.parametrize("dims", [(4, 8), (2, 3), (6, 5)])
def test_gru_gradients_match_finite_differences(dims):
    in_dim, hid = dims
    rng = np.random.default_rng(23)
    gru = float64_copy(make_gru("g", in_dim, hid, rng))
    x = rng.standard_normal(in_dim)
    h = np.tanh(rng.standard_normal(hid))

    def forward():
        tape = Tape()
        return tape, tape.sum(gru_step(tape, gru, x, h))

    gru.block.zero_grads()
    tape, loss = forward()
    tape.backward(loss)
    analytic = [g.copy() for g in gru.block.grads]

    def value():
        return float(forward()[1].value[0, 0])

    for w, ana in zip(gru.block.weights, analytic):
        assert rel_err(ana, fd_gradient(value, w)) < 1e-4


def test_gru_input_gradients():
    rng = np.random.default_rng(29)
    gru = make_gru("g", 3, 5, rng)
    x = rng.standard_normal((1, 3))
    h = np.tanh(rng.standard_normal((1, 5)))
    gx = np.zeros_like(x)
    gh = np.zeros_like(h)

    def forward():
        tape = Tape()
        vx = tape.param(x, gx)
        vh = tape.param(h, gh)
        return tape, tape.sum(gru_step(tape, gru, vx, vh))

    tape, loss = forward()
    tape.backward(loss)
    ax, ah = gx.copy(), gh.copy()

    def value():
        return float(forward()[1].value[0, 0])

    assert rel_err(ax, fd_gradient(value, x)) < 1e-4
    assert rel_err(ah, fd_gradient(value, h)) < 1e-4
