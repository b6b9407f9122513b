"""Adam updates and the built-in gradient checker."""

import numpy as np
import pytest

from uncertrack.numerics import (NumericsError, ParamBlock, Tape, adam_step,
                                 grad_check, make_block)

from oracles import adam_single


def _scalar_block(w0=0.0):
    return ParamBlock("w", [np.array([[w0]])])


def test_adam_zero_grads_leave_weights():
    b = _scalar_block(1.5)
    adam_step([b], lr=0.1, step=1)
    assert b.weights[0][0, 0] == 1.5


def test_adam_single_step_matches_hand_execution():
    b = _scalar_block(0.0)
    b.grads[0][0, 0] = 1.0
    adam_step([b], lr=0.1, step=1)
    want, _, _ = adam_single(0.0, 1.0, lr=0.1, step=1)
    assert abs(b.weights[0][0, 0] - want) < 1e-12
    assert abs(b.weights[0][0, 0] - (-0.1)) < 1e-8  # bias correction: mhat=vhat=1
    assert np.all(b.grads[0] == 0.0)


def test_adam_multi_step_matches_hand_execution():
    b = _scalar_block(0.3)
    w, m, v = 0.3, 0.0, 0.0
    rng = np.random.default_rng(7)
    for step in range(1, 6):
        g = float(rng.standard_normal())
        b.grads[0][0, 0] = g
        adam_step([b], lr=0.01, step=step)
        w, m, v = adam_single(w, g, lr=0.01, step=step, m=m, v=v)
        assert abs(b.weights[0][0, 0] - w) < 1e-12


def test_adam_identical_blocks_evolve_identically():
    rng = np.random.default_rng(3)
    b1 = make_block("a", [(3, 4), (1, 4)], np.random.default_rng(5))
    b2 = ParamBlock("b", [w.copy() for w in b1.weights])
    for step in range(1, 4):
        g = rng.standard_normal((3, 4))
        gb = rng.standard_normal((1, 4))
        for b in (b1, b2):
            b.grads[0][...] = g
            b.grads[1][...] = gb
            adam_step([b], lr=0.05, step=step)
    assert np.array_equal(b1.weights[0], b2.weights[0])
    assert np.array_equal(b1.weights[1], b2.weights[1])


def test_adam_rejects_nonfinite_gradients():
    b = _scalar_block()
    b.grads[0][0, 0] = np.nan
    with pytest.raises(NumericsError, match="w"):
        adam_step([b], lr=0.1, step=1)


def test_grad_check_quadratic():
    b = _scalar_block(3.0)

    def loss():
        w = b.weights[0][0, 0]
        b.grads[0][0, 0] += w
        return 0.5 * w * w

    report = grad_check(loss, [b], samples=1, eps=1e-5)
    assert report.max_error < 1e-8
    assert abs(report.worst.analytic - 3.0) < 1e-12


def test_grad_check_flags_corrupted_backward():
    b = make_block("broken", [(2, 2)], np.random.default_rng(1))

    def loss():
        w = b.weights[0]
        b.grads[0] += 2.0 * w + 1.0  # wrong: true gradient of sum(w^2) is 2w
        return float((w * w).sum())

    report = grad_check(loss, [b], samples=8, eps=1e-5,
                        rng=np.random.default_rng(0))
    assert not report.passed(1e-4)
    assert report.worst.block == "broken"


def test_grad_check_through_tape_loss():
    rng = np.random.default_rng(9)
    b = make_block("layer", [(4, 3), (1, 3)], rng)
    x = rng.standard_normal((5, 4))

    def loss():
        tape = Tape()
        w = tape.param(b.weights[0], b.grads[0])
        bias = tape.param(b.weights[1], b.grads[1])
        xw = tape.linear(tape.const(x), w, tape.const(np.zeros((1, 3))))
        out = tape.sigmoid(tape.add(xw, bias))
        val = tape.mean(tape.mul(out, out))
        tape.backward(val)
        return float(val.value[0, 0])

    report = grad_check(loss, [b], samples=15, eps=1e-5,
                        rng=np.random.default_rng(2))
    assert report.passed(1e-6)


def test_grad_check_rejects_zero_samples():
    with pytest.raises(NumericsError):
        grad_check(lambda: 0.0, [_scalar_block()], samples=0)
