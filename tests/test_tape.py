"""Finite-difference checks for every primitive on the tape."""

import gc

import numpy as np
import pytest

from uncertrack.numerics import NumericsError, Tape

from oracles import bce_direct, fd_gradient, rel_err

SIZES = [(2, 3), (4, 5), (7, 2)]


def _weighted_sum(tape, out, seed=99):
    # non-uniform weighting so gradients are not constant rows
    rng = np.random.default_rng(seed)
    w = tape.const(rng.standard_normal(out.value.shape))
    return tape.sum(tape.mul(out, w))


def _check(build, shapes, seed, tol=1e-4):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    grads = [np.zeros_like(a) for a in arrays]

    def forward():
        tape = Tape()
        leaves = [tape.param(a, g) for a, g in zip(arrays, grads)]
        return tape, _weighted_sum(tape, build(tape, leaves))

    tape, loss = forward()
    tape.backward(loss)
    analytic = [g.copy() for g in grads]

    def value():
        return float(forward()[1].value[0, 0])

    for arr, ana in zip(arrays, analytic):
        fd = fd_gradient(value, arr)
        assert rel_err(ana, fd) < tol


@pytest.mark.parametrize("rows,cols", SIZES)
def test_matmul(rows, cols):
    _check(lambda t, xs: t.matmul(xs[0], xs[1]), [(rows, cols), (cols, 4)], seed=1)


@pytest.mark.parametrize("rows,cols", SIZES)
def test_add_sub_mul(rows, cols):
    _check(lambda t, xs: t.add(xs[0], xs[1]), [(rows, cols), (rows, cols)], seed=2)
    _check(lambda t, xs: t.sub(xs[0], xs[1]), [(rows, cols), (rows, cols)], seed=3)
    _check(lambda t, xs: t.mul(xs[0], xs[1]), [(rows, cols), (rows, cols)], seed=4)


@pytest.mark.parametrize("rows,cols", SIZES)
def test_row_broadcast(rows, cols):
    _check(lambda t, xs: t.add(xs[0], xs[1]), [(rows, cols), (1, cols)], seed=5)
    _check(lambda t, xs: t.mul(xs[0], xs[1]), [(rows, cols), (1, cols)], seed=6)


@pytest.mark.parametrize("rows,cols", SIZES)
def test_column_broadcast(rows, cols):
    # (P, 1) weights times (P, d) states, the aggregation pattern
    _check(lambda t, xs: t.mul(xs[0], xs[1]), [(rows, 1), (rows, cols)], seed=7)


@pytest.mark.parametrize("rows,cols", SIZES)
def test_elementwise_nonlinearities(rows, cols):
    _check(lambda t, xs: t.affine(xs[0], -2.5), [(rows, cols)], seed=8)
    _check(lambda t, xs: t.abs(xs[0]), [(rows, cols)], seed=9)
    _check(lambda t, xs: t.relu(xs[0]), [(rows, cols)], seed=10)
    _check(lambda t, xs: t.sigmoid(xs[0]), [(rows, cols)], seed=11)


@pytest.mark.parametrize("rows,cols", SIZES)
def test_concat_gather_scatter(rows, cols):
    _check(lambda t, xs: t.concat([xs[0], xs[1]]),
           [(rows, cols), (rows, cols + 1)], seed=15)
    _check(lambda t, xs: t.concat([xs[0], xs[1]], axis=0),
           [(rows, cols), (rows + 1, cols)], seed=24)
    idx = np.random.default_rng(0).integers(0, rows, size=rows + 2)
    _check(lambda t, xs: t.gather_rows(xs[0], idx), [(rows, cols)], seed=16)
    place = np.random.default_rng(1).permutation(rows + 3)[:rows]
    _check(lambda t, xs: t.scatter_rows(xs[0], place, rows + 3),
           [(rows, cols)], seed=17)


@pytest.mark.parametrize("rows,cols", SIZES)
def test_segment_ops(rows, cols):
    seg = np.sort(np.random.default_rng(2).integers(0, 3, size=rows))
    _check(lambda t, xs: t.segment_sum(xs[0], seg, 3), [(rows, cols)], seed=18)
    _check(lambda t, xs: t.matmul(t.segment_softmax(t.sigmoid(xs[0]), seg, 3), xs[1]),
           [(rows, 1), (1, 4)], seed=19)


@pytest.mark.parametrize("rows,cols", SIZES)
def test_reductions_and_losses(rows, cols):
    _check(lambda t, xs: t.mean(t.mul(xs[0], xs[0])), [(rows, cols)], seed=20)

    target = np.random.default_rng(3).standard_normal((rows, cols))
    weights = (np.random.default_rng(4).random((rows, cols)) > 0.3).astype(float)
    weights[0, 0] = 1.0
    _check(lambda t, xs: t.smooth_l1(xs[0], target, beta=0.7, weights=weights),
           [(rows, cols)], seed=22)

    labels = np.random.default_rng(5).integers(0, 2, size=(rows, 1)).astype(float)
    pair_weights = np.random.default_rng(6).uniform(0.1, 2.0, size=(rows, 1))
    _check(lambda t, xs: t.bce(xs[0], labels, weights=pair_weights),
           [(rows, 1)], seed=25)


def test_forward_determinism():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((4, 3))

    def run():
        tape = Tape()
        va = tape.param(a, np.zeros_like(a))
        vb = tape.param(b, np.zeros_like(b))
        return tape.sigmoid(tape.matmul(va, vb)).value

    first = run()
    for _ in range(3):
        assert np.array_equal(first, run())


def test_shared_parameter_grads_accumulate():
    # one leaf used twice: d/dw of (sum(w) + sum(2w)) = 3 everywhere
    w = np.ones((2, 2))
    g = np.zeros_like(w)
    tape = Tape()
    v = tape.param(w, g)
    loss = tape.add(tape.sum(v), tape.sum(tape.affine(v, 2.0)))
    tape.backward(loss)
    assert np.array_equal(g, np.full((2, 2), 3.0))


def test_no_grad_constants_stay_untouched():
    tape = Tape()
    c = tape.const(np.ones((2, 2)))
    w = np.ones((2, 2))
    g = np.zeros_like(w)
    v = tape.param(w, g)
    loss = tape.sum(tape.mul(c, v))
    tape.backward(loss)
    assert c.grad is None
    assert np.array_equal(g, np.ones((2, 2)))


def test_weighted_bce_is_weighted_mean_of_oracle_terms():
    rng = np.random.default_rng(7)
    logits = rng.uniform(-30.0, 30.0, size=(6, 1))
    labels = rng.integers(0, 2, size=6).astype(float)
    weights = rng.uniform(0.1, 2.0, size=6)
    tape = Tape()
    got = tape.bce(tape.const(logits), labels, weights=weights).value[0, 0]
    terms = [bce_direct(z, lab) for z, lab in zip(logits[:, 0], labels)]
    assert abs(got - np.dot(weights, terms) / weights.sum()) <= 1e-12 * got
    with pytest.raises(NumericsError):
        tape.bce(tape.const(logits), labels, weights=np.zeros(6))


def test_bce_gradient_does_not_saturate():
    # confidently wrong pairs still pull their logits back: the gradient is
    # (sigmoid(z) - y) w / sum(w), however large |z| grows, and the loss
    # stays finite where exp(|z|) is far beyond any clamp
    logits = np.array([[20.0], [-20.0], [40.0], [-40.0], [0.5]])
    labels = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    weights = np.array([1.0, 2.0, 0.5, 1.0, 0.5])
    grad = np.zeros_like(logits)
    tape = Tape()
    loss = tape.bce(tape.param(logits, grad), labels, weights)
    tape.backward(loss)
    terms = [bce_direct(z, lab) for z, lab in zip(logits[:, 0], labels)]
    want_loss = np.dot(weights, terms) / weights.sum()
    assert abs(loss.value[0, 0] - want_loss) <= 1e-12 * want_loss
    want = (1.0 / (1.0 + np.exp(-logits[:, 0])) - labels) * weights / weights.sum()
    assert np.all(grad[:, 0] != 0.0)
    assert np.allclose(grad[:, 0], want, rtol=1e-12, atol=0.0)


def test_scatters_bitwise_equal_np_add_at_with_duplicate_indices():
    # np.add.at is the reference for the bincount scatters in segment_sum
    # (forward) and gather_rows (backward)
    rng = np.random.default_rng(8)
    seg = np.sort(rng.integers(0, 9, size=40))
    rows = rng.standard_normal((40, 5))
    want = np.zeros((9, 5))
    np.add.at(want, seg, rows)
    tape = Tape()
    assert np.array_equal(tape.segment_sum(tape.const(rows), seg, 9).value, want)

    idx = rng.integers(0, 9, size=40)  # unsorted, with repeats
    src = rng.standard_normal((9, 5))
    inner = tape.affine(tape.param(src, np.zeros_like(src)), 1.0)
    gathered = tape.gather_rows(inner, idx)
    tape.backward(tape.sum(tape.mul(gathered, tape.const(rows))))
    want = np.zeros((9, 5))
    np.add.at(want, idx, rows)
    assert np.array_equal(inner.grad, want)


def test_dropped_tapes_leave_no_reference_cycles():
    rng = np.random.default_rng(9)
    weights = [rng.standard_normal(s) for s in [(3, 3), (3, 3), (1, 3)] * 3]

    def run(backward: bool):
        tape = Tape()
        leaves = [tape.param(w, np.zeros_like(w)) for w in weights]
        x = tape.gather_rows(leaves[0], np.array([0, 0, 1, 2]))
        h = tape.gru(x, tape.const(np.zeros((4, 3))), *leaves)
        y = tape.segment_sum(tape.add(h, x), np.array([0, 0, 1, 1]), 2)
        loss = tape.sub(tape.sum(tape.relu(y)), tape.mean(tape.sigmoid(h)))
        if backward:
            tape.backward(loss)

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run(backward=False)
        run(backward=True)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
