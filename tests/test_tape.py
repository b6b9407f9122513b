"""Finite-difference checks for every primitive on the tape."""

import gc
import weakref

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
    _check(lambda t, xs: t.concat([t.slice_rows(xs[0], 1, rows),
                                   t.slice_rows(xs[0], 0, 2)], axis=0),
           [(rows, cols)], seed=26)


@pytest.mark.parametrize("rows,cols", SIZES)
def test_segment_ops(rows, cols):
    seg = np.sort(np.random.default_rng(2).integers(0, 3, size=rows))
    _check(lambda t, xs: t.segment_sum(xs[0], seg, 3), [(rows, cols)], seed=18)
    # no repeated id: rows written into zeros at unordered places
    place = np.random.default_rng(1).permutation(rows + 3)[:rows]
    _check(lambda t, xs: t.segment_sum(xs[0], place, rows + 3),
           [(rows, cols)], seed=17)
    _check(lambda t, xs: t.linear(t.segment_softmax(t.sigmoid(xs[0]), seg, 3),
                                  xs[1], t.const(np.zeros((1, 4)))),
           [(rows, 1), (1, 4)], seed=19)


@pytest.mark.parametrize("rows,cols", SIZES)
def test_reductions_and_losses(rows, cols):
    _check(lambda t, xs: t.mean(t.mul(xs[0], xs[0])), [(rows, cols)], seed=20)

    # residuals on both sides of |d| = 1, away from the kink; the leaf is
    # the array _check draws from seed 22
    pred = np.random.default_rng(22).standard_normal((rows, cols))
    rng = np.random.default_rng(3)
    d = rng.choice([-2.5, -1.6, -0.6, -0.2, 0.3, 0.7, 1.4, 2.2], (rows, cols))
    d.flat[:2] = [0.5, -1.8]
    weights = (np.random.default_rng(4).random((rows, cols)) > 0.3).astype(float)
    weights.flat[:2] = 1.0
    assert np.any((np.abs(d) < 1) & (weights > 0))
    assert np.any((np.abs(d) > 1) & (weights > 0))
    _check(lambda t, xs: t.smooth_l1(xs[0], pred - d, weights=weights),
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
        return tape.sigmoid(tape.linear(va, vb, tape.const(np.zeros((1, 3))))).value

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


def test_weighted_bce_is_weighted_sum_of_oracle_terms():
    rng = np.random.default_rng(7)
    logits = rng.uniform(-30.0, 30.0, size=(6, 1))
    labels = rng.integers(0, 2, size=6).astype(float)
    weights = rng.uniform(0.1, 2.0, size=6)
    tape = Tape()
    got = tape.bce(tape.const(logits), labels, weights=weights).value[0, 0]
    terms = [bce_direct(z, lab) for z, lab in zip(logits[:, 0], labels)]
    assert abs(got - np.dot(weights, terms)) <= 1e-12 * got


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_losses_over_nothing_are_zero(dtype):
    # zero rows, or rows that all weigh 0, give a loss of 0 and a zero
    # gradient, without a warning (the suite turns warnings into failures)
    rng = np.random.default_rng(14)
    for rows in (0, 5):
        pred = rng.standard_normal((rows, 4)).astype(dtype)
        logits = rng.uniform(-30.0, 30.0, (rows, 1)).astype(dtype)
        grads = np.ones_like(pred), np.ones_like(logits)
        tape = Tape()
        l1 = tape.smooth_l1(tape.param(pred, grads[0]),
                            rng.standard_normal((rows, 4)), np.zeros((rows, 4)))
        bce = tape.bce(tape.param(logits, grads[1]),
                       rng.integers(0, 2, rows), np.zeros(rows))
        assert l1.value.dtype == bce.value.dtype == dtype
        assert l1.value[0, 0] == 0.0 and bce.value[0, 0] == 0.0
        grads[0][...] = grads[1][...] = 0.0
        tape.backward(tape.add(l1, bce))
        assert grads[0].shape == (rows, 4) and not np.any(grads[0])
        assert grads[1].shape == (rows, 1) and not np.any(grads[1])


def test_bce_gradient_does_not_saturate():
    # confidently wrong pairs still pull their logits back: the gradient is
    # (sigmoid(z) - y) w, however large |z| grows, and the loss stays finite
    # where exp(|z|) is far beyond any clamp
    logits = np.array([[20.0], [-20.0], [40.0], [-40.0], [0.5]])
    labels = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    weights = np.array([1.0, 2.0, 0.5, 1.0, 0.5])
    grad = np.zeros_like(logits)
    tape = Tape()
    loss = tape.bce(tape.param(logits, grad), labels, weights)
    tape.backward(loss)
    terms = [bce_direct(z, lab) for z, lab in zip(logits[:, 0], labels)]
    want_loss = np.dot(weights, terms)
    assert abs(loss.value[0, 0] - want_loss) <= 1e-12 * want_loss
    want = (1.0 / (1.0 + np.exp(-logits[:, 0])) - labels) * weights
    assert np.all(grad[:, 0] != 0.0)
    assert np.allclose(grad[:, 0], want, rtol=1e-12, atol=0.0)


def test_scatters_bitwise_equal_np_add_at_with_duplicate_indices():
    # np.add.at is the reference for the scatters in segment_sum (forward)
    # and gather_rows (backward): summed in float64 and rounded once, so a
    # float32 scatter equals the float64 reference cast to float32.  An index
    # without repeats takes the write-into-zeros path, the others bincount.
    rng = np.random.default_rng(8)
    cases = {
        "sorted, repeats": np.sort(rng.integers(0, 9, size=40)),
        "unsorted, repeats": rng.integers(0, 9, size=40),
        "permutation": rng.permutation(9),
        "strict subset": rng.permutation(9)[:5],
        "empty": np.zeros(0, dtype=np.intp),
    }
    for dtype in (np.float64, np.float32):
        for name, idx in cases.items():
            rows = rng.standard_normal((len(idx), 5)).astype(dtype)
            want = np.zeros((9, 5))
            np.add.at(want, idx, rows.astype(np.float64))
            want = want.astype(dtype)
            tape = Tape()
            summed = tape.segment_sum(tape.const(rows), idx, 9).value
            assert summed.dtype == dtype and np.array_equal(summed, want), name

            src = rng.standard_normal((9, 5)).astype(dtype)
            inner = tape.affine(tape.param(src, np.zeros_like(src)), 1.0)
            gathered = tape.gather_rows(inner, idx)
            tape.backward(tape.sum(tape.mul(gathered, tape.const(rows))))
            assert inner.grad.dtype == dtype, name
            assert np.array_equal(inner.grad, want), name


def test_slice_rows_adds_each_slice_into_its_rows():
    # the value is a view of rows lo:hi; backward adds each slice's gradient
    # into those rows of one zeroed array: disjoint slices give each block
    # its gradient exactly, repeated and overlapping slices accumulate, and
    # an empty slice is zero rows
    rng = np.random.default_rng(13)
    for dtype in (np.float64, np.float32):
        src = rng.standard_normal((7, 3)).astype(dtype)
        for cuts in ([(0, 2), (2, 5), (5, 7)], [(1, 4), (1, 4), (2, 6)],
                     [(3, 3)], [(0, 7), (7, 7)]):
            tape = Tape()
            inner = tape.affine(tape.param(src, np.zeros_like(src)), 1.0)
            weights = [rng.standard_normal((hi - lo, 3)).astype(dtype)
                       for lo, hi in cuts]
            loss = tape.const(np.zeros((1, 1), dtype=dtype))
            for (lo, hi), w in zip(cuts, weights):
                part = tape.slice_rows(inner, lo, hi)
                assert part.value.shape == (hi - lo, 3)
                assert part.value.dtype == dtype
                assert np.array_equal(part.value, src[lo:hi])
                assert hi == lo or np.shares_memory(part.value, inner.value)
                loss = tape.add(loss, tape.sum(tape.mul(part, tape.const(w))))
            tape.backward(loss)
            want = np.zeros_like(src)
            for (lo, hi), w in reversed(list(zip(cuts, weights))):
                want[lo:hi] += w  # backward runs the newest slice first
            assert inner.grad.dtype == dtype
            assert np.array_equal(inner.grad, want)


def test_scatters_over_zero_rows_stay_float():
    tape = Tape()
    summed = tape.segment_sum(tape.const(np.zeros((0, 3))),
                              np.zeros(0, dtype=int), 2)
    assert summed.value.dtype == np.float64
    assert np.array_equal(summed.value, np.zeros((2, 3)))

    # the empty gather's backward runs first and must not leave int zeros
    # for the float gradient of the earlier gather to add into
    src = np.arange(6.0).reshape(3, 2)
    inner = tape.affine(tape.param(src, np.zeros_like(src)), 1.0)
    full = tape.gather_rows(inner, np.array([2, 0]))
    empty = tape.gather_rows(inner, np.zeros(0, dtype=int))
    tape.backward(tape.add(tape.sum(full), tape.sum(empty)))
    assert inner.grad.dtype == np.float64
    assert np.array_equal(inner.grad, [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])


def test_float32_operands_give_float32_values_and_gradients():
    # every op computes in its operands' dtype: float64 labels, targets,
    # weights and index-built zeros must not promote a float32 pass
    rng = np.random.default_rng(4)

    def leaf(tape, shape):
        v = rng.standard_normal(shape).astype(np.float32)
        return tape.param(v, np.zeros_like(v))

    tape = Tape()
    x = leaf(tape, (4, 3))
    seg = np.array([0, 0, 1, 2])
    outs = [
        tape.gru(x, tape.const(np.tanh(x.value)),
                 *[leaf(tape, s) for s in [(3, 3), (3, 3), (1, 3)] * 3]),
        tape.sigmoid(tape.relu(tape.abs(tape.sub(x, leaf(tape, (1, 3)))))),
        tape.segment_sum(x, np.array([0, 2, 3, 5]), 6),
        tape.segment_sum(tape.gather_rows(x, np.array([3, 0, 0, 1])), seg, 3),
        tape.mul(x, tape.segment_softmax(leaf(tape, (4, 1)), seg, 3)),
    ]
    loss = tape.add(
        tape.smooth_l1(outs[0], np.zeros((4, 3)), np.ones((4, 3))),
        tape.bce(tape.concat([tape.sum(o) for o in outs], axis=0),
                 np.array([0.0, 1.0, 0.0, 1.0, 0.0]), np.ones(5)))
    nodes = list(tape._nodes)  # held, so backward keeps their gradients
    tape.backward(loss)
    assert all(n.value.dtype == np.float32 for n in nodes)
    assert all(n.grad.dtype == np.float32 for n in nodes)
    assert x.grad.dtype == np.float32 and np.any(x.grad != 0.0)


def test_float32_sigmoid_and_gru_saturate_without_warning():
    # exp(100) overflows float32 (but not float64); the limit, 0, is right,
    # and the suite turns any RuntimeWarning into a failure
    tape = Tape()
    a = np.full((2, 3), -100.0, dtype=np.float32)
    s = tape.sigmoid(tape.param(a, np.zeros_like(a)))
    assert s.value.dtype == np.float32 and np.array_equal(s.value, np.zeros((2, 3)))
    tape.backward(tape.sum(s))

    tape = Tape()
    x = np.ones((2, 3), dtype=np.float32)
    h = np.full((2, 3), 0.5, dtype=np.float32)
    zero = np.zeros((3, 3), dtype=np.float32)
    gate_bias = np.full((1, 3), -100.0, dtype=np.float32)  # z = r = 0
    leaves = [tape.param(v, np.zeros_like(v)) for v in
              (zero, zero, gate_bias, zero, zero, gate_bias,
               zero, zero, np.zeros((1, 3), dtype=np.float32))]
    out = tape.gru(tape.const(x), tape.const(h), *leaves)
    assert out.value.dtype == np.float32
    assert np.array_equal(out.value, h)  # z = 0 keeps the previous state
    tape.backward(tape.sum(out))


def test_forward_only_tape_records_nothing_and_refuses_backward():
    tape = Tape(grad=False)
    w = np.array([[2.0, -1.0]])
    g = np.zeros_like(w)
    y = tape.sum(tape.mul(tape.param(w, g), tape.const([[3.0, 4.0]])))
    assert y.no_grad and tape._nodes == [] and y.value[0, 0] == 2.0
    with pytest.raises(NumericsError, match="forward-only"):
        tape.backward(y)
    assert not g.any()


def test_dropped_tapes_leave_no_reference_cycles():
    rng = np.random.default_rng(9)
    weights = [rng.standard_normal(s) for s in [(3, 3), (3, 3), (1, 3)] * 3]

    def run(backward: bool, grad: bool = True):
        tape = Tape(grad=grad)
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
        run(backward=False, grad=False)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def _small_graph(tape):
    # a linear -> relu -> gather -> concat -> abs -> mean chain on two
    # parameter leaves; returns the root, one intermediate and the leaves'
    # gradient buffers
    rng = np.random.default_rng(10)
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal((1, 4))
    gw, gb = np.zeros_like(w), np.zeros_like(b)
    x = tape.const(rng.standard_normal((5, 3)))
    mid = tape.relu(tape.linear(x, tape.param(w, gw), tape.param(b, gb)))
    both = tape.concat([tape.gather_rows(mid, np.array([0, 2, 2])), mid], axis=0)
    return tape.mean(tape.abs(tape.affine(both, -1.5))), mid, (gw, gb)


def test_backward_frees_intermediates_nobody_holds():
    # only the root is held: every other node's value, and the arrays its
    # closure captured, are freed by reference counting during the pass
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        tape = Tape()
        loss, mid, _ = _small_graph(tape)
        refs = [weakref.ref(n.value) for n in tape._nodes[:-1]]
        del mid
        tape.backward(loss)
        assert [r for r in refs if r() is not None] == []
    finally:
        if was_enabled:
            gc.enable()


def test_backward_keeps_what_the_caller_holds():
    tape = Tape()
    loss, mid, (gw, gb) = _small_graph(tape)
    value = mid.value.copy()
    n_nodes = len(tape._nodes)
    tape.backward(loss)
    # the tape keeps one (released) entry per recorded node
    assert len(tape._nodes) == n_nodes and set(tape._nodes) == {None}
    assert mid._backward is None and loss._backward is None
    assert np.array_equal(mid.value, value)
    # mid feeds the concat twice, directly and through the gather: its
    # gradient sums both paths
    g_both = -1.5 * np.sign(-1.5 * np.concatenate([value[[0, 2, 2]], value])) / 32.0
    want = g_both[3:].copy()
    np.add.at(want, [0, 2, 2], g_both[:3])
    assert np.allclose(mid.grad, want, rtol=1e-12, atol=0)
    assert gw.any() and gb.any()


def test_second_backward_raises():
    tape = Tape()
    loss, _, (gw, gb) = _small_graph(tape)
    tape.backward(loss)
    once = gw.copy(), gb.copy()
    with pytest.raises(NumericsError, match="already ran"):
        tape.backward(loss)
    assert np.array_equal(gw, once[0]) and np.array_equal(gb, once[1])
