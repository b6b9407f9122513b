"""The sigmoid, segment softmax, and the two losses, as tape ops."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uncertrack.numerics import NumericsError, Tape

from oracles import bce_direct, smooth_l1_direct, softmax_direct


def _value(var) -> float:
    return float(var.value[0, 0])


def _sigmoid(x) -> float:
    tape = Tape()
    return _value(tape.sigmoid(tape.const(x)))


def _softmax(scores, seg, n_seg) -> np.ndarray:
    tape = Tape()
    column = tape.const(np.asarray(scores, dtype=float)[:, None])
    return tape.segment_softmax(column, np.asarray(seg), n_seg).value[:, 0]


def _smooth_l1(pred, target, beta=1.0) -> float:
    tape = Tape()
    target = np.asarray(target)[None, :]
    return _value(tape.smooth_l1(tape.const(pred), target, beta,
                                 np.ones(target.shape)))


def _bce(logit, label) -> float:
    tape = Tape()
    return _value(tape.bce(tape.const(logit), label, np.ones(1)))


def test_sigmoid_midpoint():
    assert _sigmoid(0.0) == 0.5


def test_segment_softmax_uniform_and_singleton():
    out = _softmax([3.7, 3.7, 3.7], [0, 0, 0], 1)
    assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3])
    out = _softmax([5.0, 1.0], [0, 1], 2)
    assert np.array_equal(out, [1.0, 1.0])


def test_segment_softmax_two_members():
    out = _softmax([1.0, 2.0], [0, 0], 1)
    e = math.e
    assert np.allclose(out, [e / (e + e * e), e * e / (e + e * e)], atol=1e-12)
    assert abs(out[0] - 0.2689) < 1e-4 and abs(out[1] - 0.7311) < 1e-4


def test_masked_softmax_empty_mask():
    # a -inf score masks its member out; a segment with every member masked
    # has an empty mask and no defined softmax
    out = _softmax([1.0, -np.inf, 0.5], [0, 0, 1], 2)
    assert np.array_equal(out, [1.0, 0.0, 1.0])
    with pytest.raises(NumericsError):
        _softmax([-np.inf], [0], 1)
    with pytest.raises(NumericsError):
        _softmax([0.5, -np.inf, -np.inf], [0, 1, 1], 2)
    with pytest.raises(NumericsError):
        _softmax([0.5, np.nan], [0, 0], 1)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2 ** 31))
def test_segment_softmax_properties(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(n) * 3
    # sorted segment ids as the encoder lays them out: one segment per
    # current row, and a row without candidates (a birth) an empty segment
    starts = np.r_[True, rng.random(n - 1) < 0.4]
    seg = np.cumsum(starts * rng.integers(1, 3, n)) - 1
    n_seg = int(seg[-1]) + 2
    out = _softmax(scores, seg, n_seg)
    assert np.all(out > 0.0)
    shift = rng.uniform(-5, 5, n_seg)
    shifted = _softmax(scores + shift[seg], seg, n_seg)
    for s in np.unique(seg):
        members = np.flatnonzero(seg == s)
        assert abs(out[members].sum() - 1.0) < 1e-9
        assert np.argmax(out[members]) == np.argmax(scores[members])
        # invariance to a constant shift of one segment's scores
        assert np.allclose(out[members], shifted[members], atol=1e-12)
        # agreement with the direct exp-normalize oracle
        assert np.allclose(out[members], softmax_direct(scores[members]),
                           atol=1e-12)


def test_smooth_l1_values():
    assert _smooth_l1([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert abs(_smooth_l1([0.5], [0.0], beta=1.0) - 0.125) < 1e-12
    assert abs(_smooth_l1([2.0], [0.0], beta=1.0) - 1.5) < 1e-12


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2 ** 31))
def test_smooth_l1_matches_piecewise_oracle(n, seed):
    rng = np.random.default_rng(seed)
    pred = rng.standard_normal(n) * 2
    target = rng.standard_normal(n) * 2
    got = _smooth_l1(pred, target, beta=1.0)
    assert got >= 0.0
    assert abs(got - smooth_l1_direct(pred, target)) < 1e-12


def test_smooth_l1_errors():
    with pytest.raises(NumericsError):
        _smooth_l1([1.0], [1.0, 2.0])
    with pytest.raises(NumericsError):
        _smooth_l1([1.0], [1.0], beta=0.0)


def test_bce_values():
    assert abs(_bce(0.0, 1) - math.log(2)) < 1e-12
    assert abs(_bce(0.0, 0) - math.log(2)) < 1e-12
    assert 0.0 < _bce(16.0, 1) < 1.2e-7  # log1p(exp(-16))
    assert abs(_bce(math.log(9.0), 0) - (-math.log(0.1))) < 1e-9  # p = 0.9
    assert _bce(800.0, 0) == 800.0  # far past where exp(z) overflows


@given(st.floats(min_value=-30.0, max_value=30.0), st.integers(min_value=0, max_value=1))
def test_bce_nonnegative_and_matches_oracle(logit, label):
    got = _bce(logit, label)
    assert got >= 0.0
    assert abs(got - bce_direct(logit, label)) <= 1e-12 * max(1.0, got)
