"""Reverse-mode differentiation over dense 2-D floating-point arrays.

Every value on the tape is a 2-D numpy array (scalars are (1, 1), bias rows
are (1, n)).  An op computes in its operands' dtype: the model's float32
weights give a float32 pass, float64 weights (as in gradient checks) a
float64 one, and nothing on the tape promotes one to the other.  A constant
keeps the dtype of the array it is given; integers, booleans and Python
numbers become float64, so a caller mixing them into a float32 pass casts
them first.  Operations record a backward closure; ``Tape.backward`` walks
the recorded nodes in reverse creation order, which is a valid topological
order, and hands each closure its node's gradient.  Closures never capture
their own output node or the tape, so a dropped tape holds no reference
cycle and is freed by reference counting alone.  Gradients of parameter
leaves accumulate into externally supplied buffers so repeated forward passes
(shared weights across time steps, or several sequences of one batch) sum
their contributions.

Backward releases each node as soon as its closure has run: the tape's entry
becomes ``None`` (the list keeps its length) and the node drops its closure.
Every consumer of a node was recorded after it and so was released before
it, so from then on only the caller can still hold the node.  A node nobody
holds is freed there and then, with its value, its gradient and the arrays
its closure captured, and the rest of the pass reuses that memory instead of
faulting in fresh pages; a node the caller holds keeps its ``value`` and
``grad``.  A tape is walked once: a second ``backward`` raises.

A forward-only tape (``Tape(grad=False)``) binds parameters as constants, so
by the same rule that keeps constants off every tape, no result is recorded:
each intermediate value is freed as soon as the caller drops it, instead of
living until the tape does.  Inference uses one because it never calls
``backward``, and reusing freed temporaries while they are still in cache
makes a forward pass faster; the values it computes are bitwise those of a
recording tape.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Var", "Tape", "NumericsError"]


class NumericsError(RuntimeError):
    """Numerical failure (non-finite values, domain violations)."""


class Var:
    """One node of the computation: a 2-D value and its (lazy) gradient."""

    __slots__ = ("value", "grad", "_backward", "no_grad")

    def __init__(self, value: np.ndarray, no_grad: bool = False):
        self.value = value
        self.grad: np.ndarray | None = None
        self._backward = None
        self.no_grad = no_grad

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape}, no_grad={self.no_grad})"


def _acc(parent: Var, g: np.ndarray) -> None:
    # g may alias another node's gradient: copy on first touch
    if parent.no_grad:
        return
    if parent.grad is None:
        parent.grad = g.copy()
    else:
        parent.grad += g


def _acc_own(parent: Var, g: np.ndarray) -> None:
    # g is a fresh array owned by the caller: adopt it on first touch
    if parent.no_grad:
        return
    if parent.grad is None:
        parent.grad = g
    else:
        parent.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    # reverse row/column broadcasting of a (1, n), (m, 1) or (1, 1) operand
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def _acc_bcast(parent: Var, g: np.ndarray) -> None:
    if parent.value.shape == g.shape:
        _acc(parent, g)  # alias of the output gradient
    else:
        _acc_own(parent, _unbroadcast(g, parent.value.shape))


def _scatter_add(idx: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """``out[idx[k]] += rows[k]`` into zeros, summing in ``idx`` order.

    An index without repeats (a permutation, a subset, or empty) gives each
    slot at most one addend, so the rows are written into zeros.  Otherwise
    one ``bincount`` over flattened (row, column) slots replaces the slow
    ``ufunc.at`` loop.  ``bincount`` sums in float64, so float64 rows give
    bitwise ``np.add.at`` on a zero matrix, and float32 rows their float64
    sum rounded once; the cast returns the rows' dtype.  (A written -0.0
    stays -0.0 where ``np.add.at`` gives 0.0; the two compare equal.)
    """
    cols = rows.shape[1]
    if np.bincount(idx).max(initial=0) <= 1:
        out = np.zeros((n_rows, cols), dtype=rows.dtype)
        out[idx] = rows
        return out
    slots = (idx[:, None] * cols + np.arange(cols)).ravel()
    return np.bincount(slots, weights=rows.ravel(), minlength=n_rows * cols
                       ).reshape(n_rows, cols).astype(rows.dtype, copy=False)


def _as2d(x) -> np.ndarray:
    a = np.asarray(x)
    if a.dtype.kind != "f":
        a = a.astype(np.float64)
    if a.ndim == 0:
        return a.reshape(1, 1)
    if a.ndim == 1:
        return a.reshape(1, -1)
    if a.ndim != 2:
        raise NumericsError(f"tape values must be at most 2-D, got shape {a.shape}")
    return a


class Tape:
    """Records operations of one forward pass and replays them backward.

    With ``grad=False`` the tape is forward-only: ``param`` returns a
    constant leaf, nothing is recorded, and ``backward`` raises.
    """

    def __init__(self, grad: bool = True):
        self.grad = grad
        self._nodes: list[Var | None] = []  # None once backward released it
        self._walked = False
        self._bound: dict[int, list[Var]] = {}  # ParamBlock id -> leaf Vars

    def _node(self, value: np.ndarray, parents: tuple[Var, ...], backward) -> Var:
        out = Var(value)
        # a plain loop: a generator in all() costs more per node
        for p in parents:
            if not p.no_grad:
                out._backward = backward
                self._nodes.append(out)
                return out
        out.no_grad = True
        return out

    # ---- leaves -------------------------------------------------------

    def param(self, value: np.ndarray, grad_buffer: np.ndarray) -> Var:
        """Leaf whose gradient accumulates into an external buffer (a
        constant on a forward-only tape)."""
        if not self.grad:
            return Var(value, no_grad=True)
        v = Var(value)
        v.grad = grad_buffer
        return v

    def const(self, value) -> Var:
        return Var(_as2d(value), no_grad=True)

    # ---- arithmetic ----------------------------------------------------

    def linear(self, x: Var, w: Var, b: Var) -> Var:
        """Fused x @ w + bias-row (one node instead of a product and an add)."""
        val = x.value @ w.value + b.value

        def backward(g):
            _acc_own(x, g @ w.value.T)
            _acc_own(w, x.value.T @ g)
            _acc_own(b, g.sum(axis=0, keepdims=True))

        return self._node(val, (x, w, b), backward)

    def add(self, a: Var, b: Var) -> Var:
        val = a.value + b.value

        def backward(g):
            _acc_bcast(a, g)
            _acc_bcast(b, g)

        return self._node(val, (a, b), backward)

    def sub(self, a: Var, b: Var) -> Var:
        val = a.value - b.value

        def backward(g):
            _acc_bcast(a, g)
            _acc_own(b, _unbroadcast(-g, b.value.shape))

        return self._node(val, (a, b), backward)

    def mul(self, a: Var, b: Var) -> Var:
        val = a.value * b.value

        def backward(g):
            _acc_own(a, _unbroadcast(g * b.value, a.value.shape))
            _acc_own(b, _unbroadcast(g * a.value, b.value.shape))

        return self._node(val, (a, b), backward)

    def affine(self, a: Var, scale: float) -> Var:
        """``scale * a``; scales a loss term by a constant."""
        val = scale * a.value

        def backward(g):
            _acc_own(a, scale * g)

        return self._node(val, (a,), backward)

    # ---- elementwise nonlinearities -------------------------------------

    def abs(self, a: Var) -> Var:
        val = np.abs(a.value)

        def backward(g):
            _acc_own(a, g * np.sign(a.value))

        return self._node(val, (a,), backward)

    def relu(self, a: Var) -> Var:
        val = np.maximum(a.value, 0.0)

        def backward(g):
            _acc_own(a, g * (a.value > 0.0))

        return self._node(val, (a,), backward)

    def sigmoid(self, a: Var) -> Var:
        # exp overflows to inf below -88.7 in float32 (-709 in float64), and
        # 1 / inf = 0 is the right limit
        with np.errstate(over="ignore"):
            val = 1.0 / (1.0 + np.exp(-a.value))

        def backward(g):
            _acc_own(a, g * (val * (1.0 - val)))

        return self._node(val, (a,), backward)

    # ---- shape surgery ---------------------------------------------------

    def concat(self, parts: list[Var], axis: int = 1) -> Var:
        """Join columns (``axis=1``) or stack rows (``axis=0``)."""
        val = np.concatenate([p.value for p in parts], axis=axis)

        def backward(g):
            lo = 0
            for p in parts:
                hi = lo + p.value.shape[axis]
                _acc(p, g[lo:hi] if axis == 0 else g[:, lo:hi])
                lo = hi

        return self._node(val, tuple(parts), backward)

    def gather_rows(self, a: Var, idx: np.ndarray) -> Var:
        val = a.value[idx]

        def backward(g):
            _acc_own(a, _scatter_add(idx, g, a.value.shape[0]))

        return self._node(val, (a,), backward)

    def slice_rows(self, a: Var, lo: int, hi: int) -> Var:
        """Rows ``lo:hi`` of ``a`` as a view.

        Backward adds into those rows of ``a``'s gradient, zeroed once for
        all of ``a``'s slices, so cutting one array into T blocks costs
        O(rows) in total, not the O(T x rows) of T ``gather_rows``.
        """
        val = a.value[lo:hi]

        def backward(g):
            if a.grad is None:
                a.grad = np.zeros_like(a.value)
            a.grad[lo:hi] += g

        return self._node(val, (a,), backward)

    def segment_sum(self, a: Var, seg: np.ndarray, n_seg: int) -> Var:
        """Row-wise sums over contiguous-by-id segments (summation in row order)."""
        val = _scatter_add(seg, a.value, n_seg)

        def backward(g):
            _acc_own(a, g[seg])

        return self._node(val, (a,), backward)

    def segment_softmax(self, scores: Var, seg: np.ndarray, n_seg: int) -> Var:
        """Softmax of a (P, 1) score column within each segment.

        The per-segment max is treated as a constant shift (softmax is
        invariant to it), so the gradient stays exact.  A score of -inf masks
        its member out (weight 0); a segment whose members are all masked, or
        a NaN/+inf score, has no defined softmax and is refused.
        """
        s = scores.value[:, 0]
        smax = np.full(n_seg, -np.inf, dtype=s.dtype)
        with np.errstate(invalid="ignore"):  # NaN is refused just below
            np.maximum.at(smax, seg, s)
        shift = smax[seg]
        if not np.isfinite(shift).all():
            raise NumericsError("segment_softmax: a segment has no unmasked "
                                "member or a non-finite score")
        e = np.exp(s - shift)[:, None]
        alpha = e / _scatter_add(seg, e, n_seg)[seg]

        def backward(g):
            dot = _scatter_add(seg, g * alpha, n_seg)
            _acc_own(scores, alpha * (g - dot[seg]))

        return self._node(alpha, (scores,), backward)

    def gru(self, x: Var, h: Var, wz: Var, uz: Var, bz: Var, wr: Var, ur: Var,
            br: Var, wc: Var, uc: Var, bc: Var) -> Var:
        """Fused GRU cell (reset gate on the recurrent candidate term).

        One tape node with a hand-derived backward; equivalent to composing
        the primitive ops but far fewer node dispatches on the hot path.
        """
        xv, hv = x.value, h.value
        with np.errstate(over="ignore"):  # as in sigmoid: exp(-a) -> inf
            z = 1.0 / (1.0 + np.exp(-(xv @ wz.value + hv @ uz.value + bz.value)))
            r = 1.0 / (1.0 + np.exp(-(xv @ wr.value + hv @ ur.value + br.value)))
        rh = r * hv
        c = np.tanh(xv @ wc.value + rh @ uc.value + bc.value)
        val = (1.0 - z) * hv + z * c

        def backward(g):
            dz = g * (c - hv)
            dh = g * (1.0 - z)
            dac = (g * z) * (1.0 - c * c)
            drh = dac @ uc.value.T
            dh += drh * r
            dar = (drh * hv) * (r * (1.0 - r))
            daz = dz * (z * (1.0 - z))
            dx = dac @ wc.value.T
            dx += dar @ wr.value.T
            dx += daz @ wz.value.T
            dh += dar @ ur.value.T
            dh += daz @ uz.value.T
            _acc_own(wc, xv.T @ dac)
            _acc_own(uc, rh.T @ dac)
            _acc_own(bc, dac.sum(axis=0, keepdims=True))
            _acc_own(wr, xv.T @ dar)
            _acc_own(ur, hv.T @ dar)
            _acc_own(br, dar.sum(axis=0, keepdims=True))
            _acc_own(wz, xv.T @ daz)
            _acc_own(uz, hv.T @ daz)
            _acc_own(bz, daz.sum(axis=0, keepdims=True))
            _acc_own(x, dx)
            _acc_own(h, dh)

        return self._node(val, (x, h, wz, uz, bz, wr, ur, br, wc, uc, bc),
                         backward)

    # ---- reductions and losses -------------------------------------------

    def sum(self, a: Var) -> Var:
        val = np.array([[a.value.sum()]])

        def backward(g):
            _acc_own(a, np.full_like(a.value, g[0, 0]))

        return self._node(val, (a,), backward)

    def mean(self, a: Var) -> Var:
        n = a.value.size
        val = np.array([[a.value.sum() / n]])

        def backward(g):
            _acc_own(a, np.full_like(a.value, g[0, 0] / n))

        return self._node(val, (a,), backward)

    def smooth_l1(self, pred: Var, target: np.ndarray, weights: np.ndarray) -> Var:
        """Weighted sum of the smooth-L1 (beta 1) of every component;
        ``weights`` has the shape of ``pred``.  Target and weights are cast
        to ``pred``'s dtype.  No rows, or zero weights, give 0 and a zero
        gradient."""
        target = np.asarray(target, dtype=pred.value.dtype)
        weights = np.asarray(weights, dtype=pred.value.dtype)
        if target.shape != pred.value.shape:
            raise NumericsError(
                f"smooth_l1 shape mismatch: {pred.value.shape} vs {target.shape}")
        d = pred.value - target
        ad = np.abs(d)
        per = np.where(ad < 1.0, 0.5 * d * d, ad - 0.5)
        val = np.array([[(per * weights).sum()]])

        def backward(g):
            dd = np.where(ad < 1.0, d, np.sign(d)) * weights
            _acc_own(pred, g[0, 0] * dd)

        return self._node(val, (pred,), backward)

    def bce(self, logits: Var, labels: np.ndarray, weights: np.ndarray) -> Var:
        """Weighted sum of the binary cross entropy of ``sigmoid(logits)``;
        labels and weights hold one entry per logit, and are cast to the
        logits' dtype.  No logits, or zero weights, give 0 and a zero
        gradient.

        Computed as ``max(z, 0) - z y + log1p(exp(-|z|))``, finite for every
        finite logit, with gradient ``w (sigmoid(z) - y)``, which never
        vanishes on a wrong label however large ``|z|`` grows.
        """
        z = logits.value
        labels = np.asarray(labels, dtype=z.dtype).reshape(z.shape)
        weights = np.asarray(weights, dtype=z.dtype).reshape(z.shape)
        e = np.exp(-np.abs(z))
        per = np.maximum(z, 0.0) - z * labels + np.log1p(e)
        val = np.array([[(per * weights).sum()]])

        def backward(g):
            p = np.where(z >= 0.0, 1.0, e) / (1.0 + e)  # sigmoid(z), no overflow
            _acc_own(logits, g[0, 0] * ((p - labels) * weights))

        return self._node(val, (logits,), backward)

    # ---- driver ------------------------------------------------------------

    def backward(self, root: Var, seed: float = 1.0) -> None:
        """Seed ``root``'s gradient and run every recorded closure once,
        newest first, releasing each node as its closure finishes."""
        if not self.grad:
            raise NumericsError("backward on a forward-only tape")
        if self._walked:
            raise NumericsError("backward already ran on this tape")
        self._walked = True
        root.grad = np.full_like(root.value, seed)
        nodes = self._nodes
        for i in range(len(nodes) - 1, -1, -1):
            node, nodes[i] = nodes[i], None
            if node.grad is not None:
                node._backward(node.grad)
            node._backward = None
