"""Parameter storage, Adam updates, and the finite-difference gradient check."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tape import NumericsError

__all__ = ["ParamBlock", "make_block", "adam_step", "grad_check",
           "GradCheckReport", "GradCheckEntry"]


@dataclass
class ParamBlock:
    """Named group of 2-D weight tensors with grad/moment buffers of matching
    shape and dtype."""

    name: str
    weights: list[np.ndarray]
    grads: list[np.ndarray] = field(default_factory=list)
    adam_m: list[np.ndarray] = field(default_factory=list)
    adam_v: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if not self.grads:
            self.grads = [np.zeros_like(w) for w in self.weights]
        if not self.adam_m:
            self.adam_m = [np.zeros_like(w) for w in self.weights]
        if not self.adam_v:
            self.adam_v = [np.zeros_like(w) for w in self.weights]
        for w, g, m, v in zip(self.weights, self.grads, self.adam_m, self.adam_v):
            if not (w.shape == g.shape == m.shape == v.shape):
                raise NumericsError(f"block {self.name}: buffer shapes disagree")
            # a float64 grad would round silently into float32 weights
            if not (w.dtype == g.dtype == m.dtype == v.dtype):
                raise NumericsError(f"block {self.name}: buffer dtypes disagree "
                                    f"({w.dtype}, {g.dtype}, {m.dtype}, "
                                    f"{v.dtype})")

    def zero_grads(self) -> None:
        for g in self.grads:
            g[...] = 0.0


# The model's precision.  Every tape op computes in its weights' dtype, and a
# dense training pass is bound by ~145-row GEMMs: (145x256)@(256x64) runs at
# 54 GFLOPS in float64 and 116 in float32 on one Xeon core (OpenBLAS, one
# thread).  Float32 made the benchmark's dense train() 1.64x faster (medians
# of 10 runs, 7.63 -> 12.5 windows/s) with fde equal to 7 significant digits.
# Gradient checks copy a model to float64, where finite differences resolve.
PARAM_DTYPE = np.float32


def make_block(name: str, shapes: list[tuple[int, int]],
               rng: np.random.Generator, biases=()) -> ParamBlock:
    """``PARAM_DTYPE`` tensors: zero at the indices in ``biases``; every
    other tensor uniform in +-sqrt(1/fan_in), its fan-in being its row count,
    drawn in float64 and rounded.

    Biases are named rather than told by shape: a weight with one input row,
    such as the score embedding's (1, n), has a bias's shape.
    """
    weights = []
    for i, shape in enumerate(shapes):
        if i in biases:
            weights.append(np.zeros(shape, dtype=PARAM_DTYPE))
        else:
            bound = np.sqrt(1.0 / shape[0])
            weights.append(rng.uniform(-bound, bound, size=shape)
                           .astype(PARAM_DTYPE))
    return ParamBlock(name=name, weights=weights)


# Adam's moment decay rates and denominator guard
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


def adam_step(blocks: list[ParamBlock], lr: float, step: int) -> None:
    """Bias-corrected Adam update in place, ``step`` counting from 1; grads
    are zeroed afterwards."""
    if step < 1:
        raise NumericsError("adam_step: step must be >= 1")
    c1 = 1.0 - _BETA1 ** step
    c2 = 1.0 - _BETA2 ** step
    for block in blocks:
        for i, (w, g, m, v) in enumerate(
                zip(block.weights, block.grads, block.adam_m, block.adam_v)):
            if not np.all(np.isfinite(g)):
                raise NumericsError(
                    f"non-finite gradient in block '{block.name}' tensor {i}")
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            w -= lr * (m / c1) / (np.sqrt(v / c2) + _EPS)
        block.zero_grads()


@dataclass
class GradCheckEntry:
    block: str
    tensor: int
    index: int
    analytic: float
    numeric: float
    error: float


@dataclass
class GradCheckReport:
    max_error: float
    worst: GradCheckEntry | None
    entries: list[GradCheckEntry]

    def passed(self, tol: float = 1e-4) -> bool:
        return self.max_error < tol

    def summary(self) -> str:
        lines = [f"sampled {len(self.entries)} parameters, "
                 f"max relative error {self.max_error:.3e}"]
        if self.worst is not None:
            w = self.worst
            lines.append(f"worst: {w.block}[{w.tensor}] flat index {w.index}: "
                         f"analytic {w.analytic:.6e} vs numeric {w.numeric:.6e}")
        return "\n".join(lines)


def _rel_error(a: float, n: float) -> float:
    scale = max(abs(a), abs(n))
    if scale < 1e-6:  # absolute fallback for near-zero gradients
        return abs(a - n)
    return abs(a - n) / scale


def grad_check(loss_fn, blocks: list[ParamBlock], samples: int = 200,
               eps: float = 1e-5, rng: np.random.Generator | None = None) -> GradCheckReport:
    """Central finite differences against the analytic gradient.

    ``loss_fn`` must be a deterministic zero-argument callable returning the
    scalar loss and accumulating gradients into ``blocks``.  Samples are
    spread round-robin across blocks so every block is exercised.  Every
    block must hold float64 weights: at ``eps`` = 1e-5 a float32 finite
    difference is rounding noise.
    """
    if samples < 1:
        raise NumericsError("grad_check: samples must be >= 1")
    for b in blocks:
        for w in b.weights:
            if w.dtype != np.float64:
                raise NumericsError(f"grad_check: block '{b.name}' holds "
                                    f"{w.dtype} weights, not float64")
    if rng is None:
        rng = np.random.default_rng(0)

    for b in blocks:
        b.zero_grads()
    loss_fn()
    analytic = {b.name: [g.copy() for g in b.grads] for b in blocks}

    coords = []
    for k in range(samples):
        block = blocks[k % len(blocks)]
        t = int(rng.integers(len(block.weights)))
        j = int(rng.integers(block.weights[t].size))
        coords.append((block, t, j))

    entries = []
    for block, t, j in coords:
        w = block.weights[t]
        flat = w.reshape(-1)
        old = flat[j]
        flat[j] = old + eps
        lp = loss_fn()
        flat[j] = old - eps
        lm = loss_fn()
        flat[j] = old
        numeric = (lp - lm) / (2.0 * eps)
        a = float(analytic[block.name][t].reshape(-1)[j])
        entries.append(GradCheckEntry(block.name, t, j, a, numeric,
                                      _rel_error(a, numeric)))
    for b in blocks:
        b.zero_grads()

    worst = max(entries, key=lambda e: e.error)
    return GradCheckReport(max_error=worst.error, worst=worst, entries=entries)
