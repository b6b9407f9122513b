"""Detections and their learned representation.

A detection's unary embedding deliberately excludes position: each remaining
field goes through its own small embedding layer, the results are fused into
x_det.  Position information only ever enters through frame-to-frame movement
offsets, so the whole representation is invariant to translating the scene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import ModelParams
from .numerics import Tape, Var, mlp_forward

__all__ = ["Detection", "FrameArrays", "embed_frame", "stack_windows"]


@dataclass
class Detection:
    """One detector output at one frame (z axis ignored throughout)."""

    pos: tuple[float, float]
    velo: tuple[float, float]
    size: tuple[float, float, float]
    heading: float
    score: float


@dataclass
class FrameArrays:
    """Column view of one frame's detections for batched math.

    ``window`` holds, per row, the index of the observation window the row
    belongs to when several windows are stacked into one pack (see
    :func:`stack_windows`); a lone window's rows are all window 0.
    """

    pos: np.ndarray      # (N, 2)
    velo: np.ndarray     # (N, 2)
    size: np.ndarray     # (N, 3)
    heading: np.ndarray  # (N,)
    score: np.ndarray    # (N,)
    window: np.ndarray | None = None  # (N,) int

    def __post_init__(self):
        if self.window is None:
            self.window = np.zeros(self.pos.shape[0], dtype=np.intp)

    @classmethod
    def from_detections(cls, dets: list[Detection]) -> "FrameArrays":
        n = len(dets)
        out = cls(pos=np.zeros((n, 2)), velo=np.zeros((n, 2)),
                  size=np.zeros((n, 3)), heading=np.zeros(n), score=np.zeros(n))
        for i, d in enumerate(dets):
            out.pos[i] = d.pos
            out.velo[i] = d.velo
            out.size[i] = d.size
            out.heading[i] = d.heading
            out.score[i] = d.score
        return out

    def __len__(self) -> int:
        return self.pos.shape[0]


def stack_windows(windows: list[list[FrameArrays]]) -> list[FrameArrays]:
    """Stack equally long windows row-wise at every time step.

    Window ``b``'s rows follow those of windows ``0..b-1`` and carry window
    index ``b``, so per-window rows stay contiguous and in their own order.
    """
    steps = len(windows[0])
    if any(len(w) != steps for w in windows):
        raise ConfigError("stack_windows: windows differ in length")
    out = []
    for t in range(steps):
        frames = [w[t] for w in windows]
        out.append(FrameArrays(
            pos=np.concatenate([f.pos for f in frames]),
            velo=np.concatenate([f.velo for f in frames]),
            size=np.concatenate([f.size for f in frames]),
            heading=np.concatenate([f.heading for f in frames]),
            score=np.concatenate([f.score for f in frames]),
            window=np.repeat(np.arange(len(frames)), [len(f) for f in frames])))
    return out


def embed_frame(tape: Tape, params: ModelParams, frame: FrameArrays) -> Var:
    """Unary embeddings for a whole frame, (N, det_dim)."""
    head = np.stack([np.cos(frame.heading), np.sin(frame.heading)], axis=1)
    parts = [
        mlp_forward(tape, params.mlp_velo, frame.velo),
        mlp_forward(tape, params.mlp_size, frame.size),
        mlp_forward(tape, params.mlp_head, head),
        mlp_forward(tape, params.mlp_score, frame.score[:, None]),
    ]
    return mlp_forward(tape, params.mlp_fus, tape.concat(parts))

