"""Detections and their learned representation.

A frame's detections are held as columns, one row per detection
(:class:`FrameArrays`).  A world stores each of its frames this way, built
once where the detections enter the program, with read-only columns: the
windows cut from the world share them.  :class:`Detection` is the view of
one row, for code that reads detections one at a time by iterating a frame.

A detection's unary embedding deliberately excludes position: each remaining
field goes through its own small embedding layer, the results are fused into
x_det.  Position information only ever enters through frame-to-frame movement
offsets, so the whole representation is invariant to translating the scene.
Embedding works row by row: the encoder joins every frame of a run with
:func:`concat_frames` and embeds them in one call.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .numerics import Tape, Var, mlp_forward

__all__ = ["Detection", "FrameArrays", "concat_frames", "embed_frame"]


@dataclass
class Detection:
    """One detector output at one frame (z axis ignored throughout): the
    row view of a :class:`FrameArrays`."""

    pos: tuple[float, float]
    velo: tuple[float, float]
    size: tuple[float, float, float]
    heading: float
    score: float


@dataclass
class FrameArrays:
    """One frame's detections as float64 columns, row ``i`` being detection
    ``i``; iterating a frame yields its rows as :class:`Detection`."""

    pos: np.ndarray      # (N, 2)
    velo: np.ndarray     # (N, 2)
    size: np.ndarray     # (N, 3)
    heading: np.ndarray  # (N,)
    score: np.ndarray    # (N,)

    @classmethod
    def from_detections(cls, dets: list[Detection]) -> "FrameArrays":
        """Columns of a list of rows; ``from_detections(list(frame))`` is
        ``frame`` bit for bit."""
        n = len(dets)
        # the reshape keeps an empty frame's (0, 2) and (0, 3) columns
        return cls(
            pos=np.array([d.pos for d in dets], dtype=float).reshape(n, 2),
            velo=np.array([d.velo for d in dets], dtype=float).reshape(n, 2),
            size=np.array([d.size for d in dets], dtype=float).reshape(n, 3),
            heading=np.array([d.heading for d in dets], dtype=float),
            score=np.array([d.score for d in dets], dtype=float))

    def __len__(self) -> int:
        return self.pos.shape[0]

    def __iter__(self) -> Iterator[Detection]:
        """Each row as a :class:`Detection` whose fields are Python floats."""
        return map(Detection, map(tuple, self.pos.tolist()),
                   map(tuple, self.velo.tolist()), map(tuple, self.size.tolist()),
                   self.heading.tolist(), self.score.tolist())


def concat_frames(frames: list[FrameArrays]) -> FrameArrays:
    """All rows of ``frames`` in order, as one frame."""
    return FrameArrays(
        pos=np.concatenate([f.pos for f in frames]),
        velo=np.concatenate([f.velo for f in frames]),
        size=np.concatenate([f.size for f in frames]),
        heading=np.concatenate([f.heading for f in frames]),
        score=np.concatenate([f.score for f in frames]))


def embed_frame(tape: Tape, params: ModelParams, frame: FrameArrays) -> Var:
    """Unary embeddings for a whole frame, (N, det_dim): row by row, so the
    frames of a run joined by :func:`concat_frames` embed in one call."""
    head = np.stack([np.cos(frame.heading), np.sin(frame.heading)], axis=1)
    parts = [
        mlp_forward(tape, params.mlp_velo, frame.velo),
        mlp_forward(tape, params.mlp_size, frame.size),
        mlp_forward(tape, params.mlp_head, head),
        mlp_forward(tape, params.mlp_score, frame.score[:, None]),
    ]
    return mlp_forward(tape, params.mlp_fus, tape.concat(parts))

