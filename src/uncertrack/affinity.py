"""Motion-aware affinity between detections of adjacent frames.

Candidate pairs are distance-gated (inclusive boundary, compared on squared
distances so no square root can break the geometry), scored by a small MLP
over [long-term ; short-term] features, and ranked per current detection.
The score is carried as its logit z (the affinity is sigmoid(z)) and never
squashed: the matching loss and the attention of the soft state aggregation
downstream both take z itself.  The system never commits to a hard
assignment.
"""

from __future__ import annotations

import numpy as np

from .detections import FrameArrays
from .errors import ConfigError
from .model import ModelParams
from .numerics import Tape, Var, mlp_forward

__all__ = ["gate_positions", "pair_features", "select_top_k"]


def gate_positions(prev_pos: np.ndarray, curr_pos: np.ndarray, theta_d: float,
                   prev_window: np.ndarray | None = None,
                   curr_window: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """All (prev, curr) pairs within theta_d, ordered by (curr, prev).

    Given per-row window indices (``FrameArrays.window``) for both frames,
    only pairs inside one window are kept; each pair and its distance are
    then bitwise what gating that window alone gives, shifted by the rows of
    the windows stacked before it.
    """
    if theta_d <= 0:
        raise ConfigError("gating distance must be positive")
    if len(prev_pos) == 0 or len(curr_pos) == 0:
        return np.zeros((0, 2), dtype=int), np.zeros(0)
    diff = curr_pos[:, None, :] - prev_pos[None, :, :]  # (N, M, 2)
    d2 = (diff * diff).sum(axis=2)
    near = d2 <= theta_d * theta_d
    if prev_window is not None:
        near &= curr_window[:, None] == prev_window[None, :]
    curr_idx, prev_idx = np.nonzero(near)
    order = np.lexsort((prev_idx, curr_idx))
    pairs = np.stack([prev_idx[order], curr_idx[order]], axis=1)
    return pairs, np.sqrt(d2[curr_idx[order], prev_idx[order]])


def pair_features(tape: Tape, params: ModelParams, prev: FrameArrays,
                  curr: FrameArrays, x_det_prev: Var, x_det_curr: Var,
                  h_mot_prev: Var, pairs: np.ndarray) -> tuple[Var, Var, Var]:
    """Features and affinity logits for already-gated (prev, curr) pairs.

    Returns ``(x, a, logits)``: the pair input x = [x_det_curr ; x_mov],
    (P, x_dim); the affinity feature a = [a_mot ; a_det], (P, aff_dim), whose
    first ``hidden_dim`` columns are the long-term motion coherence a_mot and
    the rest the componentwise |difference| of unary embeddings a_det; and
    the affinity logits, the affinity MLP's output, (P, 1).
    """
    pi, ci = pairs[:, 0], pairs[:, 1]
    x_mov = mlp_forward(tape, params.mlp_mov, curr.pos[ci] - prev.pos[pi])
    det_curr = tape.gather_rows(x_det_curr, ci)
    x = tape.concat([det_curr, x_mov])
    a_det = tape.abs(tape.sub(det_curr, tape.gather_rows(x_det_prev, pi)))
    a_mot = mlp_forward(tape, params.mlp_mot,
                        tape.concat([x_mov, tape.gather_rows(h_mot_prev, pi)]))
    a = tape.concat([a_mot, a_det])
    return x, a, mlp_forward(tape, params.mlp_aff, a)


def select_top_k(pairs: np.ndarray, distances: np.ndarray,
                 logit_values: np.ndarray, k: int):
    """Array form of top-K: indices of kept pairs plus their segment layout.

    Each current detection's pairs rank by logit (descending), then distance,
    then previous-frame index.

    Returns (sel, seg, seg_curr): ``sel`` indexes into the pair arrays ordered
    by (curr detection, rank), ``seg[i]`` is the compact segment id of
    ``sel[i]``, and ``seg_curr[s]`` is the current-detection index of segment
    ``s``.
    """
    if k < 1:
        raise ConfigError("top-K requires K >= 1")
    order = np.lexsort((pairs[:, 0], distances, -logit_values, pairs[:, 1]))
    curr_sorted = pairs[order, 1]
    # rank within each current detection's group
    starts = np.flatnonzero(np.r_[True, curr_sorted[1:] != curr_sorted[:-1]])
    group_of = np.cumsum(np.r_[True, curr_sorted[1:] != curr_sorted[:-1]]) - 1
    rank = np.arange(len(order)) - starts[group_of]
    keep = rank < k
    sel = order[keep]
    seg = group_of[keep]
    seg_curr = curr_sorted[starts]
    return sel, seg, seg_curr

