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

from .errors import ConfigError
from .model import ModelParams
from .numerics import Tape, Var, mlp_forward

__all__ = ["gate_positions", "movement_features", "pair_features",
           "select_top_k"]


def gate_positions(prev_pos: np.ndarray, curr_pos: np.ndarray, theta_d: float,
                   prev_window: np.ndarray | None = None,
                   curr_window: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """All (prev, curr) pairs within theta_d, ordered by (curr, prev).

    Given per-row block ids for both sides, only pairs inside one block are
    kept: each block's contiguous rows are gated alone, so its pairs and
    distances are bitwise what gating that block alone gives, shifted by the
    rows of the blocks stacked before it, and the cost is linear in the
    number of blocks.  The ids must ascend.  A block is one transition of a
    run of frames, when the encoder gates every transition inside its
    windows in one call, or one window of the final step, when the SIM
    gates the final rows against themselves
    (:func:`~uncertrack.encoder.final_step`).
    """
    if theta_d <= 0:
        raise ConfigError("gating distance must be positive")
    if prev_window is None:  # one block
        ps, cs = [0, len(prev_pos)], [0, len(curr_pos)]
    else:
        if (prev_window[1:] < prev_window[:-1]).any() or (
                curr_window[1:] < curr_window[:-1]).any():
            raise ConfigError("gate_positions: window ids must ascend")
        ids = np.arange(max(prev_window[-1:].max(initial=0),
                            curr_window[-1:].max(initial=0)) + 2)
        ps, cs = np.searchsorted(prev_window, ids), np.searchsorted(curr_window, ids)
    r2 = theta_d * theta_d
    blocks = [_gate_block(prev_pos[ps[w]:ps[w + 1]], curr_pos[cs[w]:cs[w + 1]], r2)
              for w in range(len(ps) - 1)]
    prev_idx = np.concatenate([b[0] + p0 for b, p0 in zip(blocks, ps)])
    curr_idx = np.concatenate([b[1] + c0 for b, c0 in zip(blocks, cs)])
    d2 = np.concatenate([b[2] for b in blocks])
    pairs = np.empty((len(curr_idx), 2), dtype=curr_idx.dtype)
    pairs[:, 0] = prev_idx
    pairs[:, 1] = curr_idx
    return pairs, np.sqrt(d2)


def _gate_block(prev_pos: np.ndarray, curr_pos: np.ndarray, r2: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prev index, curr index, squared distance) of the pairs within
    ``sqrt(r2)``, in (curr, prev) order."""
    dx = curr_pos[:, 0, None] - prev_pos[None, :, 0]  # (N, M)
    dy = curr_pos[:, 1, None] - prev_pos[None, :, 1]
    d2 = dx * dx + dy * dy
    curr_idx, prev_idx = np.nonzero(d2 <= r2)  # row-major: (curr, prev) order
    return prev_idx, curr_idx, d2[curr_idx, prev_idx]


def movement_features(tape: Tape, params: ModelParams, prev_pos: np.ndarray,
                      curr_pos: np.ndarray, pairs: np.ndarray) -> Var:
    """The movement embedding x_mov of gated pairs: ``mlp_mov`` of each
    pair's offset ``curr_pos - prev_pos``, (P, mov_dim).

    It depends on the frames alone, so the encoder runs it once over every
    pair of a pass and cuts each transition's rows from the result.
    """
    return mlp_forward(tape, params.mlp_mov,
                       curr_pos[pairs[:, 1]] - prev_pos[pairs[:, 0]])


def pair_features(tape: Tape, params: ModelParams, x_det_prev: Var,
                  x_det_curr: Var, x_mov: Var, h_mot_prev: Var,
                  pairs: np.ndarray) -> tuple[Var, Var, Var]:
    """Features and affinity logits for already-gated (prev, curr) pairs.

    ``x_mov`` holds one row per pair (:func:`movement_features`).  Returns
    ``(x, a, logits)``: the pair input x = [x_det_curr ; x_mov], (P, x_dim);
    the affinity feature a = [a_mot ; a_det], (P, aff_dim), whose first
    ``hidden_dim`` columns are the long-term motion coherence a_mot, the
    motion MLP of [x_mov ; h_mot_prev], and the rest the componentwise
    |difference| of unary embeddings a_det; and the affinity logits, the
    affinity MLP's output, (P, 1).
    """
    pi, ci = pairs[:, 0], pairs[:, 1]
    det_curr = tape.gather_rows(x_det_curr, ci)
    x = tape.concat([det_curr, x_mov])
    a_det = tape.abs(tape.sub(det_curr, tape.gather_rows(x_det_prev, pi)))
    a_mot = mlp_forward(tape, params.mlp_mot,
                        tape.concat([x_mov, tape.gather_rows(h_mot_prev, pi)]))
    a = tape.concat([a_mot, a_det])
    return x, a, mlp_forward(tape, params.mlp_aff, a)


def select_top_k(pairs: np.ndarray, distances: np.ndarray,
                 logit_values: np.ndarray, k: int):
    """Array form of top-K: indices of the kept pairs, and which of them
    ranks first for its current detection.

    Each current detection's pairs rank by logit (descending), then distance,
    then previous-frame index.

    Returns (sel, top): ``sel`` indexes into the pair arrays ordered by
    (curr detection, rank), and ``top[i]`` marks ``sel[i]`` as its
    detection's rank-0 pair.  A current detection without pairs keeps none
    (a birth), so zero pairs give two empty arrays.
    """
    if k < 1:
        raise ConfigError("top-K requires K >= 1")
    order = np.lexsort((pairs[:, 0], distances, -logit_values, pairs[:, 1]))
    curr_sorted = pairs[order, 1]
    # rank within each current detection's group
    new_group = np.empty(len(curr_sorted), dtype=bool)
    new_group[:1] = True
    new_group[1:] = curr_sorted[1:] != curr_sorted[:-1]
    starts = np.flatnonzero(new_group)
    rank = np.arange(len(order)) - starts[np.cumsum(new_group) - 1]
    keep = rank < k
    return order[keep], new_group[keep]
