"""Motion-aware affinity between detections of adjacent frames.

Candidate pairs are distance-gated (inclusive boundary, compared on squared
distances so no square root can break the geometry), scored by a small MLP
over [long-term ; short-term] features, and ranked per current detection.
The system never commits to a hard assignment; scores feed both the matching
loss and the soft state aggregation downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detections import Detection, FrameArrays, embed_frame, movement_batch
from .errors import ConfigError
from .model import ModelParams
from .numerics import Tape, Var, mlp_forward

__all__ = ["AffinityFeature", "CandidateLink", "CandidateSet",
           "TransitionFeatures", "short_term_feature", "long_term_feature",
           "gate_candidates", "gate_positions", "pair_features",
           "score_links", "top_k_select", "select_top_k"]


@dataclass
class AffinityFeature:
    a_det: np.ndarray  # componentwise |difference| of unary embeddings
    a_mot: np.ndarray  # long-term motion coherence feature
    a: np.ndarray      # [a_mot ; a_det]


@dataclass
class CandidateLink:
    prev_index: int
    curr_index: int
    feature: AffinityFeature
    score: float
    distance: float


@dataclass
class CandidateSet:
    curr_index: int
    links: list[CandidateLink]  # sorted by score desc, distance, prev_index


@dataclass
class TransitionFeatures:
    """Differentiable per-pair features of one frame transition."""

    pairs: np.ndarray      # (P, 2) int: [prev_index, curr_index]
    distances: np.ndarray  # (P,)
    x: Var                 # (P, x_dim) pair input [x_det_curr ; x_mov]
    a_det: Var             # (P, det_dim)
    a_mot: Var             # (P, hidden_dim)
    a: Var                 # (P, aff_dim)
    scores: Var            # (P, 1), sigmoid output


def short_term_feature(tape: Tape, x_det_n, x_det_m) -> Var:
    """Componentwise absolute difference of two unary embeddings."""
    n, m = tape.lift(x_det_n), tape.lift(x_det_m)
    return tape.abs(tape.sub(n, m))


def long_term_feature(tape: Tape, params: ModelParams, x_mov, h_mot_prev) -> Var:
    """Coherence of the proposed movement with the track's motion history."""
    return mlp_forward(tape, params.mlp_mot,
                       tape.concat([tape.lift(x_mov), tape.lift(h_mot_prev)]))


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


def gate_candidates(frame_prev: list[Detection], frame_curr: list[Detection],
                    theta_d: float) -> tuple[np.ndarray, np.ndarray]:
    prev = FrameArrays.from_detections(frame_prev)
    curr = FrameArrays.from_detections(frame_curr)
    return gate_positions(prev.pos, curr.pos, theta_d)


def pair_features(tape: Tape, params: ModelParams, prev: FrameArrays,
                  curr: FrameArrays, x_det_prev: Var, x_det_curr: Var,
                  h_mot_prev: Var, pairs: np.ndarray,
                  distances: np.ndarray) -> TransitionFeatures:
    """Features and affinity scores for already-gated pairs."""
    pi, ci = pairs[:, 0], pairs[:, 1]
    offsets = curr.pos[ci] - prev.pos[pi]
    x_mov = movement_batch(tape, params, offsets)
    det_curr = tape.gather_rows(x_det_curr, ci)
    x = tape.concat([det_curr, x_mov])
    a_det = tape.abs(tape.sub(det_curr, tape.gather_rows(x_det_prev, pi)))
    a_mot = mlp_forward(tape, params.mlp_mot,
                        tape.concat([x_mov, tape.gather_rows(h_mot_prev, pi)]))
    a = tape.concat([a_mot, a_det])
    scores = tape.sigmoid(mlp_forward(tape, params.mlp_aff, a))
    return TransitionFeatures(pairs=pairs, distances=distances, x=x,
                              a_det=a_det, a_mot=a_mot, a=a, scores=scores)


def score_links(tape: Tape, params: ModelParams, frame_prev: list[Detection],
                frame_curr: list[Detection], h_mot_prev: np.ndarray,
                theta_d: float | None = None) -> list[CandidateLink]:
    """Gate and score two frames; h_mot_prev is (M, hidden) for frame t-1."""
    theta = params.config.theta_d if theta_d is None else theta_d
    prev = FrameArrays.from_detections(frame_prev)
    curr = FrameArrays.from_detections(frame_curr)
    pairs, dists = gate_positions(prev.pos, curr.pos, theta)
    if len(pairs) == 0:
        return []
    x_det_prev = embed_frame(tape, params, prev)
    x_det_curr = embed_frame(tape, params, curr)
    feats = pair_features(tape, params, prev, curr, x_det_prev, x_det_curr,
                          tape.lift(h_mot_prev), pairs, dists)
    links = []
    for k, (pi, ci) in enumerate(pairs):
        feature = AffinityFeature(a_det=feats.a_det.value[k].copy(),
                                  a_mot=feats.a_mot.value[k].copy(),
                                  a=feats.a.value[k].copy())
        links.append(CandidateLink(prev_index=int(pi), curr_index=int(ci),
                                   feature=feature,
                                   score=float(feats.scores.value[k, 0]),
                                   distance=float(dists[k])))
    return links


def _ranking_order(pairs, distances, score_values):
    # by current detection, then score desc, distance asc, prev index asc
    return np.lexsort((pairs[:, 0], distances, -score_values, pairs[:, 1]))


def select_top_k(pairs: np.ndarray, distances: np.ndarray,
                 score_values: np.ndarray, k: int):
    """Array form of top-K: indices of kept pairs plus their segment layout.

    Returns (sel, seg, seg_curr): ``sel`` indexes into the pair arrays ordered
    by (curr detection, rank), ``seg[i]`` is the compact segment id of
    ``sel[i]``, and ``seg_curr[s]`` is the current-detection index of segment
    ``s``.
    """
    if k < 1:
        raise ConfigError("top-K requires K >= 1")
    order = _ranking_order(pairs, distances, score_values)
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


def top_k_select(links: list[CandidateLink], k: int) -> list[CandidateSet]:
    """Group links by current detection and keep the K best per group."""
    if not links:
        return []
    pairs = np.array([[l.prev_index, l.curr_index] for l in links])
    dists = np.array([l.distance for l in links])
    scores = np.array([l.score for l in links])
    sel, seg, seg_curr = select_top_k(pairs, dists, scores, k)
    sets: list[CandidateSet] = [CandidateSet(int(c), []) for c in seg_curr]
    for idx, s in zip(sel, seg):
        sets[s].links.append(links[int(idx)])
    return sets
