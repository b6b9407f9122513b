"""Uncertainty-aware motion encoding over raw detection frames.

The stages that read only the frames run once per observation window (or
pack of windows): the unary embedding of every detection, the distance gate
of every frame transition and the movement features of every gated pair.
Then, per frame transition: score the affinities of the gated pairs from
those features and the previous motion states, keep the top-K candidate
predecessors of each current detection, update per-candidate states (the
affinity chain GRU feeding the motion GRU when ASU is on), then fuse the
candidates' states with attention, a softmax of the affinity logits, and
learned sigmoid gates (MSA).  A detection with zero candidates is a track
birth with zero hidden states; a transition without any gated pair is the
same rule applied to every row, and runs the same path on zero rows.

Candidate summation runs in (logit desc, distance, prev index) order so the
aggregation is reproducible and independent of input pair order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .affinity import (gate_positions, movement_features, pair_features,
                       select_top_k)
from .detections import FrameArrays, concat_frames, embed_frame
from .errors import ConfigError
from .model import ModelParams
from .numerics import Tape, Var, gru_step, mlp_forward

__all__ = ["TransitionRecord", "SequenceEncoding", "asu_update",
           "msa_aggregate", "encode_sequence", "implicit_chains"]


def asu_update(tape: Tape, params: ModelParams, x, a, prev_mot,
               prev_aff) -> tuple[Var, Var | None]:
    """Per-candidate state update.

    The affinity chain updates first; with ASU enabled its fresh state joins
    the motion GRU's input, injecting matching uncertainty into the motion
    encoding.  Inputs are row-batched over candidates.
    """
    if params.config.use_asu:
        if params.gru_aff is None:
            raise ConfigError("ASU enabled but gru_aff parameters are missing")
        h_aff_k = gru_step(tape, params.gru_aff, a, prev_aff)
        x = tape.concat([tape.lift(x), h_aff_k])
        h_mot_k = gru_step(tape, params.gru_mot, x, prev_mot)
        return h_mot_k, h_aff_k
    h_mot_k = gru_step(tape, params.gru_mot, x, prev_mot)
    return h_mot_k, None


def msa_aggregate(tape: Tape, params: ModelParams, seg: np.ndarray, n_seg: int,
                  h_mot_k: Var, prev_mot: Var, x: Var, logits: Var,
                  h_aff_k: Var | None = None, prev_aff: Var | None = None,
                  a: Var | None = None) -> tuple[Var, Var | None, Var]:
    """Fuse candidate states per segment (one segment = one current detection).

    Attention weights are a softmax of the affinity logits within each
    segment and are shared between the motion and affinity aggregations;
    per-candidate sigmoid gates select features before the weighted sum.
    A detection with zero candidates has no segment (it is a birth), so zero
    candidates give zero segments and (0, H) states.
    """
    if params.gate_mot is None:
        raise ConfigError("MSA enabled but gate parameters are missing")
    alpha = tape.segment_softmax(logits, seg, n_seg)
    g_mot = tape.sigmoid(mlp_forward(tape, params.gate_mot,
                                     tape.concat([h_mot_k, prev_mot, x])))
    h_mot = tape.segment_sum(tape.mul(alpha, tape.mul(g_mot, h_mot_k)), seg, n_seg)
    h_aff = None
    if h_aff_k is not None:
        g_aff = tape.sigmoid(mlp_forward(tape, params.gate_aff,
                                         tape.concat([h_aff_k, prev_aff, a])))
        h_aff = tape.segment_sum(tape.mul(alpha, tape.mul(g_aff, h_aff_k)), seg, n_seg)
    return h_mot, h_aff, alpha


@dataclass
class TransitionRecord:
    """Everything retained from one frame transition."""

    frame: int                      # index of the current frame
    pairs: np.ndarray               # (P, 2) gated [prev, curr]
    logits: Var                     # (P, 1) affinity logits of the pairs
    selected: np.ndarray            # indices into pairs, (curr, rank) order
    seg: np.ndarray                 # segment id per selected pair
    seg_curr: np.ndarray            # current-detection index per segment
    alphas: np.ndarray              # (S,) aggregation weights (values)
    best_prev: dict[int, int] = field(default_factory=dict)  # curr -> argmax-alpha prev


@dataclass
class SequenceEncoding:
    transitions: list[TransitionRecord]
    h_mot_final: Var                # (N_T, hidden)


def _zero_state(tape: Tape, n: int, hidden: int, like: Var) -> Var:
    # zero hidden states in the dtype of the embeddings they meet
    return tape.const(np.zeros((n, hidden), dtype=like.value.dtype))


def encode_sequence(tape: Tape, params: ModelParams,
                    frames: list[FrameArrays]) -> SequenceEncoding:
    """Run the encoder over an observation window, or over a pack of windows
    stacked by :func:`~uncertrack.detections.stack_windows`.

    The frame-local stages run once per call: one embedding of every row of
    every frame, one gate over every transition (compound block id
    ``transition * n_windows + window``, so each window of each transition
    is gated alone) and one movement MLP over every gated pair.  Each
    transition then cuts its rows from those results with ``slice_rows`` and
    runs only the stages that read the recurrent state.  Pairs are gated only
    within a window, so a pack encodes each of its windows as if alone.
    Returns the final-frame motion states for decoding plus all
    per-transition affinity logits for the matching loss.
    """
    if len(frames) < 2:
        raise ConfigError("encode_sequence needs at least 2 frames")
    cfg = params.config

    # row offsets of each frame in the stack of all frames
    sizes = [len(f) for f in frames]
    off = [0, *accumulate(sizes)]
    stacked = concat_frames(frames)
    x_det_all = embed_frame(tape, params, stacked)
    # the gate's previous side is frames 0..T-2, its current side 1..T-1
    n_win = int(stacked.window.max(initial=0)) + 1
    block = np.repeat(np.arange(len(frames)), sizes) * n_win + stacked.window
    prev_end, curr_start = off[-2], off[1]
    prev_pos, curr_pos = stacked.pos[:prev_end], stacked.pos[curr_start:]
    pairs_all, dists_all = gate_positions(prev_pos, curr_pos, cfg.theta_d,
                                          block[:prev_end],
                                          block[curr_start:] - n_win)
    x_mov_all = movement_features(tape, params, prev_pos, curr_pos, pairs_all)
    # pairs come in (curr, prev) order, so transition t's are one run
    cut = np.searchsorted(pairs_all[:, 1],
                          np.array(off[1:]) - curr_start).tolist()

    x_det_prev = tape.slice_rows(x_det_all, 0, off[1])
    h_mot = _zero_state(tape, sizes[0], cfg.hidden_dim, x_det_prev)
    h_aff = _zero_state(tape, sizes[0], cfg.hidden_dim, x_det_prev)

    transitions: list[TransitionRecord] = []
    for t in range(1, len(frames)):
        n_curr = sizes[t]
        lo, hi = cut[t - 1], cut[t]
        pairs = pairs_all[lo:hi] - [off[t - 1], off[t] - curr_start]
        x_det_curr = tape.slice_rows(x_det_all, off[t], off[t + 1])
        x, a, logits = pair_features(tape, params, x_det_prev, x_det_curr,
                                     tape.slice_rows(x_mov_all, lo, hi),
                                     h_mot, pairs)
        sel, seg, seg_curr = select_top_k(pairs, dists_all[lo:hi],
                                          logits.value[:, 0],
                                          cfg.k_candidates)
        n_seg = len(seg_curr)
        pi = pairs[sel, 0]
        x_sel = tape.gather_rows(x, sel)
        a_sel = tape.gather_rows(a, sel)
        z_sel = tape.gather_rows(logits, sel)
        prev_mot = tape.gather_rows(h_mot, pi)
        prev_aff = tape.gather_rows(h_aff, pi)

        h_mot_k, h_aff_k = asu_update(tape, params, x_sel, a_sel,
                                      prev_mot, prev_aff)
        # each segment's first (top-ranked) entry
        new_seg = np.empty(len(seg), dtype=bool)
        new_seg[:1] = True
        new_seg[1:] = seg[1:] != seg[:-1]
        first = np.flatnonzero(new_seg)
        if cfg.use_msa:
            agg_mot, agg_aff, alpha = msa_aggregate(
                tape, params, seg, n_seg, h_mot_k, prev_mot, x_sel, z_sel,
                h_aff_k=h_aff_k, prev_aff=prev_aff if cfg.use_asu else None,
                a=a_sel if cfg.use_asu else None)
            alpha_vals = alpha.value[:, 0].copy()
        else:
            # single-candidate mode: the top-ranked state is used directly
            agg_mot = tape.gather_rows(h_mot_k, first)
            agg_aff = (tape.gather_rows(h_aff_k, first)
                       if h_aff_k is not None else None)
            alpha_vals = np.zeros(len(sel))
            alpha_vals[first] = 1.0

        # a detection no segment reaches is a birth: its rows stay zero
        h_mot = tape.scatter_rows(agg_mot, seg_curr, n_curr)
        h_aff = (tape.scatter_rows(agg_aff, seg_curr, n_curr)
                 if agg_aff is not None
                 else _zero_state(tape, n_curr, cfg.hidden_dim, x_det_curr))
        x_det_prev = x_det_curr

        # the argmax-alpha predecessor, for diagnostics: alpha is monotone
        # in the logit, so a segment's first (top-ranked) candidate is its
        # argmax, the first on ties
        transitions.append(TransitionRecord(
            frame=t, pairs=pairs, logits=logits,
            selected=sel, seg=seg, seg_curr=seg_curr, alphas=alpha_vals,
            best_prev=dict(zip(seg_curr.tolist(), pi[first].tolist()))))

    return SequenceEncoding(transitions=transitions, h_mot_final=h_mot)


def implicit_chains(encoding: SequenceEncoding) -> list[list[int | None]]:
    """Walk each final detection's argmax-alpha predecessors back in time.

    Entry ``chains[n]`` starts at detection n of the final frame and lists one
    detection index per earlier frame (None once the chain breaks at a birth).
    """
    n_final = encoding.h_mot_final.value.shape[0]
    chains = []
    for n in range(n_final):
        chain: list[int | None] = [n]
        curr = n
        for rec in reversed(encoding.transitions):
            nxt = rec.best_prev.get(curr) if curr is not None else None
            chain.append(nxt)
            curr = nxt
        chains.append(chain)
    return chains
