"""Uncertainty-aware motion encoding over raw detection frames.

The stages that read only the frames run once per observation window (or
pack of windows): the unary embedding of every detection, the distance gate
of every frame transition and the movement features of every gated pair.
Then, per frame transition: score the affinities of the gated pairs from
those features and the previous motion states, keep the top-K candidate
predecessors of each current detection (one without MSA), update
per-candidate states (the affinity chain GRU feeding the motion GRU when ASU
is on), then fuse the candidates' states with attention, a softmax of the
affinity logits, and learned sigmoid gates (MSA).  A candidate's segment is
its current detection's row, so the fused states land straight in the
current frame's rows; a detection with zero candidates is a track birth with
zero hidden states, and a transition without any gated pair is the same rule
applied to every row, run on the same path with zero rows.

The pass returns one :class:`SequenceEncoding` whose pairs, logits and
predecessors are indexed by stacked rows, the rows of all frames in order.
Candidate summation runs in (logit desc, distance, prev index) order so the
aggregation is reproducible and independent of input pair order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .affinity import (gate_positions, movement_features, pair_features,
                       select_top_k)
from .detections import FrameArrays, concat_frames, embed_frame
from .errors import ConfigError
from .model import ModelParams
from .numerics import Tape, Var, gru_step, mlp_forward

__all__ = ["SequenceEncoding", "asu_update", "msa_aggregate",
           "encode_sequence", "implicit_chains"]


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
        x = tape.concat([x, h_aff_k])
        h_mot_k = gru_step(tape, params.gru_mot, x, prev_mot)
        return h_mot_k, h_aff_k
    h_mot_k = gru_step(tape, params.gru_mot, x, prev_mot)
    return h_mot_k, None


def msa_aggregate(tape: Tape, params: ModelParams, seg: np.ndarray, n_seg: int,
                  h_mot_k: Var, prev_mot: Var, x: Var, logits: Var,
                  h_aff_k: Var | None = None, prev_aff: Var | None = None,
                  a: Var | None = None) -> tuple[Var, Var | None, Var]:
    """Fuse candidate states per segment (one segment = one current
    detection, ``seg`` its row, ``n_seg`` the frame's rows).

    Attention weights are a softmax of the affinity logits within each
    segment and are shared between the motion and affinity aggregations;
    per-candidate sigmoid gates select features before the weighted sum.
    A detection with zero candidates (a birth) is a zero row of the output,
    so zero candidates give (n_seg, H) zero states.
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
class SequenceEncoding:
    """One encode pass, indexed by stacked rows: the rows of
    :func:`~uncertrack.detections.concat_frames` of the pass's frames."""

    pairs: np.ndarray               # (P, 2) gated [prev, curr], (curr, prev) order
    pair_block: np.ndarray          # (P,) gate block: transition * n_windows + window
    logits: Var                     # (P, 1) affinity logits of the pairs
    selected: np.ndarray            # indices into pairs, (curr, rank) order
    alphas: np.ndarray              # (S,) aggregation weight of each selected pair
    best_prev: np.ndarray           # (R,) argmax-alpha predecessor row, -1 if none
    offsets: np.ndarray             # (T + 1,) first row of each frame, then R
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
    runs only the stages that read the recurrent state, in frame-local rows.
    Pairs are gated only within a window, so a pack encodes each of its
    windows as if alone.  Returns the final-frame motion states for decoding
    plus the pass's pairs, affinity logits and diagnostics in stacked rows.
    """
    if len(frames) < 2:
        raise ConfigError("encode_sequence needs at least 2 frames")
    cfg = params.config
    # without MSA only the top-ranked candidate's state is kept
    k = cfg.k_candidates if cfg.use_msa else 1

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
    pairs, dists = gate_positions(prev_pos, curr_pos, cfg.theta_d,
                                  block[:prev_end], block[curr_start:] - n_win)
    x_mov_all = movement_features(tape, params, prev_pos, curr_pos, pairs)
    pairs[:, 1] += curr_start  # stacked rows on both sides
    # pairs come in (curr, prev) order, so transition t's are one run
    cut = np.searchsorted(pairs[:, 1], off[1:]).tolist()

    x_det_prev = tape.slice_rows(x_det_all, 0, off[1])
    h_mot = _zero_state(tape, sizes[0], cfg.hidden_dim, x_det_prev)
    h_aff = (_zero_state(tape, sizes[0], cfg.hidden_dim, x_det_prev)
             if cfg.use_asu else None)

    logits_all, selected, tops, alphas = [], [], [], []
    for t in range(1, len(frames)):
        n_curr = sizes[t]
        lo, hi = cut[t - 1], cut[t]
        local = pairs[lo:hi] - [off[t - 1], off[t]]
        x_det_curr = tape.slice_rows(x_det_all, off[t], off[t + 1])
        x, a, logits = pair_features(tape, params, x_det_prev, x_det_curr,
                                     tape.slice_rows(x_mov_all, lo, hi),
                                     h_mot, local)
        sel, top = select_top_k(local, dists[lo:hi], logits.value[:, 0], k)
        # a candidate's segment is its current detection's row
        pi, row = local[sel, 0], local[sel, 1]
        x_sel = tape.gather_rows(x, sel)
        prev_mot = tape.gather_rows(h_mot, pi)
        a_sel = prev_aff = None
        if cfg.use_asu:
            a_sel = tape.gather_rows(a, sel)
            prev_aff = tape.gather_rows(h_aff, pi)

        h_mot_k, h_aff_k = asu_update(tape, params, x_sel, a_sel,
                                      prev_mot, prev_aff)
        # a detection no candidate reaches is a birth: its rows stay zero
        if cfg.use_msa:
            h_mot, h_aff, alpha = msa_aggregate(
                tape, params, row, n_curr, h_mot_k, prev_mot, x_sel,
                tape.gather_rows(logits, sel), h_aff_k=h_aff_k,
                prev_aff=prev_aff, a=a_sel)
            alphas.append(alpha.value[:, 0])
        else:
            # single-candidate mode: the one kept state is used directly
            h_mot = tape.segment_sum(h_mot_k, row, n_curr)
            if h_aff_k is not None:
                h_aff = tape.segment_sum(h_aff_k, row, n_curr)
            alphas.append(np.ones(len(sel)))
        x_det_prev = x_det_curr
        logits_all.append(logits)
        selected.append(sel + lo)
        tops.append(top)

    selected = np.concatenate(selected)
    # the argmax-alpha predecessor, for diagnostics: alpha is monotone in
    # the logit, so a detection's top-ranked candidate is its argmax, the
    # first on ties
    best = pairs[selected[np.concatenate(tops)]]
    best_prev = np.full(off[-1], -1, dtype=pairs.dtype)
    best_prev[best[:, 1]] = best[:, 0]
    return SequenceEncoding(
        pairs=pairs, pair_block=block[pairs[:, 0]],
        logits=tape.concat(logits_all, axis=0), selected=selected,
        alphas=np.concatenate(alphas), best_prev=best_prev,
        offsets=np.array(off), h_mot_final=h_mot)


def implicit_chains(encoding: SequenceEncoding) -> np.ndarray:
    """Walk each final detection's argmax-alpha predecessors back in time.

    Row n starts at detection n of the final frame; column j holds the
    frame-local row of its chain in frame ``T - 1 - j``, and -1 once the
    chain has broken at a birth.  One gather over ``best_prev`` per frame.
    """
    off = encoding.offsets
    # a trailing -1 maps a broken chain's -1 to -1
    step = np.append(encoding.best_prev, -1)
    chains = np.empty((off[-1] - off[-2], len(off) - 1), dtype=step.dtype)
    chains[:, 0] = np.arange(off[-2], off[-1])
    for j in range(1, chains.shape[1]):
        chains[:, j] = step[chains[:, j - 1]]
    return np.where(chains >= 0, chains - off[-2::-1], -1)
