"""Uncertainty-aware motion encoding over raw detection frames.

Per frame transition: gate pairs, score affinities, keep the top-K candidate
predecessors of each current detection, update per-candidate states (the
affinity chain GRU feeding the motion GRU when ASU is on), then fuse the
candidates' states with attention, a softmax of the affinity logits, and
learned sigmoid gates (MSA).  Detections with no gated predecessor are track
births with zero hidden states.

Candidate summation runs in (logit desc, distance, prev index) order so the
aggregation is reproducible and independent of input pair order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .affinity import gate_positions, pair_features, select_top_k
from .detections import FrameArrays, embed_frame
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
    x = tape.lift(x)
    prev_mot = tape.lift(prev_mot)
    if params.config.use_asu:
        if params.gru_aff is None:
            raise ConfigError("ASU enabled but gru_aff parameters are missing")
        h_aff_k = gru_step(tape, params.gru_aff, tape.lift(a), tape.lift(prev_aff))
        h_mot_k = gru_step(tape, params.gru_mot, tape.concat([x, h_aff_k]), prev_mot)
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
    """
    if len(seg) == 0:
        raise ConfigError("msa_aggregate: empty candidate list (a detection "
                          "without candidates is a birth with zero states)")
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
    ages_final: np.ndarray          # (N_T,)


def _zero_state(tape: Tape, n: int, hidden: int) -> Var:
    return tape.const(np.zeros((n, hidden)))


def encode_sequence(tape: Tape, params: ModelParams,
                    frames: list[FrameArrays]) -> SequenceEncoding:
    """Run the per-frame pipeline over an observation window, or over a pack
    of windows stacked by :func:`~uncertrack.detections.stack_windows`.

    Pairs are gated only within a window, so a pack encodes each of its
    windows as if alone.  Returns the final-frame motion states for decoding
    plus all per-transition affinity logits for the matching loss.
    """
    if len(frames) < 2:
        raise ConfigError("encode_sequence needs at least 2 frames")
    cfg = params.config
    hidden = cfg.hidden_dim

    h_mot = _zero_state(tape, len(frames[0]), hidden)
    h_aff = _zero_state(tape, len(frames[0]), hidden)
    ages = np.zeros(len(frames[0]), dtype=int)
    x_det_prev = embed_frame(tape, params, frames[0])

    transitions: list[TransitionRecord] = []
    for t in range(1, len(frames)):
        prev, curr = frames[t - 1], frames[t]
        n_curr = len(curr)
        x_det_curr = embed_frame(tape, params, curr)
        pairs, dists = gate_positions(prev.pos, curr.pos, cfg.theta_d,
                                      prev.window, curr.window)

        new_mot = _zero_state(tape, n_curr, hidden)
        new_aff = _zero_state(tape, n_curr, hidden)
        new_ages = np.zeros(n_curr, dtype=int)

        if len(pairs):
            x, a, logits = pair_features(tape, params, prev, curr, x_det_prev,
                                         x_det_curr, h_mot, pairs)
            sel, seg, seg_curr = select_top_k(pairs, dists, logits.value[:, 0],
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
            first = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
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

            new_mot = tape.scatter_rows(agg_mot, seg_curr, n_curr)
            if agg_aff is not None:
                new_aff = tape.scatter_rows(agg_aff, seg_curr, n_curr)

            # ages and the argmax-alpha predecessor, for diagnostics: alpha
            # is monotone in the logit, so a segment's first (top-ranked)
            # candidate is its argmax, the first on ties
            best = pi[first]
            new_ages[seg_curr] = ages[best] + 1
            best_prev = dict(zip(seg_curr.tolist(), best.tolist()))

            transitions.append(TransitionRecord(
                frame=t, pairs=pairs, logits=logits,
                selected=sel, seg=seg, seg_curr=seg_curr, alphas=alpha_vals,
                best_prev=best_prev))
        else:
            transitions.append(TransitionRecord(
                frame=t, pairs=pairs, logits=tape.const(np.zeros((0, 1))),
                selected=np.zeros(0, dtype=int), seg=np.zeros(0, dtype=int),
                seg_curr=np.zeros(0, dtype=int), alphas=np.zeros(0)))

        h_mot, h_aff, ages = new_mot, new_aff, new_ages
        x_det_prev = x_det_curr

    return SequenceEncoding(transitions=transitions, h_mot_final=h_mot,
                            ages_final=ages)


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
