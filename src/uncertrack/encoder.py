"""Uncertainty-aware motion encoding over raw detection frames.

The encoder takes a run of frames and the starts of the windows it encodes
within the run: overlapping windows of one world in evaluation, a training
pack's windows laid end to end.  The stages that read only the frames run
once per run, whatever the windows' overlap: the unary embedding of every
detection, the distance gate of every frame transition inside a window and
the movement features of every gated pair.  Their rows are then laid out by
index, step by step, each step holding every window's copy of its frame.
Then, per step: score the affinities of the gated pairs from those features
and the previous motion states, keep the top-K candidate predecessors of
each current detection (one without MSA), update per-candidate states (the
affinity chain GRU feeding the motion GRU when ASU is on), then fuse the
candidates' states with attention, a softmax of the affinity logits, and
learned sigmoid gates (MSA).  A candidate's segment is its current
detection's row, so the fused states land straight in the current step's
rows; a detection with zero candidates is a track birth with zero hidden
states, and a transition without any gated pair is the same rule applied to
every row, run on the same path with zero rows.

The pass returns one :class:`SequenceEncoding` whose pairs, logits and
predecessors are indexed by the pass's laid-out rows, the rows of all steps
in order.  Candidate summation runs in (logit desc, distance, prev index)
order so the aggregation is reproducible and independent of input pair
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import (gate_positions, movement_features, pair_features,
                       select_top_k)
from .detections import FrameArrays, concat_frames, embed_frame
from .errors import ConfigError
from .model import ModelParams
from .numerics import Tape, Var, gru_step, mlp_forward

__all__ = ["SequenceEncoding", "asu_update", "msa_aggregate",
           "encode_sequence", "final_step", "implicit_chains"]


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
    """One encode pass, indexed by the pass's laid-out rows: the rows of
    every step in order, step ``t`` holding frame ``starts[j] + t`` of the
    run for each start ``j`` (see :func:`encode_sequence`)."""

    pairs: np.ndarray               # (P, 2) gated [prev, curr], (curr, prev) order
    pair_block: np.ndarray          # (P,) gate block: transition * n_windows + window
    logits: Var                     # (P, 1) affinity logits of the pairs
    selected: np.ndarray            # indices into pairs, (curr, rank) order
    alphas: np.ndarray              # (S,) aggregation weight of each selected pair
    best_prev: np.ndarray           # (R,) argmax-alpha predecessor row, -1 if none
    offsets: np.ndarray             # (T + 1,) first row of each step, then R
    run_rows: np.ndarray            # (R,) run row of each row, arange(R) for one start
    h_mot_final: Var                # (N_T, hidden)


def _zero_state(tape: Tape, n: int, hidden: int, like: Var) -> Var:
    # zero hidden states in the dtype of the embeddings they meet
    return tape.const(np.zeros((n, hidden), dtype=like.value.dtype))


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # the concatenation of arange(f, f + c) over (first, counts)
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(first - ends + counts, counts)


def _gate_run(pos: np.ndarray, run_off: np.ndarray, starts: np.ndarray,
              steps: int, theta_d: float) -> tuple[np.ndarray, np.ndarray]:
    """Gate every transition ``f -> f + 1`` of a run that lies inside a
    window, in one call whose block ``k`` is the ``k``-th of them; the
    transitions between windows laid end to end are left out.  Returns the
    pairs in run rows, sorted by current row, and their distances."""
    f = np.arange(len(run_off) - 2)
    # f -> f + 1 lies inside a window when it lies inside the window of the
    # last start at or before f
    f = f[f - starts[np.searchsorted(starts, f, side="right") - 1] < steps - 1]
    sizes = np.diff(run_off)
    prev = _ranges(run_off[f], sizes[f])
    curr = _ranges(run_off[f + 1], sizes[f + 1])
    block = np.arange(len(f))
    pairs, dists = gate_positions(pos[prev], pos[curr], theta_d,
                                  np.repeat(block, sizes[f]),
                                  np.repeat(block, sizes[f + 1]))
    pairs[:, 0] = prev[pairs[:, 0]]
    pairs[:, 1] = curr[pairs[:, 1]]
    return pairs, dists


def _lay_out(run_off: np.ndarray, pairs: np.ndarray, starts: np.ndarray,
             steps: int):
    """Index a run's rows and pairs into the laid-out pass.

    Returns the run row of every laid-out row, the run pair of every
    laid-out pair, those pairs in laid-out rows, every laid-out row's gate
    block ``step * n_windows + window`` and the first row of every step.
    One start is the identity layout.
    """
    n_starts = len(starts)
    frame = starts + np.arange(steps)[:, None]  # run frame of (step, window)
    counts = np.diff(run_off)[frame].ravel()
    first = np.cumsum(counts) - counts  # laid-out first row of (step, window)
    rows = _ranges(run_off[frame].ravel(), counts)
    block = np.repeat(np.arange(counts.size), counts)
    # the run's pairs into frame f are pairs[p_off[f]:p_off[f + 1]]; a
    # window's copy of them moves by its rows' shift on each side
    p_off = np.searchsorted(pairs[:, 1], run_off)
    into = frame[1:].ravel()
    n_pairs = p_off[into + 1] - p_off[into]
    src = _ranges(p_off[into], n_pairs)
    shift = np.stack([first[:-n_starts] - run_off[into - 1],
                      first[n_starts:] - run_off[into]], axis=1)
    laid = pairs[src] + np.repeat(shift, n_pairs, axis=0)
    return rows, src, laid, block, np.append(first[::n_starts], len(rows))


def final_step(frames: list[FrameArrays], starts=(0,)
               ) -> tuple[FrameArrays, np.ndarray]:
    """The rows :func:`encode_sequence` forecasts, as one frame: the last
    frame of every window ``frames[s : s + T]`` in start order, and each
    row's window, the index ``j`` of its start."""
    steps = len(frames) - starts[-1]
    last = [frames[s + steps - 1] for s in starts]
    return concat_frames(last), np.repeat(np.arange(len(last)),
                                          [len(f) for f in last])


def encode_sequence(tape: Tape, params: ModelParams, frames: list[FrameArrays],
                    starts=(0,)) -> SequenceEncoding:
    """Run the encoder over the windows ``frames[s : s + T]`` of a run of
    frames, one per start ``s`` in ``starts``, with ``T = len(frames) -
    starts[-1]``.

    ``starts=(0,)`` encodes the run as one window.  Evaluation passes the
    overlapping windows of a world's frames as one run and their starts;
    training lays a pack's windows end to end, ``starts = T * arange(B)``.

    The frame-local stages run once over the run, however many windows read
    a frame: one embedding of every row, one gate over every transition
    ``f -> f + 1`` that lies inside a window (the transitions between
    windows laid end to end are never gated) and one movement MLP over every
    gated pair.  Their rows are then laid out by index: step ``t`` holds
    frame ``starts[j] + t`` for each start ``j`` in order, each frame's rows
    in their own order; a laid-out row's window is ``j``.  One start lays
    nothing out.  Each step then cuts its rows with ``slice_rows`` and runs
    only the stages that read the recurrent state, in step-local rows.
    Every window carries its own states, so nothing mixes across windows.
    Returns the final step's motion states for decoding (the rows of
    :func:`final_step`) plus the pass's pairs, affinity logits and
    diagnostics in laid-out rows.
    """
    starts = np.asarray(starts, dtype=np.intp)
    if len(starts) == 0 or starts[0] != 0 or np.any(starts[1:] <= starts[:-1]):
        raise ConfigError("encode_sequence: window starts must ascend from 0, "
                          f"got {starts.tolist()}")
    steps = len(frames) - int(starts[-1])
    if steps < 2:
        raise ConfigError("encode_sequence needs windows of at least 2 frames, "
                          f"got {steps}")
    cfg = params.config
    # without MSA only the top-ranked candidate's state is kept
    k = cfg.k_candidates if cfg.use_msa else 1

    # the run's frames, each embedded and gated once
    run_off = np.append(0, np.cumsum([len(f) for f in frames]))
    run = concat_frames(frames)
    x_det_all = embed_frame(tape, params, run)
    pairs, dists = _gate_run(run.pos, run_off, starts, steps, cfg.theta_d)
    x_mov_all = movement_features(tape, params, run.pos, run.pos, pairs)
    rows, src, pairs, block, off = _lay_out(run_off, pairs, starts, steps)
    if len(starts) > 1:
        x_det_all = tape.gather_rows(x_det_all, rows)
        x_mov_all = tape.gather_rows(x_mov_all, src)
        dists = dists[src]
    # pairs come in (curr, prev) order, so step t's are one run
    off = off.tolist()
    sizes = np.diff(off).tolist()
    cut = np.searchsorted(pairs[:, 1], off[1:]).tolist()

    x_det_prev = tape.slice_rows(x_det_all, 0, off[1])
    h_mot = _zero_state(tape, sizes[0], cfg.hidden_dim, x_det_prev)
    h_aff = (_zero_state(tape, sizes[0], cfg.hidden_dim, x_det_prev)
             if cfg.use_asu else None)

    logits_all, selected, tops, alphas = [], [], [], []
    for t in range(1, steps):
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
        offsets=np.array(off), run_rows=rows, h_mot_final=h_mot)


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
