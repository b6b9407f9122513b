"""Trajectory decoding, the social-interaction plug-in, the joint loss, and
the training loop.

The decoder emits per-step offsets from the detection's position at the last
observed frame (so an all-zero decoder forecasts "stand still").  Training
minimizes smooth-L1 on the final-frame forecasts of true-positive detections
plus a lambda-weighted mean of the per-transition affinity BCE, with lambda
decayed linearly over the first half of the epochs.  Windows are encoded in
packs: a pack's windows are laid end to end as one run of frames with the
windows' starts, and share one tape pass in which nothing mixes across
windows (see :func:`~uncertrack.encoder.encode_sequence`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .affinity import gate_positions
from .detections import FrameArrays
from .encoder import SequenceEncoding, encode_sequence, final_step
from .errors import ConfigError, check_fields
from .model import (MAX_DETECTIONS, T_OBS, ModelConfig, ModelParams,
                    init_model, stride_and_horizon, variant_config)
from .numerics import NumericsError, Tape, Var, adam_step, mlp_forward
from .rng import substream
from .world import FP_ID, WorldLog

__all__ = ["Forecast", "TrainConfig", "SequenceSample", "EpochStats",
           "MeanPoolSIM", "decode_trajectory",
           "total_loss", "lambda_schedule", "lr_schedule", "augment_sample",
           "build_sample", "cut_window", "gt_future", "window_starts",
           "pair_labels", "train", "forecast_sequence",
           "model_config_from_train", "PACK_DETECTIONS", "pack_ranges",
           "join_samples"]


@dataclass
class Forecast:
    waypoints: np.ndarray   # (pred_steps, 2) absolute positions, meters


# ---- social interaction plug-in ----------------------------------------------
# A SIM maps the final rows' encodings to the decoder input,
# ``sim(tape, encodings, final_frame, window) -> Var``, where ``window`` is
# each final row's window (:func:`~uncertrack.encoder.final_step`);
# ``sim=None`` decodes the encodings as they are.


class MeanPoolSIM:
    """Demo SIM: subtract the mean encoding of neighbors within a radius.

    Neighbors are the other rows of the detection's own window that
    :func:`~uncertrack.affinity.gate_positions` keeps within ``radius``;
    their encodings are summed per row and scaled by 1 / neighbor count.
    Permutation-equivariant; a detection without neighbors is unchanged.
    """

    def __init__(self, radius: float = 10.0):
        self.radius = radius

    def __call__(self, tape: Tape, encodings: Var, frame: FrameArrays,
                 window: np.ndarray) -> Var:
        pairs, _ = gate_positions(frame.pos, frame.pos, self.radius, window,
                                  window)
        nb, row = pairs[pairs[:, 0] != pairs[:, 1]].T
        n = len(frame)
        scale = 1.0 / np.maximum(np.bincount(row, minlength=n), 1)[:, None]
        pooled = tape.segment_sum(tape.gather_rows(encodings, nb), row, n)
        scale = tape.const(scale.astype(encodings.value.dtype))
        return tape.sub(encodings, tape.mul(pooled, scale))


# ---- decoding ------------------------------------------------------------------


def decode_trajectory(tape: Tape, params: ModelParams, p_n: Var) -> Var:
    """The decoder, in training and in inference: per-step offsets from the
    final detections' positions, (N, 2 * pred_steps), step-major (x, y)."""
    return mlp_forward(tape, params.mlp_dec, p_n)


def _forward(tape: Tape, params: ModelParams, frames: list[FrameArrays],
             sim, starts=(0,)) -> tuple[SequenceEncoding, Var]:
    # encoder, (SIM,) decoder: the one forward pass of training and inference
    enc = encode_sequence(tape, params, frames, starts)
    p_n = enc.h_mot_final
    if sim is not None:
        p_n = sim(tape, p_n, *final_step(frames, starts))
    return enc, decode_trajectory(tape, params, p_n)


# ---- loss ----------------------------------------------------------------------


def pair_labels(pairs: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Same-identity labels of [prev, curr] row pairs, given every row's
    hidden identity."""
    prev, curr = ids[pairs[:, 0]], ids[pairs[:, 1]]
    return ((prev != FP_ID) & (prev == curr)).astype(float)


def total_loss(tape: Tape, pred_offsets: Var, sample: SequenceSample,
               encoding: SequenceEncoding, lam: float):
    """Joint matching/forecasting loss, summed over the windows of a pack.

    A window's loss is its masked smooth-L1 over the final-frame targets,
    averaged over its supervised components, plus ``lam`` times its affinity
    loss: the mean BCE over each transition's gated pairs (labelled by
    :func:`pair_labels`), summed over transitions and divided by the
    window's ``T - 1`` transitions.  Per-window normalisation is carried by
    the weights of two weighted sums over the whole pack: a target component
    weighs one over its window's supervised components (a window without
    targets weighs 0), and a pair one over the pairs of its gate block (one
    transition of one window).  The same expression serves every pack, also
    one without targets or without pairs.

    Returns (loss Var, summed l_traj, summed l_aff, windows with targets).
    Raises when a window has neither supervised forecasts nor gated pairs.
    """
    n_win = len(sample.starts)
    n_trans = len(sample.frames) - int(sample.starts[-1]) - 1
    _, row_window = final_step(sample.frames, sample.starts)
    win_mask = np.bincount(row_window, weights=sample.target_mask.sum(axis=1),
                           minlength=n_win)
    n_traj = int(np.count_nonzero(win_mask))
    l_traj = tape.smooth_l1(
        pred_offsets, sample.target_offsets,
        sample.target_mask / np.maximum(win_mask[row_window], 1.0)[:, None])

    block = encoding.pair_block
    per_block = np.bincount(block)
    ids = np.concatenate(sample.true_ids)[encoding.run_rows]
    l_aff = tape.bce(encoding.logits, pair_labels(encoding.pairs, ids),
                     1.0 / per_block[block])

    # block b is transition b // n_win of window b % n_win
    win_scored = np.bincount(np.arange(len(per_block)) % n_win,
                             weights=per_block, minlength=n_win) > 0
    empty = np.flatnonzero((win_mask == 0) & ~win_scored)
    if len(empty):
        raise ConfigError(f"degenerate window {int(empty[0])} of the pack: no "
                          "supervised forecasts and no gated pairs")
    loss = tape.add(l_traj, tape.affine(l_aff, lam / n_trans))
    return (loss, float(l_traj.value[0, 0]), float(l_aff.value[0, 0]) / n_trans,
            n_traj)


# ---- schedules -----------------------------------------------------------------


def lambda_schedule(epoch: int, cfg: TrainConfig) -> float:
    """``lambda_start`` decayed linearly to ``lambda_end`` over the first half
    of training, then constant."""
    if not 0 <= epoch < cfg.epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {cfg.epochs})")
    half = math.ceil(cfg.epochs / 2)
    if epoch >= half:
        return cfg.lambda_end
    return cfg.lambda_start + (cfg.lambda_end - cfg.lambda_start) * epoch / half


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """``lr`` times ``lr_decay`` once per evenly spaced epoch boundary, at
    ``lr_num_decays`` boundaries."""
    boundaries = [math.ceil(cfg.epochs * i / (cfg.lr_num_decays + 1))
                  for i in range(1, cfg.lr_num_decays + 1)]
    k = sum(epoch >= b for b in boundaries)
    return cfg.lr * cfg.lr_decay ** k


# ---- samples and augmentation ----------------------------------------------------


@dataclass
class SequenceSample:
    """One observation window, or a pack of windows laid end to end as one
    run of frames (see :func:`join_samples`): window ``j`` is
    ``frames[s_j : s_j + T]`` for ``s_j = starts[j]``.  Targets are the final
    rows of every window in start order
    (:func:`~uncertrack.encoder.final_step`)."""

    frames: list[FrameArrays]
    true_ids: list[np.ndarray]
    target_offsets: np.ndarray   # (N_T, 2 * pred_steps), GT future minus det pos
    target_mask: np.ndarray      # (N_T, 2 * pred_steps) in {0, 1}
    starts: np.ndarray | tuple = (0,)


def window_starts(log: WorldLog, t_obs: int, config: ModelConfig) -> int:
    """Number of admissible window start frames (full horizon in-world)."""
    _, horizon = stride_and_horizon(log.frame_rate, config)
    return max(0, log.num_frames - t_obs - horizon + 1)


def cut_window(log: WorldLog, t0: int, t_obs: int,
               max_detections: int | None = None
               ) -> tuple[list[FrameArrays], list[np.ndarray]]:
    """Frames ``t0 .. t0 + t_obs - 1`` of a world as arrays, with every
    row's hidden identity.

    ``max_detections`` keeps only a frame's most confident detections, in
    their original order; it bounds training memory, so evaluation leaves
    it unset and scores every detection.
    """
    frames, ids = [], []
    for t in range(t0, t0 + t_obs):
        dets = log.frames[t]
        tid = log.true_ids[t]
        if max_detections is not None and len(dets) > max_detections:
            order = np.argsort([-d.score for d in dets])[:max_detections]
            order.sort()
            dets = [dets[i] for i in order]
            tid = tid[order]
        frames.append(FrameArrays.from_detections(dets))
        ids.append(tid)
    return frames, ids


def gt_future(log: WorldLog, agent_ids: list[int] | np.ndarray,
              frame: int | np.ndarray, config: ModelConfig
              ) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth positions of agents at ``frame`` (column 0) and at the
    ``config.pred_steps`` forecast instants after it, (N, steps + 1, 2), and
    whether each agent is alive then, (N, steps + 1).  ``frame`` is one frame
    for every id or one frame per id.  ``FP_ID`` is never alive; an id that
    names no track raises :class:`ConfigError`."""
    steps = config.pred_steps
    stride, _ = stride_and_horizon(log.frame_rate, config)
    instants = np.asarray(frame)[..., None] + stride * np.arange(steps + 1)
    ids = np.asarray(agent_ids, dtype=np.int64)
    # track 0 stands for FP_ID: born after it dies, it is never alive
    track_ids, births, deaths, lengths = np.array(
        [(FP_ID, 1, 0, 0)] + [(tr.agent_id, tr.birth_frame, tr.death_frame,
                               len(tr.pos)) for tr in log.tracks],
        dtype=np.int64).T
    # one lookup of the ids among the sorted track ids
    order = np.argsort(track_ids, kind="stable")
    k = order[np.searchsorted(track_ids[order], ids).clip(max=len(order) - 1)]
    missing = track_ids[k] != ids
    if missing.any():
        raise ConfigError(f"gt_future: agent {int(ids[missing][0])} has no "
                          "track in the world")
    birth = births[k, None]
    alive = (instants >= birth) & (instants <= deaths[k, None])
    # one gather from the tracks' positions, stacked in track order
    rows = (np.cumsum(lengths) - lengths)[k, None] + instants - birth
    pos = np.zeros((len(ids), steps + 1, 2))
    pos[alive] = np.concatenate([tr.pos for tr in log.tracks]
                                + [np.zeros((0, 2))])[rows[alive]]
    return pos, alive


def build_sample(log: WorldLog, t0: int, t_obs: int,
                 config: ModelConfig) -> SequenceSample:
    """Cut one training window, capped at ``MAX_DETECTIONS`` per frame, and
    its forecasting targets from a world.

    Targets are the final-frame detections' ground-truth offsets; an agent
    whose ground truth ends early is supervised on the valid fragment.
    """
    frames, ids = cut_window(log, t0, t_obs, MAX_DETECTIONS)
    pos, alive = gt_future(log, ids[-1], t0 + t_obs - 1, config)
    future = alive[:, 1:]
    offsets = np.where(future[:, :, None],
                       pos[:, 1:] - frames[-1].pos[:, None, :], 0.0)
    return SequenceSample(
        frames=frames, true_ids=ids,
        target_offsets=offsets.reshape(-1, 2 * config.pred_steps),
        target_mask=np.repeat(future, 2, axis=1).astype(float))


# A pack stops growing before its windows' summed detections per frame pass
# this budget, so a batch's sixteen ~17-detection windows go in one tape pass
# and ~70-detection windows ~7 to a pass.  Measured in float32 with gating
# per window (linear in the windows of a pack): one-epoch train() over the 16
# augmented windows of four 120-frame worlds, then evaluate_model on the
# held-out worlds, budgets alternated in one process for 8 rounds (single
# BLAS thread, 2-vCPU x86-64, medians); peak RSS from one process per budget,
# 46 MB (sparse) or 70 MB (dense) of it before training.
#   budget                     128    256    384    512
#   ~17 det/frame  windows/s  58.5   64.9   71.4   72.5
#                  peak MB      90    131    144    144
#   ~69 det/frame  windows/s  11.3   13.3   13.4   13.6
#                  peak MB     122    184    243    302
# Evaluation per world took 0.101 -> 0.087 s (sparse) and 0.546 -> 0.446 s
# (dense) from 128 to 512.  From 384 up a default 16-window sparse batch
# is one pass, so only dense packs still grow; 512 is the best measured.
PACK_DETECTIONS = 512


def pack_ranges(windows: list[list[FrameArrays]]) -> list[tuple[int, int]]:
    """Split consecutive windows into packs ``windows[lo:hi]``, each
    encoded in one pass as a run of frames with the windows' starts
    (training lays a pack's windows end to end, evaluation passes the frames
    its overlapping windows span).

    A window's size is its mean detections per frame, so a pack's summed
    size is the mean rows of one laid-out step; a pack takes windows in order
    until the next one would push its summed size past ``PACK_DETECTIONS``
    (a window above the budget forms a pack alone).
    """
    packs, lo, load = [], 0, 0.0
    for i, frames in enumerate(windows):
        size = sum(len(f) for f in frames) / len(frames)
        if i > lo and load + size > PACK_DETECTIONS:
            packs.append((lo, i))
            lo, load = i, 0.0
        load += size
    if lo < len(windows):
        packs.append((lo, len(windows)))
    return packs


def join_samples(samples: list[SequenceSample]) -> SequenceSample:
    """Lay equally long single-window samples end to end as one run, sample
    ``b`` being window ``b`` with start ``b * T``."""
    steps = len(samples[0].frames)
    return SequenceSample(
        frames=[f for s in samples for f in s.frames],
        true_ids=[ids for s in samples for ids in s.true_ids],
        target_offsets=np.concatenate([s.target_offsets for s in samples]),
        target_mask=np.concatenate([s.target_mask for s in samples]),
        starts=steps * np.arange(len(samples)))


def augment_sample(sample: SequenceSample, rng: np.random.Generator) -> SequenceSample:
    """One random rotation plus an independent 50% flip across the x axis."""
    angle = float(rng.uniform(0.0, 2 * np.pi))
    do_flip = bool(rng.random() < 0.5)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, s], [-s, c]])  # row vectors: p @ rot = R p
    flip = np.array([1.0, -1.0])
    frames = []
    for f in sample.frames:
        pos, velo = f.pos @ rot, f.velo @ rot
        heading = np.mod(f.heading + angle + np.pi, 2 * np.pi) - np.pi
        if do_flip:
            pos, velo, heading = pos * flip, velo * flip, -heading
        frames.append(FrameArrays(pos=pos, velo=velo, size=f.size.copy(),
                                  heading=heading, score=f.score.copy()))
    steps = sample.target_offsets.shape[1] // 2
    off = sample.target_offsets.reshape(-1, steps, 2) @ rot
    if do_flip:
        off = off * flip
    return SequenceSample(frames=frames, true_ids=sample.true_ids,
                          target_offsets=off.reshape(-1, 2 * steps),
                          target_mask=sample.target_mask.copy(),
                          starts=sample.starts)


# ---- training ------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Training settings, and the model to train (before its variant is
    applied, see :func:`model_config_from_train`)."""

    batch_sequences: int = 16
    lr: float = 0.003
    lr_decay: float = 0.6
    lr_num_decays: int = 6
    epochs: int = 10
    lambda_start: float = 1.0
    lambda_end: float = 0.1
    seed: int = 0
    windows_per_world: int = 4
    model: ModelConfig = ModelConfig()
    t_obs = T_OBS  # not a field; kept until perfbench reads model.T_OBS

    def __post_init__(self):
        # lr_num_decays may be 0, meaning no decay; seed is any integer
        check_fields(self, "an integer", ("seed",))
        check_fields(self, "a positive integer",
                     ("batch_sequences", "epochs", "windows_per_world"))
        check_fields(self, "a non-negative integer", ("lr_num_decays",))
        check_fields(self, "a positive finite number", ("lr", "lr_decay"))
        check_fields(self, "a non-negative finite number",
                     ("lambda_start", "lambda_end"))


def model_config_from_train(cfg: TrainConfig, variant: str = "full") -> ModelConfig:
    return variant_config(variant, cfg.model)


@dataclass
class EpochStats:
    epoch: int
    l_traj: float
    l_aff: float
    lam: float
    lr: float


def train(cfg: TrainConfig, worlds: list[WorldLog], variant: str = "full",
          sim=None) -> tuple[ModelParams, list[EpochStats]]:
    """Full training loop; deterministic for a fixed (cfg, worlds, variant).

    Each Adam batch is cut into packs by :func:`pack_ranges`; a pack's
    windows are laid end to end (:func:`join_samples`) and encoded in one
    tape pass.  The gradient is that of the mean window loss.
    """
    model_cfg = model_config_from_train(cfg, variant)
    starts_per_world = [window_starts(w, T_OBS, model_cfg) for w in worlds]
    total_windows = sum(cfg.windows_per_world for s in starts_per_world if s > 0)
    if total_windows < cfg.batch_sequences:
        raise ConfigError(f"training needs at least {cfg.batch_sequences} "
                          f"sequences per epoch, worlds offer {total_windows}")

    params = init_model(model_cfg, cfg.seed)
    order_rng = substream(cfg.seed, "batch-order")
    aug_rng = substream(cfg.seed, "augment")

    history: list[EpochStats] = []
    step = 0
    for epoch in range(cfg.epochs):
        lam = lambda_schedule(epoch, cfg)
        lr = lr_schedule(epoch, cfg)
        windows = []
        for wi, n_starts in enumerate(starts_per_world):
            if n_starts <= 0:
                continue
            for t0 in order_rng.integers(0, n_starts, size=cfg.windows_per_world):
                windows.append((wi, int(t0)))
        order_rng.shuffle(windows)

        traj_sum = aff_sum = 0.0
        traj_n = aff_n = 0
        for lo in range(0, len(windows), cfg.batch_sequences):
            batch = windows[lo: lo + cfg.batch_sequences]
            samples = [augment_sample(build_sample(worlds[wi], t0, T_OBS,
                                                   model_cfg), aug_rng)
                       for wi, t0 in batch]
            for p_lo, p_hi in pack_ranges([s.frames for s in samples]):
                tape = Tape()
                pack = join_samples(samples[p_lo:p_hi])
                enc, offsets = _forward(tape, params, pack.frames, sim,
                                        pack.starts)
                loss, l_traj, l_aff, n_traj = total_loss(tape, offsets, pack,
                                                         enc, lam)
                value = float(loss.value[0, 0])
                if not np.isfinite(value):
                    raise NumericsError(
                        f"non-finite loss at epoch {epoch}, windows (world, "
                        f"t0) {batch[p_lo:p_hi]}: traj {l_traj}, aff {l_aff}")
                tape.backward(loss, seed=1.0 / len(batch))
                traj_sum += l_traj
                traj_n += n_traj
                aff_sum += l_aff
                aff_n += p_hi - p_lo
            step += 1
            adam_step(params.blocks(), lr=lr, step=step)

        history.append(EpochStats(epoch=epoch,
                                  l_traj=traj_sum / traj_n if traj_n else 0.0,
                                  l_aff=aff_sum / aff_n if aff_n else 0.0,
                                  lam=lam, lr=lr))
    return params, history


def forecast_sequence(params: ModelParams, frames: list[FrameArrays],
                      sim=None, starts=(0,)
                      ) -> tuple[SequenceEncoding, list[Forecast]]:
    """Inference: encode the windows ``frames[s : s + T]`` of a run, one per
    start (by default the run itself as one window, see
    :func:`~uncertrack.encoder.encode_sequence`), and decode
    forecasts for every row of their final frames, in start order
    (:func:`~uncertrack.encoder.final_step`).

    Runs on a forward-only tape: no gradient is kept, so each intermediate is
    freed as soon as it is used, and the forecasts are bitwise those of a
    recording tape in the same dtype (float32 weights forecast in float32,
    a float64 copy in float64).  The returned encoding's logits are
    constants.
    """
    enc, offsets = _forward(Tape(grad=False), params, frames, sim, starts)
    final, _ = final_step(frames, starts)
    waypoints = (final.pos[:, None]
                 + offsets.value.reshape(len(final), params.config.pred_steps, 2))
    return enc, [Forecast(waypoints=w) for w in waypoints]
