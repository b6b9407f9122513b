"""Final-displacement metrics, the shared window scoring loop, the kinematic
baselines, and the ablation harness.

fde@3s is the mean distance (reported in centimeters) between the last
forecast waypoint and the ground-truth position three seconds ahead, over
matched true-positive detections with a full future.  nl_fde@3s restricts the
mean to samples whose future deviates from a degree-1 least-squares fit by
more than a residual threshold of 0.1.

The model and the kinematic baselines are scored by one loop: every world's
frames that its windows read are cut once by
:func:`~uncertrack.forecaster.cut_window` (the training cut, without the
detection cap), and each pack of windows is forecast from one run of those
frames and the windows' starts within it, so the model embeds and gates
every frame of a pack once however many windows overlap on it.  Ground
truth comes from :func:`~uncertrack.forecaster.gt_future`, and only the
forecast of the final waypoints differs between the scorers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .affinity import gate_positions
from .encoder import final_step
from .forecaster import (cut_window, forecast_sequence, gt_future, pack_ranges,
                         window_starts)
from .model import (EVAL_STRIDE, T_OBS, VARIANTS, ModelConfig, ModelParams,
                    stride_and_horizon)
from .world import WorldLog

__all__ = ["EvalReport", "match_for_eval", "nonlinearity_residual",
           "evaluate_model", "ablation_run", "stand_still_fde",
           "constant_velocity_fde"]

NL_RESIDUAL_THRESHOLD = 0.1
MATCH_THRESHOLD_M = 2.0


def match_for_eval(det_pos: np.ndarray, gt_pos: np.ndarray):
    """Greedy nearest-neighbor matching within ``MATCH_THRESHOLD_M``; each
    side is used at most once.

    Candidates are the pairs :func:`~uncertrack.affinity.gate_positions`
    keeps (so the threshold is compared on squared distances), taken by
    distance, ties in (detection, ground truth) order.  Returns the matches
    ``(i, j, d)`` of detection i and ground truth j, sorted.
    """
    pairs, dist = gate_positions(gt_pos, det_pos, MATCH_THRESHOLD_M)
    order = np.argsort(dist, kind="stable")
    used_det = np.zeros(len(det_pos), dtype=bool)
    used_gt = np.zeros(len(gt_pos), dtype=bool)
    matches = []
    gt_idx, det_idx = pairs[order].T.tolist()
    for i, j, d in zip(det_idx, gt_idx, dist[order].tolist()):
        if used_det[i] or used_gt[j]:
            continue
        used_det[i] = used_gt[j] = True
        matches.append((i, j, d))
    return sorted(matches)


def nonlinearity_residual(futures: np.ndarray) -> np.ndarray:
    """Sum of squared residuals of per-axis degree-1 least-squares fits on
    t = 1..n of M futures, (M, n, 2) -> (M,), in closed form on centred t
    and positions; a one-point future has residual 0."""
    t = np.arange(futures.shape[1], dtype=float)
    t -= t.mean()
    y = futures - futures.mean(axis=1, keepdims=True)
    stt = t @ t or 1.0  # one point: t = y = 0, so any slope leaves nothing
    slope = np.einsum("n,mnk->mk", t, y) / stt
    r = y - slope[:, None, :] * t[:, None]
    return (r * r).sum(axis=(1, 2))


@dataclass
class EvalReport:
    fde_cm: float | None
    nl_fde_cm: float | None
    num_matched: int
    num_nonlinear: int
    num_windows: int
    variants: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "fde_cm": self.fde_cm, "nl_fde_cm": self.nl_fde_cm,
            "num_matched": self.num_matched,
            "num_nonlinear": self.num_nonlinear,
            "num_windows": self.num_windows,
            "nl_threshold": NL_RESIDUAL_THRESHOLD,
            "note": "nonlinear subset = degree-1 LSQ residual > threshold",
            "variants": self.variants,
        }, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"windows evaluated : {self.num_windows}",
                 f"matched TPs       : {self.num_matched}",
                 f"nonlinear subset  : {self.num_nonlinear} "
                 f"(degree-1 LSQ residual > {NL_RESIDUAL_THRESHOLD})"]
        if self.fde_cm is not None:
            lines.append(f"fde@3s            : {self.fde_cm:.1f} cm")
        else:
            lines.append("fde@3s            : absent (no matched samples)")
        if self.nl_fde_cm is not None:
            lines.append(f"nl_fde@3s         : {self.nl_fde_cm:.1f} cm")
        else:
            lines.append("nl_fde@3s         : absent (no nonlinear samples)")
        if self.variants:
            lines.append("")
            lines.append(f"{'variant':<10} {'fde@3s':>15} {'nl_fde@3s':>17}")
            for name, res in self.variants.items():
                lines.append(f"{name:<10} {_mean_std(res['fde_cm']):>15} "
                             f"{_mean_std(res['nl_fde_cm']):>17}")
        return "\n".join(lines)


def _mean_std(values: list[float | None]) -> str:
    # a run without matched (or nonlinear) samples has no mean to pool
    if not values or any(v is None for v in values):
        return "absent"
    return f"{np.mean(values):.1f} ± {np.std(values):.1f}"


def _score_windows(worlds: list[WorldLog], forecast, t_obs: int,
                   window_stride: int, config: ModelConfig) -> EvalReport:
    """Slide evaluation windows over worlds and accumulate displacement errors.

    ``forecast(run, starts, seconds)`` returns the final waypoint of every
    row of the last frames of the windows ``run[s : s + t_obs]``, in start
    order, (N, 2); ``seconds`` is the horizon at the world's frame rate.
    Each world is cut once, up to the last frame a window reads; its windows,
    with stride and horizon taken from its frame rate, are packed by
    :func:`pack_ranges`, and a pack is forecast from the run of frames its
    windows span.  A detection is scored when it matches an agent alive for
    the whole horizon.
    """
    errors = [np.zeros(0)]  # seeded: concatenates even without windows
    nonlinear = [np.zeros(0, dtype=bool)]
    num_windows = 0
    for log in worlds:
        _, horizon = stride_and_horizon(log.frame_rate, config)
        seconds = horizon / log.frame_rate
        agents = [tr.agent_id for tr in log.tracks]
        starts = range(0, window_starts(log, t_obs, config), window_stride)
        frames = cut_window(log, 0, starts[-1] + t_obs if starts else 0)[0]
        windows = [frames[t0:t0 + t_obs] for t0 in starts]
        num_windows += len(windows)

        for lo, hi in pack_ranges(windows):
            first = starts[lo]
            final = forecast(frames[first:starts[hi - 1] + t_obs],
                             [t0 - first for t0 in starts[lo:hi]], seconds)
            row = 0
            for t0 in starts[lo:hi]:
                last = frames[t0 + t_obs - 1]
                gt, alive = gt_future(log, agents, t0 + t_obs - 1, config)
                gt = gt[alive.all(axis=1)]
                matches = match_for_eval(last.pos, gt[:, 0])
                i, j = np.array([m[:2] for m in matches],
                                dtype=np.intp).reshape(-1, 2).T
                errors.append(np.hypot(*(final[row + i] - gt[j, -1]).T))
                nonlinear.append(nonlinearity_residual(gt[j, 1:])
                                 > NL_RESIDUAL_THRESHOLD)
                row += len(last)

    errors_arr = np.concatenate(errors)
    nl_arr = np.concatenate(nonlinear)
    return EvalReport(
        fde_cm=float(errors_arr.mean() * 100.0) if len(errors_arr) else None,
        nl_fde_cm=(float(errors_arr[nl_arr].mean() * 100.0)
                   if nl_arr.any() else None),
        num_matched=len(errors_arr),
        num_nonlinear=int(nl_arr.sum()),
        num_windows=num_windows)


def evaluate_model(params: ModelParams, worlds: list[WorldLog],
                   t_obs: int = T_OBS, window_stride: int = EVAL_STRIDE,
                   sim=None) -> EvalReport:
    """fde@3s and nl_fde@3s of the model's forecasts."""
    def final_waypoints(run, starts, seconds):
        _, forecasts = forecast_sequence(params, run, sim=sim, starts=starts)
        return np.array([f.waypoints[-1] for f in forecasts]).reshape(-1, 2)

    return _score_windows(worlds, final_waypoints, t_obs, window_stride,
                          params.config)


def stand_still_fde(worlds: list[WorldLog],
                    config: ModelConfig = ModelConfig()) -> EvalReport:
    """Independent baseline: forecast = stay at the detected position."""
    return _score_windows(
        worlds, lambda run, starts, seconds: final_step(run, starts)[0].pos,
        T_OBS, EVAL_STRIDE, config)


def constant_velocity_fde(worlds: list[WorldLog],
                          config: ModelConfig = ModelConfig()) -> EvalReport:
    """Independent baseline: forecast = detected position plus detected
    velocity times the horizon."""
    def final_waypoints(run, starts, seconds):
        final, _ = final_step(run, starts)
        return final.pos + final.velo * seconds

    return _score_windows(worlds, final_waypoints, T_OBS, EVAL_STRIDE, config)


def ablation_run(train_fn, eval_worlds: list[WorldLog],
                 seeds: list[int]) -> EvalReport:
    """Train each of the ``VARIANTS`` per seed (via ``train_fn(variant,
    seed)``) and evaluate all of them on the shared eval worlds."""
    table: dict[str, dict[str, list[float]]] = {
        v: {"fde_cm": [], "nl_fde_cm": [], "num_matched": [],
            "num_nonlinear": []} for v in VARIANTS}
    last = None
    for variant in VARIANTS:
        for seed in seeds:
            params = train_fn(variant, seed)
            rep = evaluate_model(params, eval_worlds)
            table[variant]["fde_cm"].append(rep.fde_cm)
            table[variant]["nl_fde_cm"].append(rep.nl_fde_cm)
            table[variant]["num_matched"].append(rep.num_matched)
            table[variant]["num_nonlinear"].append(rep.num_nonlinear)
            last = rep
    return EvalReport(fde_cm=None, nl_fde_cm=None,
                      num_matched=last.num_matched if last else 0,
                      num_nonlinear=last.num_nonlinear if last else 0,
                      num_windows=last.num_windows if last else 0,
                      variants=table)
