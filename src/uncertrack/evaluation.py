"""Final-displacement metrics, nonlinearity selection, kinematic baselines,
and the ablation harness.

fde@3s is the mean distance (reported in centimeters) between the last
forecast waypoint and the ground-truth position three seconds ahead, over
matched true-positive detections with a full future.  nl_fde@3s restricts the
mean to samples whose future deviates from a degree-1 least-squares fit by
more than a residual threshold (0.1 by default; configurable since its exact
selection differs between fitting conventions).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .detections import FrameArrays, stack_windows
from .errors import ConfigError
from .forecaster import (forecast_sequence, pack_ranges, stride_and_horizon,
                         window_starts)
from .model import ModelParams
from .world import WorldLog

__all__ = ["EvalReport", "match_for_eval", "fde",
           "nonlinearity_residual", "gt_future", "evaluate_model",
           "ablation_run", "stand_still_fde", "constant_velocity_fde"]

NL_RESIDUAL_THRESHOLD = 0.1
MATCH_THRESHOLD_M = 2.0


def match_for_eval(det_pos: np.ndarray, gt_pos: np.ndarray,
                   dist_threshold: float = MATCH_THRESHOLD_M):
    """Greedy nearest-neighbor matching; each side is used at most once."""
    if dist_threshold <= 0:
        raise ConfigError("match_for_eval: dist_threshold must be positive")
    if len(det_pos) == 0 or len(gt_pos) == 0:
        return []
    diff = det_pos[:, None, :] - gt_pos[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    order = np.argsort(dist, axis=None, kind="stable")
    used_det = np.zeros(len(det_pos), dtype=bool)
    used_gt = np.zeros(len(gt_pos), dtype=bool)
    matches = []
    for flat in order:
        i, j = divmod(int(flat), len(gt_pos))
        if dist[i, j] > dist_threshold:
            break
        if used_det[i] or used_gt[j]:
            continue
        used_det[i] = used_gt[j] = True
        matches.append((i, j, float(dist[i, j])))
    return sorted(matches)


def fde(pred_final: np.ndarray, gt_final: np.ndarray) -> float:
    """Mean final displacement in centimeters."""
    pred_final = np.asarray(pred_final, dtype=float).reshape(-1, 2)
    gt_final = np.asarray(gt_final, dtype=float).reshape(-1, 2)
    if pred_final.shape != gt_final.shape:
        raise ConfigError("fde: prediction/target shape mismatch")
    if len(pred_final) == 0:
        raise ConfigError("fde: empty sample set (report as absent instead)")
    d = np.hypot(pred_final[:, 0] - gt_final[:, 0],
                 pred_final[:, 1] - gt_final[:, 1])
    return float(d.mean() * 100.0)


def nonlinearity_residual(points: np.ndarray) -> float:
    """Sum of squared residuals of per-axis degree-1 least-squares fits."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    design = np.stack([np.ones(n), np.arange(1.0, n + 1.0)], axis=1)
    _, res, _, _ = np.linalg.lstsq(design, pts, rcond=None)
    if res.size == 0:  # underdetermined fit cannot leave a residual
        return 0.0
    return float(res.sum())


def gt_future(log: WorldLog, agent_id: int, frame: int, steps: int,
              step_seconds: float) -> np.ndarray | None:
    """GT positions at the forecast instants, or None without a full future."""
    stride, horizon = stride_and_horizon(log, steps, step_seconds)
    track = next((t for t in log.tracks if t.agent_id == agent_id), None)
    if track is None or frame + horizon > track.death_frame:
        return None
    idx = [track.index_at(frame + stride * (i + 1)) for i in range(steps)]
    return track.pos[idx]


@dataclass
class EvalReport:
    fde_cm: float | None
    nl_fde_cm: float | None
    num_matched: int
    num_nonlinear: int
    num_windows: int
    nl_threshold: float = NL_RESIDUAL_THRESHOLD
    variants: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "fde_cm": self.fde_cm, "nl_fde_cm": self.nl_fde_cm,
            "num_matched": self.num_matched,
            "num_nonlinear": self.num_nonlinear,
            "num_windows": self.num_windows,
            "nl_threshold": self.nl_threshold,
            "note": "nonlinear subset = degree-1 LSQ residual > threshold",
            "variants": self.variants,
        }, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"windows evaluated : {self.num_windows}",
                 f"matched TPs       : {self.num_matched}",
                 f"nonlinear subset  : {self.num_nonlinear} "
                 f"(degree-1 LSQ residual > {self.nl_threshold})"]
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
            lines.append(f"{'variant':<10} {'fde@3s':>14} {'nl_fde@3s':>16}")
            for name, res in self.variants.items():
                f_m, f_s = np.mean(res["fde_cm"]), np.std(res["fde_cm"])
                n_m, n_s = np.mean(res["nl_fde_cm"]), np.std(res["nl_fde_cm"])
                lines.append(f"{name:<10} {f_m:8.1f} ± {f_s:4.1f} "
                             f"{n_m:10.1f} ± {n_s:4.1f}")
        return "\n".join(lines)


def _matched_errors(log: WorldLog, t_final: int, horizon: int,
                    det_pos: np.ndarray, final_waypoints, pred_steps: int,
                    step_seconds: float, match_threshold: float):
    """(final-waypoint error, GT future) per detection matched to an agent
    that is alive at ``t_final`` and for the whole horizon."""
    live = [tr for tr in log.tracks
            if tr.alive(t_final) and t_final + horizon <= tr.death_frame]
    if not live or len(det_pos) == 0:
        return
    gt_pos = np.stack([tr.pos[tr.index_at(t_final)] for tr in live])
    for det_i, gt_j, _ in match_for_eval(det_pos, gt_pos, match_threshold):
        future = gt_future(log, live[gt_j].agent_id, t_final, pred_steps,
                           step_seconds)
        if future is None:
            continue
        yield float(np.hypot(*(final_waypoints[det_i] - future[-1]))), future


def evaluate_model(params: ModelParams, worlds: list[WorldLog], t_obs: int = 20,
                   window_stride: int = 5, sim=None,
                   nl_threshold: float = NL_RESIDUAL_THRESHOLD,
                   match_threshold: float = MATCH_THRESHOLD_M,
                   min_score: float | None = None) -> EvalReport:
    """Slide evaluation windows over worlds and accumulate displacement errors.

    Each world's windows are forecast in packs (:func:`pack_ranges`), with
    stride and horizon taken from that world's frame rate.  ``min_score``
    optionally drops low-confidence detections first (the score-threshold
    mode standing in for recall-matched TP sets).
    """
    cfg = params.config
    errors: list[float] = []
    nonlinear: list[bool] = []
    num_windows = 0
    for log in worlds:
        _, horizon = stride_and_horizon(log, cfg.pred_steps, cfg.step_seconds)
        starts = window_starts(log, t_obs, cfg.pred_steps, cfg.step_seconds)
        windows = []
        for t0 in range(0, starts, window_stride):
            frames = []
            for t in range(t0, t0 + t_obs):
                dets = log.frames[t]
                if min_score is not None:
                    dets = [d for d in dets if d.score >= min_score]
                frames.append(FrameArrays.from_detections(dets))
            num_windows += 1
            if len(frames[-1]):
                windows.append((t0, frames))

        for lo, hi in pack_ranges([frames for _, frames in windows]):
            pack = windows[lo:hi]
            _, forecasts = forecast_sequence(
                params, stack_windows([frames for _, frames in pack]), sim=sim)
            row = 0
            for t0, frames in pack:
                final = frames[-1]
                waypoints = [f.waypoints[-1] for f in forecasts[row: row + len(final)]]
                row += len(final)
                for err, future in _matched_errors(
                        log, t0 + t_obs - 1, horizon, final.pos, waypoints,
                        cfg.pred_steps, cfg.step_seconds, match_threshold):
                    errors.append(err)
                    nonlinear.append(nonlinearity_residual(future) > nl_threshold)

    errors_arr = np.asarray(errors)
    nl_arr = np.asarray(nonlinear, dtype=bool)
    return EvalReport(
        fde_cm=float(errors_arr.mean() * 100.0) if len(errors_arr) else None,
        nl_fde_cm=(float(errors_arr[nl_arr].mean() * 100.0)
                   if nl_arr.any() else None),
        num_matched=len(errors_arr),
        num_nonlinear=int(nl_arr.sum()),
        num_windows=num_windows,
        nl_threshold=nl_threshold)


def _baseline_fde(worlds: list[WorldLog], forecast, t_obs: int,
                  window_stride: int, pred_steps: int, step_seconds: float,
                  match_threshold: float) -> float | None:
    """fde@3s of ``forecast(pos, velo, seconds) -> final waypoints`` from the
    final frame's detections alone, on the windows ``evaluate_model`` uses."""
    errors = []
    for log in worlds:
        _, horizon = stride_and_horizon(log, pred_steps, step_seconds)
        seconds = horizon / log.frame_rate
        starts = window_starts(log, t_obs, pred_steps, step_seconds)
        for t0 in range(0, starts, window_stride):
            t_final = t0 + t_obs - 1
            dets = log.frames[t_final]
            det_pos = np.array([d.pos for d in dets]).reshape(-1, 2)
            det_velo = np.array([d.velo for d in dets]).reshape(-1, 2)
            errors.extend(err for err, _ in _matched_errors(
                log, t_final, horizon, det_pos,
                forecast(det_pos, det_velo, seconds), pred_steps,
                step_seconds, match_threshold))
    return float(np.mean(errors) * 100.0) if errors else None


def stand_still_fde(worlds: list[WorldLog], t_obs: int = 20,
                    window_stride: int = 5, pred_steps: int = 6,
                    step_seconds: float = 0.5,
                    match_threshold: float = MATCH_THRESHOLD_M) -> float | None:
    """Independent baseline: forecast = stay at the detected position."""
    return _baseline_fde(worlds, lambda pos, velo, seconds: pos, t_obs,
                         window_stride, pred_steps, step_seconds,
                         match_threshold)


def constant_velocity_fde(worlds: list[WorldLog], t_obs: int = 20,
                          window_stride: int = 5, pred_steps: int = 6,
                          step_seconds: float = 0.5,
                          match_threshold: float = MATCH_THRESHOLD_M
                          ) -> float | None:
    """Independent baseline: forecast = detected position plus detected
    velocity times the horizon."""
    return _baseline_fde(worlds, lambda pos, velo, seconds: pos + velo * seconds,
                         t_obs, window_stride, pred_steps, step_seconds,
                         match_threshold)


def ablation_run(train_fn, eval_worlds: list[WorldLog], seeds: list[int],
                 variants: tuple[str, ...] = ("baseline", "asu", "msa", "full"),
                 t_obs: int = 20, window_stride: int = 5,
                 nl_threshold: float = NL_RESIDUAL_THRESHOLD,
                 progress=None) -> EvalReport:
    """Train each variant per seed (via ``train_fn(variant, seed)``) and
    evaluate all of them on the shared eval worlds."""
    table: dict[str, dict[str, list[float]]] = {
        v: {"fde_cm": [], "nl_fde_cm": [], "num_matched": [],
            "num_nonlinear": []} for v in variants}
    last = None
    for variant in variants:
        for seed in seeds:
            params = train_fn(variant, seed)
            rep = evaluate_model(params, eval_worlds, t_obs=t_obs,
                                 window_stride=window_stride,
                                 nl_threshold=nl_threshold)
            table[variant]["fde_cm"].append(rep.fde_cm)
            table[variant]["nl_fde_cm"].append(rep.nl_fde_cm)
            table[variant]["num_matched"].append(rep.num_matched)
            table[variant]["num_nonlinear"].append(rep.num_nonlinear)
            last = rep
            if progress is not None:
                progress(variant, seed, rep)
    report = EvalReport(fde_cm=None, nl_fde_cm=None,
                        num_matched=last.num_matched if last else 0,
                        num_nonlinear=last.num_nonlinear if last else 0,
                        num_windows=last.num_windows if last else 0,
                        nl_threshold=nl_threshold, variants=table)
    return report
