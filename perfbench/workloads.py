"""The workloads and the measurements they take.

Every workload builds seeded worlds through a JSONL round trip, then, for
about the requested seconds, makes ``train()`` calls (one epoch of the
default ``TrainConfig``, augmentation on), forecasts every evaluation window
of its held-out worlds with the trained parameters and calls
``evaluate_model`` on them, so every workload measures every metric.  The
workloads differ in detection density: ``train-sparse`` (~17 per frame) and
``train-dense`` (~69 per frame).

A window that raises, or gives non-finite or misshapen output, is failed; so
is every window a failed output check covers.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import uncertrack.evaluation as evaluation
import uncertrack.forecaster as forecaster
import uncertrack.world as world
from probe import LAYER_METRICS, LayerProbe
from uncertrack.model import init_model

__all__ = ["Workload", "WORKLOADS", "END_TO_END", "PER_LAYER", "run_workload"]

EVAL_STRIDE = 5   # evaluate_model's default window stride
T_OBS = forecaster.TrainConfig().t_obs
INIT_SEED = 0     # weights of the set-up's init_model


@dataclass(frozen=True)
class Workload:
    name: str
    agents: int
    train_worlds: int
    heldout_worlds: int
    dets_band: tuple[float, float]  # guards the density the workload is about
    frames: int = 120


WORKLOADS = {w.name: w for w in (
    Workload("train-sparse", agents=24, train_worlds=4, heldout_worlds=3,
             dets_band=(14.0, 20.0)),
    Workload("train-dense", agents=100, train_worlds=4, heldout_worlds=2,
             dets_band=(60.0, 78.0)),
)}

END_TO_END = {"setup_s": "s", "windows_per_s": "1/s", "infer_ms_p50": "ms",
              "eval_s_per_world": "s", "fde_cm": "cm"}


PER_LAYER = {"world.generate_s": "s", "world.load_s": "s",
             "world.dets_per_frame": "count", **LAYER_METRICS,
             "tracing.overhead_frac": "ratio"}


@dataclass
class Tally:
    """Windows attempted and failed, and the output checks behind them.

    A failed check fails the windows it covers; a check of the whole run
    (``windows=None``) fails every window.
    """

    attempted: int = 0
    failed_windows: int = 0
    run_failed: bool = False
    checks: list[dict] = field(default_factory=list)

    def check(self, name: str, ok: bool, windows: int | None = None,
              detail: str = "") -> bool:
        if not ok:
            self.checks.append({"check": name, "detail": detail})
            if windows is None:
                self.run_failed = True
            else:
                self.failed_windows += windows
        return ok

    @property
    def failed(self) -> int:
        return self.attempted if self.run_failed else min(self.failed_windows,
                                                          self.attempted)


@dataclass
class SetupWorld:
    log: world.WorldLog
    generate_s: float
    load_s: float
    total_s: float


def build_world(wl: Workload, seed: int, path: Path, model_cfg,
                tally: Tally) -> SetupWorld:
    """One set-up: generate a world, round-trip it through JSONL, init a model."""
    t0 = perf_counter()
    tracks = world.generate_world(wl.agents, wl.frames, seed=seed)
    log = world.corrupt_to_detections(tracks, world.NoiseConfig(), seed=seed,
                                      num_frames=wl.frames)
    t1 = perf_counter()
    world.save_world(log, path)
    t2 = perf_counter()
    loaded = world.load_world(path)
    t3 = perf_counter()
    init_model(model_cfg, INIT_SEED)
    t4 = perf_counter()
    same = (loaded.num_frames == log.num_frames and all(
        [d.pos for d in a] == [d.pos for d in b] and np.array_equal(ia, ib)
        for a, b, ia, ib in zip(loaded.frames, log.frames, loaded.true_ids,
                                log.true_ids)))
    tally.check("world.round_trip", same, detail=f"world seed {seed}")
    return SetupWorld(loaded, t1 - t0, t3 - t2, t4 - t0)


def eval_windows(log: world.WorldLog, model_cfg) -> int:
    """Windows ``evaluate_model`` should visit, derived here independently."""
    horizon = model_cfg.pred_steps * int(round(log.frame_rate * model_cfg.step_seconds))
    span = log.num_frames - T_OBS - horizon
    return span // EVAL_STRIDE + 1 if span >= 0 else 0


@dataclass
class Measurement:
    train_calls: list[tuple[float, int]] = field(default_factory=list)  # (s, windows)
    latencies: list[float] = field(default_factory=list)                # s per window
    eval_calls: list[float] = field(default_factory=list)               # s per world
    eval_windows: int = 0
    fde: dict[int, tuple[float, int]] = field(default_factory=dict)     # world -> (cm, matched)
    setups: list[SetupWorld] = field(default_factory=list)
    cycles: int = 0

    @property
    def fde_cm(self) -> float:
        """fde@3s over all held-out worlds, weighted by matched samples."""
        matched = sum(n for _, n in self.fde.values())
        return sum(f * n for f, n in self.fde.values()) / matched if matched else 0.0


def _forecasts_ok(forecasts, n_final: int, steps: int) -> bool:
    return len(forecasts) == n_final and all(
        f.waypoints.shape == (steps, 2) and np.all(np.isfinite(f.waypoints))
        for f in forecasts)


def forecast_world(params, log, model_cfg, m: Measurement, tally: Tally) -> None:
    """Forecast every evaluation window of one world, cut by ``build_sample``."""
    for t0 in range(0, eval_windows(log, model_cfg) * EVAL_STRIDE, EVAL_STRIDE):
        sample = forecaster.build_sample(log, t0, T_OBS, model_cfg)
        tally.attempted += 1
        try:
            start = perf_counter()
            _, forecasts = forecaster.forecast_sequence(params, sample.frames)
            m.latencies.append(perf_counter() - start)
        except Exception as e:  # a failed window is counted, not fatal
            tally.check("forecast.raised", False, 1, repr(e))
            continue
        if not _forecasts_ok(forecasts, len(sample.frames[-1]), model_cfg.pred_steps):
            tally.check("forecast.finite_shape", False, 1, f"t0 {t0}")


def evaluate_world(params, index: int, log, model_cfg, m: Measurement,
                   tally: Tally) -> None:
    """``evaluate_model`` on one world, checked against the window count
    derived here and against the same world's earlier result."""
    expected = eval_windows(log, model_cfg)
    tally.attempted += expected
    try:
        start = perf_counter()
        report = evaluation.evaluate_model(params, [log], t_obs=T_OBS,
                                           window_stride=EVAL_STRIDE)
        m.eval_calls.append(perf_counter() - start)
    except Exception as e:
        tally.check("evaluate.raised", False, expected, repr(e))
        return
    m.eval_windows += report.num_windows
    tally.check("evaluate.num_windows", report.num_windows == expected, expected,
                f"{report.num_windows} reported, {expected} derived")
    fde = report.fde_cm
    if report.num_matched and not tally.check(
            "evaluate.fde_finite", fde is not None and math.isfinite(fde), expected,
            repr(fde)):
        return
    result = (fde or 0.0, report.num_matched)
    first = m.fde.setdefault(index, result)
    tally.check("evaluate.repeatable", result == first, expected,
                f"world {index}: {result} after {first}")


def _same_params(a, b) -> bool:
    return all(np.array_equal(x, y) for ba, bb in zip(a.blocks(), b.blocks())
               for x, y in zip(ba.weights, bb.weights))


def train_once(cfg, worlds, m: Measurement, tally: Tally):
    """One ``train()`` call; returns its parameters, or None if it raised."""
    windows = cfg.epochs * cfg.windows_per_world * len(worlds)
    tally.attempted += windows
    try:
        start = perf_counter()
        params, history = forecaster.train(cfg, worlds, "full")
        m.train_calls.append((perf_counter() - start, windows))
    except Exception as e:
        tally.check("train.raised", False, windows, repr(e))
        return None
    losses = [v for s in history for v in (s.l_traj, s.l_aff)]
    tally.check("train.loss_finite", all(map(math.isfinite, losses)), windows,
                repr(losses))
    return params


def measure(cfg, model_cfg, train_worlds, heldout, set_up, seconds: float,
            tally: Tally) -> Measurement:
    """Whole cycles of rounds for about ``seconds``.

    Round i sets up one more world with ``set_up(k)`` (k cycles through all
    worlds), trains once, then forecasts and evaluates held-out world i; a cycle visits every held-out world once.  Interleaving
    spreads every metric over the whole run, so each sees the same drift in
    machine speed, and whole cycles keep the mix of worlds fixed.  Another
    cycle starts only if it would end less than half a cycle past ``seconds``.
    """
    m = Measurement()
    params = None
    n_worlds = len(train_worlds) + len(heldout)
    start = perf_counter()
    elapsed = 0.0
    while not m.cycles or (elapsed * (1 + 0.5 / m.cycles) < seconds
                           and not tally.failed_windows):
        for i, log in enumerate(heldout):
            m.setups.append(set_up((m.cycles * len(heldout) + i) % n_worlds))
            trained = train_once(cfg, train_worlds, m, tally)
            if params is None:
                params = trained or init_model(model_cfg, INIT_SEED)
            elif trained is not None:
                tally.check("train.repeatable", _same_params(params, trained),
                            m.train_calls[-1][1])
            forecast_world(params, log, model_cfg, m, tally)
            evaluate_world(params, i, log, model_cfg, m, tally)
        m.cycles += 1
        elapsed = perf_counter() - start
    return m


def windows_per_s(m: Measurement) -> float:
    """Training throughput over the whole ``train()`` calls."""
    seconds = sum(s for s, _ in m.train_calls)
    return sum(w for _, w in m.train_calls) / seconds if seconds else 0.0


def end_to_end(setups: list[SetupWorld], m: Measurement) -> dict:
    return {
        "setup_s": statistics.median(s.total_s for s in setups + m.setups),
        "windows_per_s": windows_per_s(m),
        "infer_ms_p50": 1e3 * statistics.median(m.latencies) if m.latencies else 0.0,
        "eval_s_per_world": statistics.fmean(m.eval_calls) if m.eval_calls else 0.0,
        "fde_cm": m.fde_cm,
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, log=print) -> tuple[dict, Tally, dict]:
    """Set up and measure one workload; returns (metrics, tally, details).

    ``metrics`` maps each reported name to (value, unit): the end-to-end
    metrics untraced, or the per-layer metrics when ``trace`` is set.
    """
    tally = Tally()
    cfg = replace(forecaster.TrainConfig(), epochs=1, seed=seed)
    model_cfg = forecaster.model_config_from_train(cfg, "full")

    n_worlds = wl.train_worlds + wl.heldout_worlds

    def set_up(i: int) -> SetupWorld:  # world seeds never collide across run seeds
        return build_world(wl, seed * 1000 + i, workdir / f"world{i}.jsonl",
                           model_cfg, tally)

    setups = [set_up(i) for i in range(n_worlds)]
    logs = [s.log for s in setups]
    train_worlds, heldout = logs[:wl.train_worlds], logs[wl.train_worlds:]
    dets = float(np.mean([len(f) for lg in logs for f in lg.frames]))
    lo, hi = wl.dets_band
    tally.check("world.dets_per_frame_band", lo <= dets <= hi,
                detail=f"{dets:.2f} outside [{lo}, {hi}]")
    log(f"{wl.name}: {n_worlds} worlds, {dets:.1f} detections/frame, "
        f"set-up median {statistics.median(s.total_s for s in setups):.3f} s")

    details = {"dets_per_frame": dets, "worlds": n_worlds}
    if not trace:
        m = measure(cfg, model_cfg, train_worlds, heldout, set_up, seconds, tally)
        details.update(_samples(m))
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(setups, m).items()}
        return metrics, tally, details

    # the traced and the untraced half share the run's seconds
    probe = LayerProbe()
    probe.install()
    try:
        traced = measure(cfg, model_cfg, train_worlds, heldout, set_up,
                         seconds / 2, tally)
    finally:
        left = probe.restore()
    tally.check("trace.restored", not left, detail=", ".join(left))
    untraced = measure(cfg, model_cfg, train_worlds, heldout, set_up,
                       seconds / 2, tally)

    layers, problems = probe.metrics(traced.eval_windows)
    tally.check("trace.reconcile", not problems, detail="; ".join(problems))
    all_setups = setups + traced.setups + untraced.setups
    layers["world.generate_s"] = statistics.median(s.generate_s for s in all_setups)
    layers["world.load_s"] = statistics.median(s.load_s for s in all_setups)
    layers["world.dets_per_frame"] = dets
    slow, fast = windows_per_s(traced), windows_per_s(untraced)
    layers["tracing.overhead_frac"] = fast / slow - 1.0 if slow else 0.0
    details.update(_samples(traced), spans=probe.tracer.num_spans)
    metrics = {k: (layers[k], unit) for k, unit in PER_LAYER.items()}
    return metrics, tally, details


def _samples(m: Measurement) -> dict:
    """Sample counts, and the latency tail that has too few samples to gate."""
    return {"cycles": m.cycles, "set_ups": len(m.setups),
            "train_calls": len(m.train_calls), "infer_samples": len(m.latencies),
            "infer_ms_p90": (float(np.percentile(m.latencies, 90)) * 1e3
                             if m.latencies else None),
            "eval_windows": m.eval_windows}
