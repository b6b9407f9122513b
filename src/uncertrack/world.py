"""Synthetic multi-agent world and its detector-noise channel.

Ground-truth agents move by one of four motion classes (constant velocity,
constant turn, accelerating, stop-and-go).  Positions always satisfy
pos[t+1] = pos[t] + velo[t] * dt, with constant-turn positions taken from the
closed-form arc so the trace is an exact circle.  The noise channel perturbs
every field, drops detections, injects false positives clustered near real
agents (the insufficient-NMS failure mode), and occasionally multiplies the
position noise by 4 for a few frames to mimic transient localization bursts.

Everything is a pure function of (config, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detections import Detection
from .errors import ConfigError, check_fields
from .model import T_OBS, ModelConfig, stride_and_horizon
from .rng import substream

__all__ = ["AgentTrack", "NoiseConfig", "WorldLog", "MOTION_CLASSES",
           "DEFAULT_MOTION_MIX", "FP_ID", "generate_world",
           "constant_turn_positions", "corrupt_to_detections",
           "save_world", "load_world"]

MOTION_CLASSES = ("cv", "ct", "acc", "stopgo")
DEFAULT_MOTION_MIX = {"cv": 0.4, "ct": 0.3, "acc": 0.15, "stopgo": 0.15}
FP_ID = -1  # hidden identity of a false positive

_BURST_POS_FACTOR = 4.0
_BURST_FRAMES = (2, 3, 4)


@dataclass
class AgentTrack:
    agent_id: int
    birth_frame: int
    death_frame: int      # inclusive
    pos: np.ndarray       # (L, 2) m
    velo: np.ndarray      # (L, 2) m/s
    heading: np.ndarray   # (L,) rad
    size: np.ndarray      # (L, 3) m, length/width/height

    @property
    def length(self) -> int:
        return self.death_frame - self.birth_frame + 1

    def alive(self, frame: int) -> bool:
        return self.birth_frame <= frame <= self.death_frame

    def index_at(self, frame: int) -> int:
        if not self.alive(frame):
            raise ConfigError(f"agent {self.agent_id} is not alive at frame {frame}")
        return frame - self.birth_frame


@dataclass(frozen=True)
class NoiseConfig:
    pos_sigma: float = 0.3
    velo_sigma: float = 0.2
    heading_sigma: float = 0.05
    size_sigma: float = 0.1
    miss_rate: float = 0.1
    fp_rate: float = 1.0
    fp_cluster_sigma: float = 2.0
    score_tp_mean: float = 0.8
    score_fp_mean: float = 0.4
    score_sigma: float = 0.1
    burst_prob: float = 0.02

    def __post_init__(self):
        check_fields(self, "a non-negative finite number",
                     ("pos_sigma", "velo_sigma", "heading_sigma", "size_sigma",
                      "fp_cluster_sigma", "score_sigma", "fp_rate"))
        check_fields(self, "in [0, 1]", ("miss_rate", "burst_prob"))
        check_fields(self, "in (0, 1)", ("score_tp_mean", "score_fp_mean"))

    @classmethod
    def zero(cls) -> "NoiseConfig":
        return cls(pos_sigma=0.0, velo_sigma=0.0, heading_sigma=0.0,
                   size_sigma=0.0, miss_rate=0.0, fp_rate=0.0,
                   fp_cluster_sigma=0.0, score_sigma=0.0, burst_prob=0.0)


@dataclass
class WorldLog:
    frame_rate: float
    tracks: list[AgentTrack]
    frames: list[list[Detection]]
    true_ids: list[np.ndarray]  # per frame, per detection; FP_ID marks FPs
    rng_seed: int = 0

    def __post_init__(self):
        if len(self.true_ids) != len(self.frames):
            t = min(len(self.true_ids), len(self.frames))
            raise ConfigError(f"WorldLog holds {len(self.true_ids)} id arrays "
                              f"for {len(self.frames)} frames (first unmatched: "
                              f"frame {t})")
        for t, (dets, ids) in enumerate(zip(self.frames, self.true_ids)):
            if len(ids) != len(dets):
                raise ConfigError(f"WorldLog frame {t}: {len(dets)} detections "
                                  f"but {len(ids)} true ids")

    @property
    def num_frames(self) -> int:
        return len(self.frames)


# ---- trajectory generation ---------------------------------------------------


def _headings_from(velo: np.ndarray, fallback: float) -> np.ndarray:
    heading = np.empty(velo.shape[0])
    prev = fallback
    for i in range(velo.shape[0]):
        if np.hypot(velo[i, 0], velo[i, 1]) > 0.1:
            prev = float(np.arctan2(velo[i, 1], velo[i, 0]))
        heading[i] = prev
    return heading


def _integrate(p0: np.ndarray, velo: np.ndarray, dt: float) -> np.ndarray:
    steps = np.vstack([np.zeros(2), velo * dt])
    return p0 + np.cumsum(steps, axis=0)  # (L+1, 2)


def _speed_profile_stopgo(length: int, s0: float, dt: float,
                          rng: np.random.Generator) -> np.ndarray:
    ramp = max(3, int(round(s0 / (3.0 * dt))))  # ~3 m/s^2 ramp
    speeds = []
    while len(speeds) < length + 1:
        speeds.extend([s0] * int(rng.integers(8, 25)))
        speeds.extend(np.linspace(s0, 0.0, ramp).tolist())
        speeds.extend([0.0] * int(rng.integers(5, 15)))
        speeds.extend(np.linspace(0.0, s0, ramp).tolist())
    return np.array(speeds[: length + 1])


def constant_turn_positions(p0: np.ndarray, direction: np.ndarray, speed: float,
                            omega: float, dt: float, n: int):
    """Closed-form circular arc through p0 with tangent ``direction``.

    Returns (positions (n, 2), center, radius); radius = speed / |omega|.
    """
    radius = speed / abs(omega)
    perp = np.array([-direction[1], direction[0]]) * np.sign(omega)
    center = p0 + radius * perp
    phase0 = float(np.arctan2(p0[1] - center[1], p0[0] - center[0]))
    ang = phase0 + omega * np.arange(n) * dt
    pos = np.stack([center[0] + radius * np.cos(ang),
                    center[1] + radius * np.sin(ang)], axis=1)
    return pos, center, radius


def _make_velocities(cls: str, length: int, speed: float, direction: np.ndarray,
                     dt: float, rng: np.random.Generator) -> np.ndarray:
    """Per-frame velocities for the non-circular motion classes, (L+1, 2)."""
    if cls == "cv":
        return np.tile(speed * direction, (length + 1, 1))
    if cls == "acc":
        accel = float(rng.uniform(0.5, 1.5)) * (1 if rng.random() < 0.5 else -1)
        s = np.clip(speed + accel * np.arange(length + 1) * dt, 0.5, 12.0)
        return s[:, None] * direction
    if cls == "stopgo":
        s = _speed_profile_stopgo(length, speed, dt, rng)
        return s[:, None] * direction
    raise ConfigError(f"unknown motion class '{cls}'")


def generate_world(num_agents: int, num_frames: int, frame_rate: float = 10.0,
                   motion_mix: dict[str, float] | None = None, seed: int = 0,
                   area: float = 60.0) -> list[AgentTrack]:
    """Spawn agents with random life windows long enough to train on: every
    agent lives for at least one window of ``T_OBS`` observed frames plus the
    default model's forecast horizon."""
    if num_agents < 1:
        raise ConfigError("generate_world: num_agents must be >= 1")
    mix = dict(DEFAULT_MOTION_MIX if motion_mix is None else motion_mix)
    unknown = set(mix) - set(MOTION_CLASSES)
    if unknown:
        raise ConfigError(f"unknown motion classes: {sorted(unknown)}")
    weights = np.array([mix.get(c, 0.0) for c in MOTION_CLASSES], dtype=float)
    if weights.sum() <= 0:
        raise ConfigError("motion_mix weights must sum to a positive value")
    weights /= weights.sum()

    min_life = T_OBS + stride_and_horizon(frame_rate, ModelConfig())[1]
    if num_frames < min_life:
        raise ConfigError(f"infeasible window constraints: num_frames "
                          f"{num_frames} < minimum life {min_life}")

    rng = substream(seed, "world-gen")
    dt = 1.0 / frame_rate
    tracks = []
    for agent_id in range(num_agents):
        cls = MOTION_CLASSES[int(rng.choice(len(MOTION_CLASSES), p=weights))]
        length = int(rng.integers(min_life, num_frames + 1))
        birth = int(rng.integers(0, num_frames - length + 1))
        p0 = rng.uniform(-area / 2, area / 2, size=2)
        phi = float(rng.uniform(0.0, 2 * np.pi))
        direction = np.array([np.cos(phi), np.sin(phi)])
        speed = float(rng.uniform(3.0, 8.0))

        if cls == "ct":
            omega = float(rng.uniform(0.15, 0.4)) * (1 if rng.random() < 0.5 else -1)
            pos_ext, _, _ = constant_turn_positions(p0, direction, speed, omega,
                                                    dt, length + 1)
        else:
            velo_ext = _make_velocities(cls, length, speed, direction, dt, rng)
            pos_ext = _integrate(p0, velo_ext[:-1], dt)

        velo = (pos_ext[1:] - pos_ext[:-1]) / dt
        pos = pos_ext[:-1]
        heading = _headings_from(velo, fallback=phi)
        size = np.array([rng.uniform(3.5, 5.5), rng.uniform(1.6, 2.2),
                         rng.uniform(1.4, 2.0)])
        tracks.append(AgentTrack(agent_id=agent_id, birth_frame=birth,
                                 death_frame=birth + length - 1, pos=pos,
                                 velo=velo, heading=heading,
                                 size=np.tile(size, (length, 1))))
    return tracks


# ---- detector noise channel --------------------------------------------------


def _wrap_angle(a):
    return (a + np.pi) % (2 * np.pi) - np.pi


def _burst_masks(tracks, noise, rng) -> dict[int, np.ndarray]:
    masks = {}
    for track in tracks:
        mask = np.zeros(track.length, dtype=bool)
        left = 0
        for i in range(track.length):
            if left == 0 and rng.random() < noise.burst_prob:
                left = int(rng.choice(_BURST_FRAMES))
            if left > 0:
                mask[i] = True
                left -= 1
        masks[track.agent_id] = mask
    return masks


def _detect(rng: np.random.Generator, noise: NoiseConfig, track: AgentTrack,
            i: int, pos_sigma: float, score_mean: float) -> Detection:
    """Perturb the state at row ``i`` of a track into one detection; the
    draws are pos, velo, heading, size, score, in that order."""
    pos = track.pos[i] + rng.normal(0.0, pos_sigma, size=2)
    velo = track.velo[i] + rng.normal(0.0, noise.velo_sigma, size=2)
    dh = rng.normal(0.0, noise.heading_sigma)
    heading = track.heading[i]
    # skip the wrap when unperturbed so zero noise is exactly transparent
    heading = float(_wrap_angle(heading + dh) if dh else heading)
    size = np.maximum(track.size[i] + rng.normal(0.0, noise.size_sigma, size=3),
                      0.2)
    score = float(np.clip(rng.normal(score_mean, noise.score_sigma),
                          1e-4, 1.0 - 1e-4))
    return Detection(pos=(float(pos[0]), float(pos[1])),
                     velo=(float(velo[0]), float(velo[1])),
                     size=tuple(float(s) for s in size), heading=heading,
                     score=score)


def corrupt_to_detections(tracks: list[AgentTrack], noise: NoiseConfig,
                          seed: int = 0, num_frames: int | None = None,
                          frame_rate: float = 10.0) -> WorldLog:
    """Run the ground truth through the detector-noise channel.

    ``frame_rate`` must be the rate the tracks were generated at: a track
    whose positions do not advance by ``velo / frame_rate`` per frame raises
    ``ConfigError`` instead of yielding a world whose strides, horizons and
    targets are all off by the ratio of the two rates.
    """
    for tr in tracks:
        if len(tr.pos) < 2:
            continue
        miss = np.abs(np.diff(tr.pos, axis=0) - tr.velo[:-1] / frame_rate).max()
        if miss > 1e-9:
            raise ConfigError(f"agent {tr.agent_id} does not move at "
                              f"{frame_rate} Hz: its positions miss velo / "
                              f"frame_rate by up to {miss:.3g} m")
    if num_frames is None:
        num_frames = max(t.death_frame for t in tracks) + 1 if tracks else 0
    rng = substream(seed, "world-noise")
    bursts = _burst_masks(tracks, noise, rng)

    frames: list[list[Detection]] = []
    true_ids: list[np.ndarray] = []
    for t in range(num_frames):
        dets: list[Detection] = []
        ids: list[int] = []
        live = [tr for tr in tracks if tr.alive(t)]
        for tr in live:
            i = tr.index_at(t)
            if rng.random() < noise.miss_rate:
                continue
            pos_sigma = noise.pos_sigma * (_BURST_POS_FACTOR
                                           if bursts[tr.agent_id][i] else 1.0)
            dets.append(_detect(rng, noise, tr, i, pos_sigma, noise.score_tp_mean))
            ids.append(tr.agent_id)

        if live and noise.fp_rate > 0:
            for _ in range(int(rng.poisson(noise.fp_rate))):
                host = live[int(rng.integers(len(live)))]
                dets.append(_detect(rng, noise, host, host.index_at(t),
                                    noise.fp_cluster_sigma, noise.score_fp_mean))
                ids.append(FP_ID)

        frames.append(dets)
        true_ids.append(np.array(ids, dtype=int))
    return WorldLog(frame_rate=frame_rate, tracks=tracks, frames=frames,
                    true_ids=true_ids, rng_seed=seed)


# ---- JSONL serialization -----------------------------------------------------


def save_world(log: WorldLog, path) -> None:
    """One JSON object per line: a world header, agent lines, frame lines."""
    path = Path(path)
    with open(path, "w") as f:
        f.write(json.dumps({"type": "world", "frame_rate": log.frame_rate,
                            "rng_seed": log.rng_seed,
                            "num_frames": log.num_frames}) + "\n")
        for tr in log.tracks:
            f.write(json.dumps({
                "type": "agent", "agent_id": tr.agent_id,
                "birth_frame": tr.birth_frame, "death_frame": tr.death_frame,
                "pos": tr.pos.tolist(), "velo": tr.velo.tolist(),
                "heading": tr.heading.tolist(), "size": tr.size.tolist(),
            }) + "\n")
        for t, dets in enumerate(log.frames):
            recs = []
            for d, tid in zip(dets, log.true_ids[t].tolist(), strict=True):
                recs.append({"pos": list(d.pos), "velo": list(d.velo),
                             "size": list(d.size), "heading": d.heading,
                             "score": d.score,
                             "true_id": "FP" if tid == FP_ID else tid})
            f.write(json.dumps({"type": "frame", "frame": t,
                                "detections": recs}) + "\n")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


# NaN and +-Infinity reach the decoder only through parse_constant, so
# rejecting them there costs nothing on well-formed lines
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _integer(value, name: str, where: str) -> int:
    # the num_frames rule: a float, even a whole one, or a bool is refused
    if type(value) is not int:
        raise ConfigError(f"{where}: {name} must be an integer, got {value!r}")
    return value


_REAL = {int, float}  # JSON numbers; a bool or a string is refused


# JSON reads an overflowing number (1e999) as infinity, past parse_constant
def _real(value, name: str, where: str) -> float:
    if type(value) not in _REAL or not math.isfinite(value):
        raise ConfigError(f"{where}: {name} must be a finite real number, "
                          f"got {value!r}")
    return float(value)


def _reals(value, n: int, name: str, where: str) -> tuple:
    if (type(value) is not list or len(value) != n
            or not _REAL.issuperset(map(type, value))
            or not all(map(math.isfinite, value))):
        raise ConfigError(f"{where}: {name} must be {n} finite real numbers, "
                          f"got {value!r}")
    return tuple(value)


def load_world(path) -> WorldLog:
    """Read a world written by :func:`save_world`: exactly one world line,
    with ``frame_rate``, ``rng_seed`` and ``num_frames``, and one line for
    each frame ``0 .. num_frames - 1``.

    A malformed line raises ``ConfigError`` naming ``path:line``: bad JSON,
    a NaN or Infinity literal or a number that overflows to infinity, a
    missing or ill-typed field (a frame, agent id, birth or death frame,
    ``true_id`` or seed that is not an integer, a ``pos`` or ``velo`` that is
    not 2 finite real numbers, a ``size`` not 3, a ``heading``, ``score`` or
    ``frame_rate`` not one), a non-positive frame rate, agent
    arrays whose length is not the agent's life, a negative or repeated
    agent id, a second world line, a frame outside the world or listed
    twice, an integer ``true_id`` of ``FP_ID`` (only ``"FP"`` marks a false
    positive) or one that names no agent.  A missing world or frame line
    raises it naming the path (and the first missing frame).
    """
    path = Path(path)
    header = None  # line number of the world line
    tracks: list[AgentTrack] = []
    agent_ids: set[int] = set()
    # frame -> (line number, detections, true ids)
    frame_lines: dict[int, tuple[int, list[Detection], np.ndarray]] = {}
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_no}"
            try:
                rec = _DECODER.decode(line)
                kind = rec.get("type")
                if kind == "world":
                    if header is not None:
                        raise ConfigError(f"{where}: a second world line (the "
                                          f"first is line {header})")
                    header = line_no
                    frame_rate = _real(rec["frame_rate"], "frame_rate", where)
                    rng_seed = _integer(rec["rng_seed"], "rng_seed", where)
                    num_frames = rec["num_frames"]
                    if frame_rate <= 0:
                        raise ConfigError(f"{where}: frame_rate must be "
                                          f"positive, got {frame_rate}")
                    if type(num_frames) is not int or num_frames < 0:
                        raise ConfigError(f"{where}: num_frames must be a "
                                          f"count, got {num_frames!r}")
                elif kind == "agent":
                    track = AgentTrack(
                        agent_id=_integer(rec["agent_id"], "agent_id", where),
                        birth_frame=_integer(rec["birth_frame"], "birth_frame",
                                             where),
                        death_frame=_integer(rec["death_frame"], "death_frame",
                                             where),
                        pos=np.array(rec["pos"], dtype=float),
                        velo=np.array(rec["velo"], dtype=float),
                        heading=np.array(rec["heading"], dtype=float),
                        size=np.array(rec["size"], dtype=float))
                    if track.agent_id < 0:
                        raise ConfigError(f"{where}: agent_id must not be "
                                          f"negative, got {track.agent_id}")
                    if track.agent_id in agent_ids:
                        raise ConfigError(f"{where}: agent {track.agent_id} "
                                          "is listed twice")
                    agent_ids.add(track.agent_id)
                    n = track.length
                    arrays = (track.pos, track.velo, track.heading, track.size)
                    if ([a.shape for a in arrays] != [(n, 2), (n, 2), (n,), (n, 3)]
                            or not all(np.isfinite(a).all() for a in arrays)):
                        raise ConfigError(
                            f"{where}: agent {track.agent_id}: pos, velo, heading "
                            f"and size must hold its {n} frames, all finite")
                    tracks.append(track)
                elif kind == "frame":
                    t = _integer(rec["frame"], "frame", where)
                    if t in frame_lines:
                        raise ConfigError(f"{where}: frame {t} is listed twice "
                                          f"(first on line {frame_lines[t][0]})")
                    dets, ids = [], []
                    for r in rec["detections"]:
                        dets.append(Detection(
                            pos=_reals(r["pos"], 2, "pos", where),
                            velo=_reals(r["velo"], 2, "velo", where),
                            size=_reals(r["size"], 3, "size", where),
                            heading=_real(r["heading"], "heading", where),
                            score=_real(r["score"], "score", where)))
                        tid = r["true_id"]
                        if tid != "FP" and _integer(tid, "true_id",
                                                    where) == FP_ID:
                            raise ConfigError(f'{where}: true_id {FP_ID} '
                                              'must be written "FP"')
                        ids.append(FP_ID if tid == "FP" else tid)
                    frame_lines[t] = (line_no, dets, np.array(ids, dtype=int))
                else:
                    raise ConfigError(f"{where}: unknown line type {kind!r}")
            except KeyError as e:
                raise ConfigError(f"{where}: missing field {e}") from e
            except (ValueError, TypeError, AttributeError, OverflowError) as e:
                # JSONDecodeError is a ValueError; huge ints overflow float()
                raise ConfigError(f"{where}: bad line ({e})") from e
    if header is None:
        raise ConfigError(f"{path}: no world line")
    agents = agent_ids | {FP_ID}
    for t, (line_no, _, ids) in frame_lines.items():
        if not 0 <= t < num_frames:
            raise ConfigError(f"{path}:{line_no}: frame {t} is outside the "
                              f"world's {num_frames} frames")
        unknown = set(ids.tolist()) - agents
        if unknown:
            raise ConfigError(f"{path}:{line_no}: true_id {min(unknown)} "
                              "names no agent")
    if len(frame_lines) < num_frames:
        missing = min(set(range(num_frames)) - frame_lines.keys())
        raise ConfigError(f"{path}: frame {missing} of {num_frames} has no "
                          "line")
    per_frame = [frame_lines[t] for t in range(num_frames)]
    return WorldLog(frame_rate=frame_rate, tracks=tracks,
                    frames=[dets for _, dets, _ in per_frame],
                    true_ids=[ids for _, _, ids in per_frame], rng_seed=rng_seed)
