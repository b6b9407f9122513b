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
from itertools import chain, compress, count
from pathlib import Path

import numpy as np

from .detections import FrameArrays
from .errors import ConfigError, check_fields, check_value
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
    """A world's ground truth and its detector output.

    ``frames[t]`` holds frame ``t``'s detections as columns, built once where
    the detections enter the program (:func:`corrupt_to_detections`,
    :func:`load_world`) with read-only arrays, since every window cut from
    the world shares them; iterate a frame for its :class:`Detection` rows.
    ``true_ids[t]`` holds each detection's hidden identity.
    """

    frame_rate: float
    tracks: list[AgentTrack]
    frames: list[FrameArrays]
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
    """Direction of each velocity row, held from the last row that moves
    faster than 0.1 m/s; ``fallback`` before the first such row."""
    moving = np.hypot(velo[:, 0], velo[:, 1]) > 0.1
    last = np.maximum.accumulate(np.where(moving, np.arange(len(velo)), -1))
    angles = np.arctan2(velo[:, 1], velo[:, 0])
    return np.where(last >= 0, angles[last], fallback)


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


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2 * math.pi) - math.pi


def _burst_masks(tracks, noise, rng) -> dict[int, list[bool]]:
    masks = {}
    for track in tracks:
        mask = [False] * track.length
        left = 0
        for i in range(track.length):
            if left == 0 and rng.random() < noise.burst_prob:
                left = int(rng.choice(_BURST_FRAMES))
            if left > 0:
                mask[i] = True
                left -= 1
        masks[track.agent_id] = mask
    return masks


def _detect(rng: np.random.Generator, noise: NoiseConfig, rows: tuple, i: int,
            pos_sigma: float, score_mean: float) -> tuple[float, ...]:
    """Perturb row ``i`` of a track into one detection's nine values: pos
    (2), velo (2), size (3), heading, score.  The draws are pos, velo,
    heading, size, score, in that order.  ``rows`` holds the track's
    ``pos``, ``velo``, ``heading`` and ``size`` as flat lists of Python
    floats.

    ``Generator.normal(loc, scale)`` returns ``loc + scale * z`` for the
    generator's next standard normal ``z`` and draws nothing else, so the one
    ``standard_normal(9)`` draw here, scaled in Python floats, leaves the
    stream and every value exactly as five ``normal`` calls would.  The
    ``0.0 +`` stays on the zero-mean draws because it turns a -0.0 product
    into 0.0, as ``normal`` does.
    """
    pos, velo, headings, size = rows
    px, py = pos[2 * i], pos[2 * i + 1]
    vx, vy = velo[2 * i], velo[2 * i + 1]
    sl, sw, sh = size[3 * i], size[3 * i + 1], size[3 * i + 2]
    heading = headings[i]
    z0, z1, z2, z3, z4, z5, z6, z7, z8 = rng.standard_normal(9).tolist()
    dh = 0.0 + noise.heading_sigma * z4
    # skip the wrap when unperturbed so zero noise is exactly transparent
    if dh:
        heading = _wrap_angle(heading + dh)
    vs, ss = noise.velo_sigma, noise.size_sigma
    score = score_mean + noise.score_sigma * z8
    return (px + (0.0 + pos_sigma * z0), py + (0.0 + pos_sigma * z1),
            vx + (0.0 + vs * z2), vy + (0.0 + vs * z3),
            max(sl + (0.0 + ss * z5), 0.2), max(sw + (0.0 + ss * z6), 0.2),
            max(sh + (0.0 + ss * z7), 0.2),
            heading, min(max(score, 1e-4), 1.0 - 1e-4))


def _read_only(frame: FrameArrays) -> FrameArrays:
    """``frame`` with its columns made read-only, as a world stores it: the
    windows cut from the world share them."""
    for column in (frame.pos, frame.velo, frame.size, frame.heading,
                   frame.score):
        column.flags.writeable = False
    return frame


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
    # each track's arrays as flat lists of Python floats, converted once; flat,
    # so they add no container per row for the garbage collector to walk
    agents = [(tr.agent_id, tr.birth_frame,
               (tr.pos.ravel().tolist(), tr.velo.ravel().tolist(),
                tr.heading.tolist(), tr.size.ravel().tolist()),
               bursts[tr.agent_id]) for tr in tracks]
    births = np.array([tr.birth_frame for tr in tracks], dtype=np.int64)
    deaths = np.array([tr.death_frame for tr in tracks], dtype=np.int64)
    frame_no = np.arange(num_frames)[:, None]
    alive = ((births <= frame_no) & (frame_no <= deaths)).tolist()

    values: list[float] = []  # the world's detections, nine values each
    counts: list[int] = []
    true_ids: list[np.ndarray] = []
    for t in range(num_frames):
        ids: list[int] = []
        live = list(compress(agents, alive[t]))
        for agent_id, birth, track_rows, burst in live:
            i = t - birth
            if rng.random() < noise.miss_rate:
                continue
            pos_sigma = noise.pos_sigma * (_BURST_POS_FACTOR if burst[i]
                                           else 1.0)
            values += _detect(rng, noise, track_rows, i, pos_sigma,
                              noise.score_tp_mean)
            ids.append(agent_id)

        if live and noise.fp_rate > 0:
            for _ in range(int(rng.poisson(noise.fp_rate))):
                _, birth, track_rows, _ = live[int(rng.integers(len(live)))]
                values += _detect(rng, noise, track_rows, t - birth,
                                  noise.fp_cluster_sigma, noise.score_fp_mean)
                ids.append(FP_ID)

        counts.append(len(ids))
        true_ids.append(np.array(ids, dtype=int))

    # one contiguous array per field for the whole world; each frame's
    # columns are slices of them
    table = np.array(values, dtype=float).reshape(-1, 9)
    columns = (table[:, 0:2].copy(), table[:, 2:4].copy(),
               table[:, 4:7].copy(), table[:, 7].copy(), table[:, 8].copy())
    ends = np.cumsum(counts).tolist()
    frames = [_read_only(FrameArrays(*(c[end - n:end] for c in columns)))
              for n, end in zip(counts, ends)]
    return WorldLog(frame_rate=frame_rate, tracks=tracks, frames=frames,
                    true_ids=true_ids, rng_seed=seed)


# ---- JSONL serialization -----------------------------------------------------


# json.dumps's settings without its cycle check: every record written is
# made of fresh lists and dicts, so it holds no cycle to find
_ENCODER = json.JSONEncoder(check_circular=False)


def save_world(log: WorldLog, path) -> None:
    """One JSON object per line: a world header, agent lines, frame lines."""
    path = Path(path)
    encode = _ENCODER.encode
    with open(path, "w") as f:
        f.write(encode({"type": "world", "frame_rate": log.frame_rate,
                        "rng_seed": log.rng_seed,
                        "num_frames": log.num_frames}) + "\n")
        for tr in log.tracks:
            f.write(encode({
                "type": "agent", "agent_id": tr.agent_id,
                "birth_frame": tr.birth_frame, "death_frame": tr.death_frame,
                "pos": tr.pos.tolist(), "velo": tr.velo.tolist(),
                "heading": tr.heading.tolist(), "size": tr.size.tolist(),
            }) + "\n")
        for t, (frame, ids) in enumerate(zip(log.frames, log.true_ids)):
            recs = [{"pos": p, "velo": v, "size": s, "heading": h, "score": c,
                     "true_id": "FP" if tid == FP_ID else tid}
                    for p, v, s, h, c, tid in zip(
                        frame.pos.tolist(), frame.velo.tolist(),
                        frame.size.tolist(), frame.heading.tolist(),
                        frame.score.tolist(), ids.tolist(), strict=True)]
            f.write(encode({"type": "frame", "frame": t,
                            "detections": recs}) + "\n")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


# NaN and +-Infinity reach the decoder only through parse_constant, so
# rejecting them there costs nothing on well-formed lines
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


_REAL = {int, float}  # JSON numbers; a bool or a string is refused


def _real_rows(rows, name: str, where: str) -> np.ndarray:
    # one type scan per array, not one check per number: the agents of a
    # dense world hold ~80k numbers
    if not _REAL.issuperset(map(type, chain.from_iterable(rows))):
        raise ConfigError(f"{where}: agent {name} must hold only real "
                          "numbers (no strings, booleans or nulls)")
    return np.array(rows, dtype=float)


def _scan_detections(recs) -> tuple[FrameArrays, np.ndarray] | None:
    """A frame line's detections and true ids after one type scan and one
    ``isfinite`` over all its numbers, or None if anything in it is off.
    The columns are slices of the one array that ``isfinite`` checks."""
    try:
        pos, velo, size, heading, score, tids = (
            [r[k] for r in recs]
            for k in ("pos", "velo", "size", "heading", "score", "true_id"))
    except (KeyError, TypeError):
        return None
    if not (all(set(map(type, col)) <= {list} and set(map(len, col)) <= {n}
                for col, n in ((pos, 2), (velo, 2), (size, 3)))
            and all(t == "FP" or (type(t) is int and t != FP_ID)
                    for t in tids)):
        return None
    numbers = [*chain.from_iterable(pos), *chain.from_iterable(velo),
               *chain.from_iterable(size), *heading, *score]
    if not _REAL.issuperset(map(type, numbers)):
        return None
    try:
        values = np.array(numbers, dtype=float)
        ids = np.array([FP_ID if t == "FP" else t for t in tids], dtype=int)
    except OverflowError:  # an integer beyond float or int64 range
        return None
    if not np.isfinite(values).all():
        return None
    n = len(pos)
    frame = FrameArrays(pos=values[:2 * n].reshape(n, 2),
                        velo=values[2 * n:4 * n].reshape(n, 2),
                        size=values[4 * n:7 * n].reshape(n, 3),
                        heading=values[7 * n:8 * n], score=values[8 * n:])
    return _read_only(frame), ids


def _frame_detections(recs, where: str) -> tuple[FrameArrays, np.ndarray]:
    """A frame line's detections and true ids, as :func:`_scan_detections`
    reads them.  When the scan refuses the line, every field is checked in
    line order, so the refusal names the first bad field."""
    scanned = _scan_detections(recs)
    if scanned is not None:
        return scanned
    for r in recs:
        for name, n in (("pos", 2), ("velo", 2), ("size", 3)):
            if type(r[name]) is not list or len(r[name]) != n:
                raise ConfigError(f"{where}: {name} must be {n} finite real "
                                  f"numbers, got {r[name]!r}")
            for x in r[name]:
                check_value(f"{where}: {name}", "a finite real number", x)
        for name in ("heading", "score"):
            check_value(f"{where}: {name}", "a finite real number", r[name])
        tid = r["true_id"]
        if (tid != "FP" and check_value(f"{where}: true_id",
                                        "a 64-bit integer", tid) == FP_ID):
            raise ConfigError(f'{where}: true_id {FP_ID} must be written "FP"')
    # the walk refuses every line the scan refuses
    raise ConfigError(f"{where}: malformed detections")


def load_world(path) -> WorldLog:
    """Read a world written by :func:`save_world`: exactly one world line,
    with ``frame_rate``, ``rng_seed`` and ``num_frames``, and one line for
    each frame ``0 .. num_frames - 1``.

    A malformed line raises ``ConfigError`` naming ``path:line``: bad JSON,
    a NaN or Infinity literal or a number that overflows to infinity, a
    missing or ill-typed field (a frame, agent id, birth or death frame,
    ``true_id`` or seed that is not an integer, an agent id, birth or death
    frame or ``true_id`` beyond 64 bits, a ``pos`` or ``velo`` that is
    not 2 finite real numbers, a ``size`` not 3, a ``heading``, ``score`` or
    ``frame_rate`` not one), a non-positive frame rate, agent ``pos``,
    ``velo``, ``heading`` or ``size`` arrays that hold anything but JSON
    numbers (a string or a boolean, say) or whose length is not the agent's
    life, a negative or repeated agent id, a second world line, a frame
    outside the world or listed twice, an integer ``true_id`` of ``FP_ID``
    (only ``"FP"`` marks a false positive) or one that names no agent.  A
    missing world or frame line raises it naming the path (and the first
    missing frame).
    """
    path = Path(path)
    header = None  # line number of the world line
    tracks: list[AgentTrack] = []
    agent_ids: set[int] = set()
    # frame -> (line number, detections, true ids)
    frame_lines: dict[int, tuple[int, FrameArrays, np.ndarray]] = {}
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
                    # a float, so that a rate written as 10 saves as 10.0
                    frame_rate = float(check_value(
                        f"{where}: frame_rate", "a positive finite number",
                        rec["frame_rate"]))
                    rng_seed = check_value(f"{where}: rng_seed", "an integer",
                                           rec["rng_seed"])
                    num_frames = check_value(f"{where}: num_frames",
                                             "a non-negative integer",
                                             rec["num_frames"])
                elif kind == "agent":
                    agent_id, birth_frame, death_frame = (
                        check_value(f"{where}: {name}", "a 64-bit integer",
                                    rec[name])
                        for name in ("agent_id", "birth_frame", "death_frame"))
                    track = AgentTrack(
                        agent_id=agent_id, birth_frame=birth_frame,
                        death_frame=death_frame,
                        pos=_real_rows(rec["pos"], "pos", where),
                        velo=_real_rows(rec["velo"], "velo", where),
                        # scanned as the one row of a 2-D list
                        heading=_real_rows([rec["heading"]], "heading",
                                           where)[0],
                        size=_real_rows(rec["size"], "size", where))
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
                    t = check_value(f"{where}: frame", "an integer",
                                    rec["frame"])
                    if t in frame_lines:
                        raise ConfigError(f"{where}: frame {t} is listed twice "
                                          f"(first on line {frame_lines[t][0]})")
                    frame_lines[t] = (line_no, *_frame_detections(
                        rec["detections"], where))
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
        missing = next(t for t in count() if t not in frame_lines)
        raise ConfigError(f"{path}: frame {missing} of {num_frames} has no "
                          "line")
    per_frame = [frame_lines[t] for t in range(num_frames)]
    return WorldLog(frame_rate=frame_rate, tracks=tracks,
                    frames=[frame for _, frame, _ in per_frame],
                    true_ids=[ids for _, _, ids in per_frame], rng_seed=rng_seed)
