"""Ground-truth generation, the noise channel, labels, and JSONL round trips."""

import json
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uncertrack.encoder import encode_sequence
from uncertrack.errors import ConfigError
from uncertrack.evaluation import evaluate_model
from uncertrack.forecaster import build_sample, pair_labels
from uncertrack.model import ModelConfig, init_model, stride_and_horizon
from uncertrack.numerics import Tape
from uncertrack.rng import substream
from uncertrack.world import (DEFAULT_MOTION_MIX, FP_ID, AgentTrack,
                              NoiseConfig, _frame_detections, _headings_from,
                              _scan_detections, constant_turn_positions,
                              corrupt_to_detections, generate_world,
                              load_world, save_world)

from oracles import (circle_positions, gate_brute_force, headings_loop,
                     linear_fit_residual, noise_channel_direct)


def _pos_at(track: AgentTrack, frame: int) -> np.ndarray:
    # a frame before birth would wrap to a row from the end
    assert track.birth_frame <= frame <= track.death_frame
    return track.pos[frame - track.birth_frame]


def _future_waypoints(track: AgentTrack, frame: int, stride: int = 5, steps: int = 6):
    idx = [frame + stride * (i + 1) for i in range(steps)]
    if idx[-1] > track.death_frame:
        return None
    return np.array([_pos_at(track, i) for i in idx])


def test_same_seed_bitwise_identical():
    a = generate_world(6, 120, seed=42)
    b = generate_world(6, 120, seed=42)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.pos, tb.pos)
        assert np.array_equal(ta.velo, tb.velo)
        assert (ta.birth_frame, ta.death_frame) == (tb.birth_frame, tb.death_frame)


def test_integration_invariant_and_heading():
    dt = 0.1
    for seed in range(4):
        tracks = generate_world(8, 150, seed=seed)
        for tr in tracks:
            stepped = tr.pos[:-1] + tr.velo[:-1] * dt
            assert np.max(np.abs(stepped - tr.pos[1:])) < 1e-9
            speeds = np.hypot(tr.velo[:, 0], tr.velo[:, 1])
            moving = speeds > 0.1
            want = np.arctan2(tr.velo[moving, 1], tr.velo[moving, 0])
            assert np.allclose(tr.heading[moving], want, atol=1e-12)


def test_life_windows_are_long_enough():
    tracks = generate_world(20, 200, seed=3)
    for tr in tracks:
        assert tr.length >= 50
        assert 0 <= tr.birth_frame <= tr.death_frame <= 199


def test_constant_velocity_future_is_linear():
    tracks = generate_world(10, 120, motion_mix={"cv": 1.0}, seed=7)
    for tr in tracks:
        fut = _future_waypoints(tr, tr.birth_frame + 20)
        if fut is None:
            continue
        assert linear_fit_residual(fut) < 1e-18


def test_constant_turn_traces_exact_circle():
    p0 = np.array([25.0, 0.0])
    direction = np.array([0.0, 1.0])
    pos, center, radius = constant_turn_positions(p0, direction, speed=5.0,
                                                  omega=0.2, dt=0.1, n=200)
    assert abs(radius - 25.0) < 1e-12
    dist = np.hypot(pos[:, 0] - center[0], pos[:, 1] - center[1])
    assert np.max(np.abs(dist - radius)) < 1e-6
    phase0 = np.arctan2(p0[1] - center[1], p0[0] - center[0])
    want = circle_positions(center, radius, phase0, 0.2, 0.1, 200)
    assert np.max(np.abs(pos - want)) < 1e-6


def test_nonlinear_classes_exceed_residual_threshold():
    tracks = generate_world(40, 200, motion_mix=DEFAULT_MOTION_MIX, seed=11)
    residuals = []
    for tr in tracks:
        fut = _future_waypoints(tr, tr.birth_frame + 20)
        if fut is not None:
            residuals.append(linear_fit_residual(fut))
    frac = np.mean([r > 0.1 for r in residuals])
    assert frac >= 0.3


def test_generate_world_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        generate_world(0, 100)
    with pytest.raises(ConfigError):
        generate_world(3, 30)  # shorter than the minimal life window
    with pytest.raises(ConfigError):
        generate_world(3, 100, motion_mix={"warp": 1.0})


@pytest.mark.parametrize("name, value", [
    ("pos_sigma", float("nan")), ("fp_rate", -1.0), ("miss_rate", 1.5),
    ("score_fp_mean", 0.0), ("burst_prob", float("nan")),
    ("score_tp_mean", True)])
def test_noise_config_rejects_out_of_range(name, value):
    # a NaN sigma would turn every detection's position into NaN
    with pytest.raises(ConfigError, match=rf"NoiseConfig\.{name} must be"):
        replace(NoiseConfig(), **{name: value})
    with pytest.raises(FrozenInstanceError):  # nor set past the check
        setattr(NoiseConfig(), name, value)


@pytest.mark.parametrize("frame_rate", [5.0, 15.0])
def test_forecast_step_of_a_fraction_of_frames_is_refused(frame_rate):
    # 0.5 s is 2.5 or 7.5 frames here: rounding would score "fde@3s" at
    # 2.4 s, or leave a world without a single window
    message = f"0.5 s at {frame_rate} Hz"
    with pytest.raises(ConfigError, match=message):
        generate_world(3, 200, frame_rate=frame_rate)
    # such a world can only come from elsewhere, e.g. a file: relabel one
    log = replace(corrupt_to_detections(generate_world(3, 100, seed=1),
                                        NoiseConfig(), seed=1),
                  frame_rate=frame_rate)
    with pytest.raises(ConfigError, match=message):
        build_sample(log, 0, 20, ModelConfig())
    with pytest.raises(ConfigError, match=message):
        evaluate_model(init_model(ModelConfig(), 0), [log])


@pytest.mark.parametrize("frame_rate, stride", [(2.0, 1), (10.0, 5), (20.0, 10)])
def test_whole_frame_steps_set_the_minimum_life(frame_rate, stride):
    # one window: 20 observed frames plus 6 forecast steps
    assert stride_and_horizon(frame_rate, ModelConfig()) == (stride, 6 * stride)
    with pytest.raises(ConfigError, match="minimum life"):
        generate_world(3, 19 + 6 * stride, frame_rate=frame_rate)
    tracks = generate_world(3, 20 + 6 * stride, frame_rate=frame_rate)
    assert all(tr.length == 20 + 6 * stride for tr in tracks)


def test_zero_noise_is_transparent():
    tracks = generate_world(5, 100, seed=1)
    log = corrupt_to_detections(tracks, NoiseConfig.zero(), seed=2)
    assert log.num_frames == 100
    for t, (dets, ids) in enumerate(zip(log.frames, log.true_ids)):
        live = [tr for tr in log.tracks
                if tr.birth_frame <= t <= tr.death_frame]
        assert len(dets) == len(live)
        assert not np.any(ids == FP_ID)
        for d, tid in zip(dets, ids):
            tr = next(a for a in live if a.agent_id == tid)
            i = t - tr.birth_frame
            assert np.array_equal(np.array(d.pos), tr.pos[i])
            assert np.array_equal(np.array(d.velo), tr.velo[i])
            assert d.heading == tr.heading[i]


def test_zero_heading_noise_copies_false_positive_headings():
    # like a true positive's, a false positive's heading skips the wrap when
    # its draw is exactly zero, so it is its host's heading bit for bit
    tracks = generate_world(24, 120, seed=10)
    log = corrupt_to_detections(tracks, NoiseConfig(heading_sigma=0.0), seed=10)
    fp = [d.heading for dets, ids in zip(log.frames, log.true_ids)
          for d, tid in zip(dets, ids) if tid == FP_ID]
    assert fp and set(fp) <= {h for tr in tracks for h in tr.heading.tolist()}


def test_full_miss_rate_empties_every_frame():
    tracks = generate_world(5, 100, seed=1)
    log = corrupt_to_detections(tracks, NoiseConfig(miss_rate=1.0, fp_rate=0.0),
                                seed=2)
    assert all(len(f) == 0 for f in log.frames)


def test_position_noise_matches_configured_sigma():
    noise = NoiseConfig(pos_sigma=0.3, velo_sigma=0.0, heading_sigma=0.0,
                        size_sigma=0.0, miss_rate=0.0, fp_rate=0.0,
                        burst_prob=0.0, score_sigma=0.0)
    errors = []
    for seed in range(20):
        tracks = generate_world(10, 100, seed=seed)
        log = corrupt_to_detections(tracks, noise, seed=1000 + seed)
        for t, (dets, ids) in enumerate(zip(log.frames, log.true_ids)):
            for d, tid in zip(dets, ids):
                tr = next(a for a in log.tracks if a.agent_id == tid)
                errors.append(np.array(d.pos) - _pos_at(tr, t))
    std = np.asarray(errors).std(axis=0)
    assert np.all(std > 0.27) and np.all(std < 0.33)


def test_corruption_is_deterministic():
    tracks = generate_world(6, 100, seed=5)
    a = corrupt_to_detections(tracks, NoiseConfig(), seed=9)
    b = corrupt_to_detections(tracks, NoiseConfig(), seed=9)
    for fa, fb in zip(a.frames, b.frames):
        assert len(fa) == len(fb)
        for da, db in zip(fa, fb):
            assert da.pos == db.pos and da.velo == db.velo
            assert da.score == db.score


_CHANNELS = {
    "default": NoiseConfig(),
    "zero": NoiseConfig.zero(),
    "bursty": NoiseConfig(burst_prob=0.4),
    "fp_rate 3.5": NoiseConfig(fp_rate=3.5),
}


@pytest.mark.parametrize("agents", [3, 100])
@pytest.mark.parametrize("channel", sorted(_CHANNELS))
def test_noise_channel_matches_one_normal_call_per_field(channel, agents):
    # the oracle draws pos, velo, heading, size and score with five
    # rng.normal calls; compared through repr, so a -0.0 counts too.  The
    # parked agent sits at -0.0 and is small enough for sizes to clip at 0.2
    noise = _CHANNELS[channel]
    parked = AgentTrack(agent_id=agents, birth_frame=0, death_frame=79,
                        pos=np.full((80, 2), -0.0), velo=np.full((80, 2), -0.0),
                        heading=np.full(80, -0.0),
                        size=np.tile([0.3, 0.2, 0.25], (80, 1)))
    tracks = generate_world(agents, 80, seed=agents) + [parked]
    log = corrupt_to_detections(tracks, noise, seed=7)
    ref = noise_channel_direct(tracks, noise, substream(7, "world-noise"),
                               log.num_frames)
    for dets, ids, want in zip(log.frames, log.true_ids, ref, strict=True):
        got = [(repr((d.pos, d.velo, d.size, d.heading, d.score)), tid)
               for d, tid in zip(dets, ids.tolist())]
        assert got == [(repr(fields), tid) for fields, tid in want]


def test_headings_match_the_row_loop():
    # generated velocities, and the same with the first rows stopped, which
    # holds the fallback; a speed of exactly 0.1 m/s does not count as moving
    edge = np.array([[0.1, 0.0], [-0.0, -0.1], [0.0, 0.0], [0.0, -0.2],
                     [0.06, 0.08], [-3.0, -0.0]])
    velos = [edge]
    for tr in generate_world(100, 80, seed=3):
        stopped = tr.velo.copy()
        stopped[:12] = 0.0
        velos += [tr.velo, stopped]
    for velo in velos:
        assert (_headings_from(velo, 1.25).tobytes()
                == headings_loop(velo, 1.25).tobytes())


def test_bursts_inflate_position_noise():
    base = NoiseConfig(pos_sigma=0.3, miss_rate=0.0, fp_rate=0.0,
                       burst_prob=0.0, velo_sigma=0.0, heading_sigma=0.0,
                       size_sigma=0.0, score_sigma=0.0)
    bursty = NoiseConfig(pos_sigma=0.3, miss_rate=0.0, fp_rate=0.0,
                         burst_prob=0.3, velo_sigma=0.0, heading_sigma=0.0,
                         size_sigma=0.0, score_sigma=0.0)

    def spread(noise):
        errs = []
        for seed in range(5):
            tracks = generate_world(8, 100, seed=seed)
            log = corrupt_to_detections(tracks, noise, seed=seed)
            for t, (dets, ids) in enumerate(zip(log.frames, log.true_ids)):
                for d, tid in zip(dets, ids):
                    tr = next(a for a in log.tracks if a.agent_id == tid)
                    errs.append(np.array(d.pos) - _pos_at(tr, t))
        return np.asarray(errs).std()

    assert spread(bursty) > 1.5 * spread(base)


def _affinity_labels(log, t):
    """Gated pairs of frames t-1 and t (the default gate,
    ``ModelConfig().theta_d``) and their same-identity labels, as training
    computes them."""
    frames = log.frames[t - 1:t + 1]
    enc = encode_sequence(Tape(), init_model(ModelConfig(), seed=0), frames)
    ids = np.concatenate([log.true_ids[t - 1], log.true_ids[t]])
    # stacked current rows follow the previous frame's rows
    return enc.pairs - [0, enc.offsets[1]], pair_labels(enc.pairs, ids)


def test_single_agent_label():
    tracks = generate_world(1, 60, motion_mix={"cv": 1.0}, seed=2)
    log = corrupt_to_detections(tracks, NoiseConfig.zero(), seed=0)
    t = tracks[0].birth_frame + 1
    pairs, labels = _affinity_labels(log, t)
    assert len(pairs) == 1 and labels[0] == 1.0


def test_fp_pairs_are_negative():
    tracks = generate_world(1, 60, seed=3)
    noise = NoiseConfig(pos_sigma=0.0, miss_rate=0.0, fp_rate=3.0,
                        fp_cluster_sigma=1.0, burst_prob=0.0)
    log = corrupt_to_detections(tracks, noise, seed=4)
    t = tracks[0].birth_frame + 1
    pairs, labels = _affinity_labels(log, t)
    ids_curr = log.true_ids[t]
    for (m, n), lab in zip(pairs, labels):
        if ids_curr[n] == FP_ID:
            assert lab == 0.0


def test_labels_match_brute_force():
    tracks = generate_world(5, 100, seed=6)
    noise = NoiseConfig(pos_sigma=0.3, miss_rate=0.0, fp_rate=2.0,
                        burst_prob=0.0)
    log = corrupt_to_detections(tracks, noise, seed=7)
    for t in range(40, 45):
        pairs, labels = _affinity_labels(log, t)
        prev_pos = [d.pos for d in log.frames[t - 1]]
        curr_pos = [d.pos for d in log.frames[t]]
        want_pairs = gate_brute_force(prev_pos, curr_pos, 10.0)
        assert [tuple(p) for p in pairs] == want_pairs
        ids_p, ids_c = log.true_ids[t - 1], log.true_ids[t]
        for (m, n), lab in zip(pairs, labels):
            want = ids_p[m] != FP_ID and ids_p[m] == ids_c[n]
            assert lab == float(want)


def test_zero_noise_nearest_is_self():
    tracks = generate_world(12, 120, seed=8)
    log = corrupt_to_detections(tracks, NoiseConfig.zero(), seed=0)
    for t in range(1, 60):
        prev, curr = log.frames[t - 1], log.frames[t]
        for n, d in enumerate(curr):
            if not prev:
                continue
            dists = [np.hypot(d.pos[0] - p.pos[0], d.pos[1] - p.pos[1])
                     for p in prev]
            m = int(np.argmin(dists))
            if log.true_ids[t][n] in log.true_ids[t - 1]:
                assert log.true_ids[t - 1][m] == log.true_ids[t][n]


def _columns(frame):
    return frame.pos, frame.velo, frame.size, frame.heading, frame.score


def test_jsonl_round_trip(tmp_path):
    # also at ~17 and ~70 detections per frame (24 and 100 agents): both
    # worlds store their columns read-only, the loaded ones equal the
    # generated ones bit for bit, and saving the loaded world rewrites the
    # file byte for byte
    for agents, frames in ((4, 80), (24, 120), (100, 120)):
        tracks = generate_world(agents, frames, seed=9)
        log = corrupt_to_detections(tracks, NoiseConfig(), seed=10)
        path = tmp_path / f"world{agents}.jsonl"
        save_world(log, path)
        back = load_world(path)
        assert back.frame_rate == log.frame_rate
        assert back.rng_seed == log.rng_seed
        assert back.num_frames == log.num_frames
        for ta, tb in zip(log.tracks, back.tracks):
            assert np.array_equal(ta.pos, tb.pos)
            assert np.array_equal(ta.velo, tb.velo)
            assert np.array_equal(ta.heading, tb.heading)
        for fa, fb, ia, ib in zip(log.frames, back.frames, log.true_ids,
                                  back.true_ids, strict=True):
            assert np.array_equal(ia, ib)
            for ca, cb in zip(_columns(fa), _columns(fb)):
                assert ca.shape == cb.shape
                assert ca.dtype == cb.dtype == np.float64
                assert ca.tobytes() == cb.tobytes()
                assert not ca.flags.writeable and not cb.flags.writeable

        second = tmp_path / f"again{agents}.jsonl"
        save_world(back, second)
        assert path.read_bytes() == second.read_bytes()


def _saved_lines(tmp_path, agents=3, frames=60, num_frames=None):
    log = corrupt_to_detections(generate_world(agents, frames, seed=11),
                                NoiseConfig(), seed=12, num_frames=num_frames)
    path = tmp_path / "world.jsonl"
    save_world(log, path)
    return path, path.read_text().splitlines()


def _edit_line(lines, kind, edit):
    """Apply ``edit`` to the first record of ``kind`` (the last one for
    ``"last <kind>"``); returns its line number."""
    order = range(len(lines))
    if kind.startswith("last "):
        kind, order = kind[5:], reversed(order)
    for i in order:
        rec = json.loads(lines[i])
        if rec["type"] == kind and (kind != "frame" or rec["detections"]):
            edit(rec)
            lines[i] = json.dumps(rec)
            return i + 1
    raise AssertionError(f"no {kind} line")


# written unquoted, so that JSON reads it as a float that overflows to infinity
_OVERFLOW = "1e999"


@pytest.mark.parametrize("kind,edit", [
    ("world", lambda r: r.pop("frame_rate")),
    ("frame", lambda r: r.pop("frame")),
    ("frame", lambda r: r["detections"][0].pop("score")),
    ("agent", lambda r: r.pop("pos")),
    ("world", lambda r: r.update(frame_rate=float("nan"))),
    ("frame", lambda r: r["detections"][0]["pos"].__setitem__(0, float("nan"))),
    ("agent", lambda r: r["heading"].__setitem__(0, float("inf"))),
    ("world", lambda r: r.update(num_frames=60.5)),
    ("frame", lambda r: r.update(frame=60)),  # past the last of 54 frames
    ("world", lambda r: r.update(frame_rate=0.0)),
    ("agent", lambda r: r["velo"].pop()),
    ("frame", lambda r: r["detections"][0].update(true_id=999)),
    ("frame", lambda r: r.update(frame=r["frame"] + 0.7)),
    ("frame", lambda r: r.update(frame=float(r["frame"]))),
    ("frame", lambda r: r["detections"][0].update(true_id=1.5)),
    ("agent", lambda r: r.update(agent_id=r["agent_id"] + 0.5)),
    ("agent", lambda r: r.update(birth_frame=r["birth_frame"] + 0.5)),
    ("agent", lambda r: r.update(death_frame=float(r["death_frame"]))),
    ("world", lambda r: r.update(rng_seed=12.5)),
    ("agent", lambda r: r.update(agent_id=-1)),  # FP_ID names no agent
    ("last agent", lambda r: r.update(agent_id=0)),  # agent 0 twice
    ("frame", lambda r: r["detections"][0].update(true_id=-1)),  # not "FP"
    ("frame", lambda r: r["detections"][0].pop("true_id")),  # not "FP" either
    ("world", lambda r: r.pop("rng_seed")),
    ("world", lambda r: r.pop("num_frames")),
    ("last frame", lambda r: r.update(frame=r["frame"] - 1)),  # listed twice
    ("frame", lambda r: r["detections"][0]["pos"].append(0.0)),
    ("frame", lambda r: r["detections"][0]["velo"].pop()),
    ("frame", lambda r: r["detections"][0]["size"].pop()),
    ("frame", lambda r: r["detections"][0].update(pos=["1", "2"])),
    ("frame", lambda r: r["detections"][0].update(size=[4.0, 2.0, True])),
    ("frame", lambda r: r["detections"][0].update(score="0.5")),
    ("frame", lambda r: r["detections"][0].update(heading=False)),
    ("agent", lambda r: (r.clear(), r.update(  # a second world line
        type="world", frame_rate=10.0, rng_seed=0, num_frames=54))),
    ("frame", lambda r: r["detections"][0]["pos"].__setitem__(1, _OVERFLOW)),
    ("frame", lambda r: r["detections"][0].update(score=_OVERFLOW)),
    ("agent", lambda r: r["pos"][3].__setitem__(0, _OVERFLOW)),
    ("agent", lambda r: r["velo"][0].__setitem__(1, 10 ** 400)),
    ("world", lambda r: r.update(frame_rate=_OVERFLOW)),
    ("agent", lambda r: r["pos"].__setitem__(0, ["20.27", "14.02"])),
    ("agent", lambda r: r["heading"].__setitem__(2, "0.25")),
    ("agent", lambda r: r["size"].__setitem__(1, [True, 2, 1.5])),
    # ids beyond int64: named by no detection, the two agents would load
    ("agent", lambda r: r.update(agent_id=2 ** 63)),
    ("agent", lambda r: r.update(agent_id=10 ** 30)),
    ("agent", lambda r: r.update(birth_frame=r["birth_frame"] + 2 ** 63,
                                 death_frame=r["death_frame"] + 2 ** 63)),
    ("agent", lambda r: r.update(death_frame=2 ** 63)),
    ("frame", lambda r: r["detections"][0].update(true_id=2 ** 63)),
    ("frame", lambda r: r["detections"][0].update(true_id=-2 ** 63 - 1)),
    ("frame", lambda r: r["detections"][0].update(true_id=10 ** 400)),
])
def test_load_world_rejects_missing_fields_and_non_finite(tmp_path, kind, edit):
    path, lines = _saved_lines(tmp_path)
    line_no = _edit_line(lines, kind, edit)
    text = "\n".join(lines).replace(f'"{_OVERFLOW}"', _OVERFLOW)
    path.write_text(text + "\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:{line_no}:")):
        load_world(path)


def test_load_world_names_the_first_bad_field_of_a_frame(tmp_path):
    # a frame line is checked in one scan; when that fails, the refusal
    # still names the line's first bad field, in detection order
    path, lines = _saved_lines(tmp_path)
    i = next(i for i, line in enumerate(lines)
             if len(json.loads(line).get("detections", ())) >= 2)
    rec = json.loads(lines[i])
    rec["detections"][0]["true_id"] = -1
    rec["detections"][1]["pos"] = ["1", "2"]
    lines[i] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=re.escape(
            f'{path}:{i + 1}: true_id -1 must be written "FP"')):
        load_world(path)


@pytest.mark.parametrize("field, value", [
    ("agent_id", 2 ** 63), ("agent_id", 10 ** 30), ("birth_frame", 2 ** 63),
    ("death_frame", -2 ** 63 - 1)])
def test_load_world_names_agent_ids_and_frames_beyond_int64(tmp_path, field,
                                                            value):
    path, lines = _saved_lines(tmp_path)
    line_no = _edit_line(lines, "last agent", lambda r: r.update({field: value}))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}:{line_no}: {field} must be a 64-bit integer, got {value}")):
        load_world(path)


_FIELDS = ("pos", "velo", "size", "heading", "score", "true_id")
# each refused as a number, and as a pos, velo or size list
_BAD_NUMBERS = (True, False, "0.5", None, [0.5], _OVERFLOW, 10 ** 400)
_BAD_IDS = (FP_ID, 1.5, 2.0, True, "3", None, [1], 2 ** 63, -2 ** 63 - 1,
            10 ** 400)


def _corrupt_field(data, det) -> str:
    """Corrupt one field of the detection record ``det`` in place, as drawn
    from ``data``: drop it, replace it, or change the length or one number
    of a list.  Returns the field's name."""
    field = data.draw(st.sampled_from(_FIELDS))
    edits = ("missing", "value") + (("length", "number")
                                    if type(det[field]) is list else ())
    edit = data.draw(st.sampled_from(edits))
    if edit == "missing":
        del det[field]
    elif edit == "length":
        det[field] = (det[field][:-1] if data.draw(st.booleans())
                      else det[field] + [0.0])
    elif edit == "number":
        i = data.draw(st.integers(0, len(det[field]) - 1))
        det[field][i] = data.draw(st.sampled_from(_BAD_NUMBERS))
    elif field == "true_id":
        det[field] = data.draw(st.sampled_from(_BAD_IDS))
    else:
        det[field] = data.draw(st.sampled_from(
            _BAD_NUMBERS + ((0.5, "1.0, 2.0") if field in _FIELDS[:3] else ())))
    return field


@pytest.mark.parametrize("agents", [24, 100])  # ~17 and ~70 per frame
def test_frame_line_scan_and_walk_agree(tmp_path, agents):
    # the walk only names what the scan refuses: on a saved line both give
    # the same frame, and every single-field corruption is refused by the
    # scan and named by the walk, at the line's path:line
    path, lines = _saved_lines(tmp_path, agents, 120)
    frame_recs = {i: rec["detections"]
                  for i, rec in enumerate(map(json.loads, lines))
                  if rec["type"] == "frame"}
    for recs in frame_recs.values():
        want, got = _scan_detections(recs), _frame_detections(recs, "here")
        assert want is not None
        for a, b in zip((*_columns(want[0]), want[1]),
                        (*_columns(got[0]), got[1]), strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        i = data.draw(st.sampled_from([i for i, recs in frame_recs.items()
                                       if recs]))
        rec = json.loads(lines[i])
        det = data.draw(st.sampled_from(rec["detections"]))
        field = _corrupt_field(data, det)
        line = json.dumps(rec).replace(f'"{_OVERFLOW}"', _OVERFLOW)
        assert _scan_detections(json.loads(line)["detections"]) is None
        # the other lines left blank: they are skipped but keep their
        # numbers, and the refusal comes before the file's end is checked
        path.write_text("\n" * i + line + "\n")
        with pytest.raises(ConfigError) as refused:
            load_world(path)
        assert re.match(rf"{re.escape(f'{path}:{i + 1}')}: "
                        rf"(missing field '{field}'|{field} (-1 )?must be )",
                        str(refused.value)), str(refused.value)

    check()


def test_load_world_finds_the_first_missing_frame_in_bounded_memory(tmp_path):
    # a declared frame count the file does not hold is not walked: a set of
    # a million frame numbers would take ~99 MB
    path, lines = _saved_lines(tmp_path, num_frames=60)
    _edit_line(lines, "world", lambda r: r.update(num_frames=10 ** 6))
    path.write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: frame 60 of 1000000 has no line")):
            load_world(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("drop, message", [
    (lambda lines: lines[1:], "no world line"),
    (lambda lines: lines[:-10], "frame 44 of 54 has no line"),
    (lambda lines: [ln for ln in lines if '"frame": 7,' not in ln],
     "frame 7 of 54 has no line")])
def test_load_world_requires_its_world_line_and_every_frame(tmp_path, drop,
                                                            message):
    path, lines = _saved_lines(tmp_path)
    assert json.loads(lines[0])["num_frames"] == 54
    path.write_text("\n".join(drop(lines)) + "\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        load_world(path)


@pytest.mark.parametrize("frame_rate", [2.0, 10.0, 20.0])
def test_noise_channel_refuses_another_frame_rate(frame_rate):
    # tracks advance by velo / frame_rate per frame; labelling them with
    # another rate would scale every stride, horizon and target
    tracks = generate_world(3, 100, frame_rate=frame_rate, seed=4)
    log = corrupt_to_detections(tracks, NoiseConfig(), seed=4,
                                frame_rate=frame_rate)
    assert log.frame_rate == frame_rate
    for wrong in {2.0, 10.0, 20.0} - {frame_rate}:
        with pytest.raises(ConfigError, match=f"does not move at {wrong} Hz"):
            corrupt_to_detections(tracks, NoiseConfig(), seed=4,
                                  frame_rate=wrong)


_ID_EDITS = {
    "no id arrays": lambda ids: [],
    "one frame short": lambda ids: ids[:-1],
    "frame 7 one id short": lambda ids: ids[:7] + [ids[7][:-1]] + ids[8:],
}


@pytest.mark.parametrize("edit, message", [
    ("no id arrays", "0 id arrays for 80 frames"),
    ("one frame short", r"79 id arrays for 80 frames .*frame 79"),
    ("frame 7 one id short", "frame 7: ")])
def test_world_log_refuses_ids_that_do_not_match_frames(edit, message):
    # caught where the log is built, not as an IndexError in build_sample
    # or save_world
    log = corrupt_to_detections(generate_world(6, 80, seed=1), NoiseConfig(),
                                seed=1)
    assert len(log.true_ids[7]) > 0
    with pytest.raises(ConfigError, match=message):
        replace(log, true_ids=_ID_EDITS[edit](log.true_ids))
