"""Independent reference implementations used to cross-check the library.

Everything here is written straight from the defining formulas, without
importing model code, so a bug in the main path cannot hide in its own test.
The one exception is :func:`encode_loop`, which runs the encoder's own
stages one transition at a time to check how ``encode_sequence`` batches
them.
"""

from __future__ import annotations

import copy

import numpy as np


def float64_copy(params):
    """A deep copy of a model (``blocks()``), a layer (``block``) or a
    parameter block whose weights, grads and Adam moments are float64.

    The library's weights are float32; finite differences at eps = 1e-5 and
    comparisons against float64 oracles to 1e-9 need float64 to resolve.
    """
    out = copy.deepcopy(params)
    if hasattr(out, "blocks"):
        blocks = out.blocks()
    elif hasattr(out, "block"):
        blocks = [out.block]
    else:
        blocks = [out]
    for b in blocks:
        for buffers in (b.weights, b.grads, b.adam_m, b.adam_v):
            buffers[:] = [a.astype(np.float64) for a in buffers]
    return out


def fd_gradient(loss_fn, array: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. one array."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for j in range(flat.size):
        old = flat[j]
        flat[j] = old + eps
        lp = loss_fn()
        flat[j] = old - eps
        lm = loss_fn()
        flat[j] = old
        gflat[j] = (lp - lm) / (2.0 * eps)
    return grad


def rel_err(a, b, floor: float = 1e-6) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(a), np.abs(b))
    err = np.abs(a - b)
    out = np.where(scale < floor, err, err / np.maximum(scale, floor))
    return float(np.max(out)) if out.size else 0.0


# ---- closed-form pieces ----------------------------------------------------

def softmax_direct(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    e = np.exp(scores)
    return e / e.sum()


def sigmoid_direct(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def smooth_l1_direct(pred, target) -> float:
    """Sum of the smooth-L1 (beta 1) of every component."""
    out = 0.0
    for p, t in zip(np.ravel(pred), np.ravel(target)):
        d = abs(p - t)
        out += 0.5 * d * d if d < 1.0 else d - 0.5
    return out


def bce_direct(logit, label) -> float:
    """Cross entropy of sigmoid(logit), from log sigmoid(z) and
    log sigmoid(-z) = log(1 - sigmoid(z)); accurate for |z| up to ~30."""
    z = float(logit)
    log_p = -np.log1p(np.exp(-z))
    log_q = -np.log1p(np.exp(z))
    return -(label * log_p + (1 - label) * log_q)


def adam_single(w, g, lr, beta1=0.9, beta2=0.999, eps=1e-8, step=1,
                m=0.0, v=0.0):
    """Hand-executed single-parameter Adam update."""
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g * g
    mhat = m / (1 - beta1 ** step)
    vhat = v / (1 - beta2 ** step)
    return w - lr * mhat / (np.sqrt(vhat) + eps), m, v


def gru_direct(weights, x, h):
    """GRU cell from its defining equations; weights is the 9-tensor list."""
    wz, uz, bz, wr, ur, br, wc, uc, bc = weights
    z = sigmoid_direct(x @ wz + h @ uz + bz)
    r = sigmoid_direct(x @ wr + h @ ur + br)
    c = np.tanh(x @ wc + (r * h) @ uc + bc)
    return (1.0 - z) * h + z * c


# ---- aggregation (term-by-term) --------------------------------------------

def msa_direct(h_mot_k, h_mot_prev, x_k, h_aff_k, h_aff_prev, a_k, logits,
               w_mot, b_mot, w_aff, b_aff, with_aff=True):
    """Softmax-over-logit weighted, gated candidate aggregation.

    All candidate arrays are (K, dim); logits (K,).  Returns the aggregated
    motion state and (optionally) affinity state, computed term by term.
    """
    alpha = softmax_direct(logits)
    k_count = len(alpha)
    h_mot = np.zeros(h_mot_k.shape[1])
    h_aff = np.zeros(h_aff_k.shape[1]) if with_aff else None
    for k in range(k_count):
        g_mot = sigmoid_direct(
            np.concatenate([h_mot_k[k], h_mot_prev[k], x_k[k]]) @ w_mot + b_mot)
        h_mot = h_mot + alpha[k] * (g_mot * h_mot_k[k])
        if with_aff:
            g_aff = sigmoid_direct(
                np.concatenate([h_aff_k[k], h_aff_prev[k], a_k[k]]) @ w_aff + b_aff)
            h_aff = h_aff + alpha[k] * (g_aff * h_aff_k[k])
    return h_mot, h_aff, alpha


# ---- schedules ----------------------------------------------------------------

def lambda_direct(epoch, total_epochs, start=1.0, end=0.1):
    half = -(-total_epochs // 2)  # ceil
    if epoch >= half:
        return end
    return start + (end - start) * epoch / half


# ---- geometry / selection brute force ---------------------------------------

def gate_brute_force(prev_pos, curr_pos, theta_d):
    pairs = []
    for n in range(len(curr_pos)):
        for m in range(len(prev_pos)):
            d = np.hypot(curr_pos[n][0] - prev_pos[m][0],
                         curr_pos[n][1] - prev_pos[m][1])
            if d <= theta_d:
                pairs.append((m, n))
    return sorted(pairs, key=lambda p: (p[1], p[0]))


def gate_reference(prev_pos, curr_pos, theta_d, prev_window=None,
                   curr_window=None):
    """Gating with squared distances summed over an (N, M, 2) difference and
    pairs lexsorted by (curr, prev); the per-axis gate must equal it bitwise.
    Returns (pairs, dists)."""
    if len(prev_pos) == 0 or len(curr_pos) == 0:
        return np.zeros((0, 2), dtype=int), np.zeros(0)
    diff = curr_pos[:, None, :] - prev_pos[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    near = d2 <= theta_d * theta_d
    if prev_window is not None:
        near &= curr_window[:, None] == prev_window[None, :]
    curr_idx, prev_idx = np.nonzero(near)
    order = np.lexsort((prev_idx, curr_idx))
    pairs = np.stack([prev_idx[order], curr_idx[order]], axis=1)
    return pairs, np.sqrt(d2[curr_idx[order], prev_idx[order]])


def topk_brute_force(entries, k):
    """entries: list of (score, distance, prev_index); returns best k."""
    ordered = sorted(entries, key=lambda e: (-e[0], e[1], e[2]))
    return ordered[:k]


def match_brute_force(det_pos, gt_pos, threshold):
    """Globally greedy nearest-neighbor matching (each side used once)."""
    cands = []
    for i, d in enumerate(det_pos):
        for j, g in enumerate(gt_pos):
            dist = float(np.hypot(d[0] - g[0], d[1] - g[1]))
            if dist <= threshold:
                cands.append((dist, i, j))
    cands.sort()
    used_d, used_g, out = set(), set(), []
    for dist, i, j in cands:
        if i in used_d or j in used_g:
            continue
        used_d.add(i)
        used_g.add(j)
        out.append((i, j, dist))
    return sorted(out)


def mean_pool_reference(pos, window, enc, radius):
    """Mean-pool social interaction as one dense (n, n) weight matrix: each
    row minus the mean of the other rows of its window within ``radius``
    (compared on squared distances); a row without neighbors is unchanged."""
    n = len(pos)
    diff = pos[:, None, :] - pos[None, :, :]
    near = (diff * diff).sum(axis=2) <= radius * radius
    near &= window[:, None] == window[None, :]
    np.fill_diagonal(near, False)
    weights = np.zeros((n, n))
    deg = near.sum(axis=1)
    rows = deg > 0
    weights[rows] = near[rows] / deg[rows, None]
    return enc - weights @ enc


def evaluate_direct(worlds, forecast, t_obs, window_stride, pred_steps,
                    step_seconds, threshold, nl_threshold):
    """fde@3s bookkeeping one window and one agent at a time.

    ``forecast(dets_per_frame, seconds)`` gets a window's detection lists
    and the horizon in seconds, and returns one final waypoint per detection
    of the last frame.  Ground truth is read track by track, at each frame's
    offset from the track's birth, and matching is :func:`match_brute_force`.
    """
    errors, nonlinear, num_windows = [], [], 0
    for log in worlds:
        stride = int(round(log.frame_rate * step_seconds))
        horizon = pred_steps * stride
        seconds = horizon / log.frame_rate
        for t0 in range(0, log.num_frames - t_obs - horizon + 1, window_stride):
            num_windows += 1
            t_final = t0 + t_obs - 1
            dets = log.frames[t_final]
            if not dets:
                continue
            final = forecast(log.frames[t0: t_final + 1], seconds)
            live = [tr for tr in log.tracks
                    if tr.birth_frame <= t_final
                    and t_final + horizon <= tr.death_frame]
            # every live track covers t_final .. t_final + horizon
            gt_pos = [tr.pos[t_final - tr.birth_frame] for tr in live]
            for i, j, _ in match_brute_force([d.pos for d in dets], gt_pos,
                                             threshold):
                tr = live[j]
                future = np.array([tr.pos[t_final + stride * s - tr.birth_frame]
                                   for s in range(1, pred_steps + 1)])
                errors.append(float(np.hypot(*(final[i] - future[-1]))))
                nonlinear.append(linear_fit_residual(future) > nl_threshold)
    nl_errors = [e for e, nl in zip(errors, nonlinear) if nl]
    return {"fde_cm": 100.0 * float(np.mean(errors)) if errors else None,
            "nl_fde_cm": 100.0 * float(np.mean(nl_errors)) if nl_errors else None,
            "num_matched": len(errors), "num_nonlinear": len(nl_errors),
            "num_windows": num_windows}


def gt_future_loop(log, agent_ids, frame, config):
    """Ground truth at ``frame`` and the forecast instants after it, one
    agent at a time through a dict of tracks by id; ``FP_ID`` stays zero and
    never alive."""
    from uncertrack.model import stride_and_horizon
    from uncertrack.world import FP_ID

    steps = config.pred_steps
    stride, _ = stride_and_horizon(log.frame_rate, config)
    instants = frame + stride * np.arange(steps + 1)
    pos = np.zeros((len(agent_ids), steps + 1, 2))
    alive = np.zeros((len(agent_ids), steps + 1), dtype=bool)
    by_id = {tr.agent_id: tr for tr in log.tracks}
    for n, agent in enumerate(agent_ids):
        if agent == FP_ID:
            continue
        track = by_id[int(agent)]
        alive[n] = ((instants >= track.birth_frame)
                    & (instants <= track.death_frame))
        pos[n, alive[n]] = track.pos[instants[alive[n]] - track.birth_frame]
    return pos, alive


def linear_fit_residual(points) -> float:
    """Degree-1 least squares on x(t), y(t) via explicit normal equations."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    t = np.arange(1.0, n + 1.0)
    total = 0.0
    for axis in range(2):
        y = pts[:, axis]
        st, sy = t.sum(), y.sum()
        stt, sty = (t * t).sum(), (t * y).sum()
        det = n * stt - st * st
        slope = (n * sty - st * sy) / det
        intercept = (sy - slope * st) / n
        r = y - (slope * t + intercept)
        total += float((r * r).sum())
    return total


def circle_positions(center, radius, phase0, omega, dt, n):
    """Closed-form constant-turn arc sampled at n frames."""
    t = np.arange(n) * dt
    ang = phase0 + omega * t
    return np.stack([center[0] + radius * np.cos(ang),
                     center[1] + radius * np.sin(ang)], axis=1)


# ---- encoder diagnostics (one segment at a time) -----------------------------

def best_prev_loop(pairs, selected, alphas, n_rows):
    """Argmax-alpha predecessor (first on ties) and age of every laid-out row,
    one segment (current row) at a time.

    ``pairs[selected]`` are the selected [prev, curr] rows and ``alphas``
    their weights.  Returns (predecessor row, -1 for a birth or a first-frame
    row; age, the linked predecessors behind the row).
    """
    best_prev = np.full(n_rows, -1)
    chosen = pairs[selected]
    for c in np.unique(chosen[:, 1]):
        members = np.flatnonzero(chosen[:, 1] == c)
        best_prev[c] = chosen[members[np.argmax(alphas[members])], 0]
    ages = np.zeros(n_rows, dtype=int)
    for r in range(n_rows):  # a predecessor is an earlier row
        if best_prev[r] >= 0:
            ages[r] = ages[best_prev[r]] + 1
    return best_prev, ages


def chains_from(best_prev, offsets):
    """Walk each final-frame row back through the predecessors, one frame at
    a time: frame-local rows, latest frame first, -1 once the chain breaks."""
    chains = []
    for row in range(offsets[-2], offsets[-1]):
        chain = []
        for lo in offsets[-2::-1]:
            chain.append(int(row - lo) if row >= 0 else -1)
            row = best_prev[row] if row >= 0 else -1
        chains.append(chain)
    return chains


def pairs_per_transition(encoding):
    """The gated pairs into each step after the first, from laid-out rows."""
    off = encoding.offsets
    frame = np.searchsorted(off, encoding.pairs[:, 1], side="right") - 1
    return np.bincount(frame - 1, minlength=len(off) - 2).tolist()


# ---- the encoder, one transition at a time ----------------------------------

def encode_loop(tape, params, windows):
    """The encoder with every stage called per frame or per transition, over
    equally long windows side by side: step t joins frame t of every
    window, each step is embedded alone, and each transition is gated alone,
    window by window, and its movement MLP run on that transition's pairs
    only.

    Returns the final motion states (a Var) and the pass in laid-out rows:
    ``(pairs, logits, selected, alphas)``, with one logits Var per
    transition.
    """
    from uncertrack.affinity import (gate_positions, movement_features,
                                     pair_features, select_top_k)
    from uncertrack.detections import concat_frames, embed_frame
    from uncertrack.encoder import asu_update, msa_aggregate

    frames = [concat_frames(step) for step in zip(*windows)]
    ids = [np.repeat(np.arange(len(step)), [len(f) for f in step])
           for step in zip(*windows)]
    cfg = params.config
    k = cfg.k_candidates if cfg.use_msa else 1
    x_prev = embed_frame(tape, params, frames[0])
    dtype = x_prev.value.dtype

    def zeros(n):
        return tape.const(np.zeros((n, cfg.hidden_dim), dtype=dtype))

    h_mot = zeros(len(frames[0]))
    h_aff = zeros(len(frames[0])) if cfg.use_asu else None
    pairs_all, logits_all, selected, alphas = [], [], [], []
    lo, n_pairs = 0, 0  # first row of the previous frame, pairs so far
    for prev, curr, prev_id, curr_id in zip(frames, frames[1:], ids, ids[1:]):
        x_curr = embed_frame(tape, params, curr)
        pairs, dists = gate_positions(prev.pos, curr.pos, cfg.theta_d,
                                      prev_id, curr_id)
        x_mov = movement_features(tape, params, prev.pos, curr.pos, pairs)
        x, a, logits = pair_features(tape, params, x_prev, x_curr, x_mov,
                                     h_mot, pairs)
        sel, _ = select_top_k(pairs, dists, logits.value[:, 0], k)
        pi, ci = pairs[sel, 0], pairs[sel, 1]
        x_sel, z_sel = tape.gather_rows(x, sel), tape.gather_rows(logits, sel)
        prev_mot = tape.gather_rows(h_mot, pi)
        a_sel = tape.gather_rows(a, sel) if cfg.use_asu else None
        prev_aff = tape.gather_rows(h_aff, pi) if cfg.use_asu else None
        h_mot_k, h_aff_k = asu_update(tape, params, x_sel, a_sel, prev_mot,
                                      prev_aff)
        if cfg.use_msa:
            h_mot, h_aff, alpha = msa_aggregate(
                tape, params, ci, len(curr), h_mot_k, prev_mot, x_sel, z_sel,
                h_aff_k=h_aff_k, prev_aff=prev_aff, a=a_sel)
            alphas.append(alpha.value[:, 0])
        else:
            h_mot = tape.segment_sum(h_mot_k, ci, len(curr))
            if cfg.use_asu:
                h_aff = tape.segment_sum(h_aff_k, ci, len(curr))
            alphas.append(np.ones(len(sel)))
        x_prev = x_curr
        pairs_all.append(pairs + [lo, lo + len(prev)])
        logits_all.append(logits)
        selected.append(sel + n_pairs)
        lo, n_pairs = lo + len(prev), n_pairs + len(pairs)
    return h_mot, (np.concatenate(pairs_all), logits_all,
                   np.concatenate(selected), np.concatenate(alphas))


# ---- the detector-noise channel, one numpy call per draw --------------------

def headings_loop(velo, fallback):
    """Heading row by row, held while the speed is at most 0.1 m/s."""
    heading = np.empty(velo.shape[0])
    prev = fallback
    for i in range(velo.shape[0]):
        if np.hypot(velo[i, 0], velo[i, 1]) > 0.1:
            prev = float(np.arctan2(velo[i, 1], velo[i, 0]))
        heading[i] = prev
    return heading


def _wrap_angle_direct(a):
    return (a + np.pi) % (2 * np.pi) - np.pi


def detect_direct(rng, noise, track, i, pos_sigma, score_mean):
    """Row ``i`` of a track through five ``rng.normal`` calls: pos, velo,
    heading, size, score.  Returns (pos, velo, size, heading, score)."""
    pos = track.pos[i] + rng.normal(0.0, pos_sigma, size=2)
    velo = track.velo[i] + rng.normal(0.0, noise.velo_sigma, size=2)
    dh = rng.normal(0.0, noise.heading_sigma)
    heading = track.heading[i]
    heading = float(_wrap_angle_direct(heading + dh) if dh else heading)
    size = np.maximum(track.size[i] + rng.normal(0.0, noise.size_sigma, size=3),
                      0.2)
    score = float(np.clip(rng.normal(score_mean, noise.score_sigma),
                          1e-4, 1.0 - 1e-4))
    return ((float(pos[0]), float(pos[1])), (float(velo[0]), float(velo[1])),
            tuple(float(s) for s in size), heading, score)


def noise_channel_direct(tracks, noise, rng, num_frames, burst_frames=(2, 3, 4),
                         burst_factor=4.0):
    """Bursts, misses and false positives frame by frame, drawing from
    ``rng`` in the channel's order.  Returns per frame a list of
    (detection fields, true id), -1 marking a false positive."""
    bursts = {}
    for track in tracks:
        mask = np.zeros(track.length, dtype=bool)
        left = 0
        for i in range(track.length):
            if left == 0 and rng.random() < noise.burst_prob:
                left = int(rng.choice(burst_frames))
            if left > 0:
                mask[i] = True
                left -= 1
        bursts[track.agent_id] = mask

    frames = []
    for t in range(num_frames):
        dets = []
        live = [tr for tr in tracks if tr.birth_frame <= t <= tr.death_frame]
        for tr in live:
            i = t - tr.birth_frame
            if rng.random() < noise.miss_rate:
                continue
            pos_sigma = noise.pos_sigma * (burst_factor
                                           if bursts[tr.agent_id][i] else 1.0)
            dets.append((detect_direct(rng, noise, tr, i, pos_sigma,
                                       noise.score_tp_mean), tr.agent_id))
        if live and noise.fp_rate > 0:
            for _ in range(int(rng.poisson(noise.fp_rate))):
                host = live[int(rng.integers(len(live)))]
                dets.append((detect_direct(rng, noise, host,
                                           t - host.birth_frame,
                                           noise.fp_cluster_sigma,
                                           noise.score_fp_mean), -1))
        frames.append(dets)
    return frames


def frame_columns_loop(dets):
    """A frame's detection fields copied row by row into zeroed columns:
    (pos, velo, size, heading, score)."""
    n = len(dets)
    cols = (np.zeros((n, 2)), np.zeros((n, 2)), np.zeros((n, 3)), np.zeros(n),
            np.zeros(n))
    for i, d in enumerate(dets):
        for col, value in zip(cols, (d.pos, d.velo, d.size, d.heading, d.score)):
            col[i] = value
    return cols
