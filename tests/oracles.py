"""Independent reference implementations used to cross-check the library.

Everything here is written straight from the defining formulas, without
importing model code, so a bug in the main path cannot hide in its own test.
"""

from __future__ import annotations

import numpy as np


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


def smooth_l1_direct(pred, target, beta=1.0) -> float:
    out = []
    for p, t in zip(np.ravel(pred), np.ravel(target)):
        d = abs(p - t)
        out.append(0.5 * d * d / beta if d < beta else d - 0.5 * beta)
    return float(np.mean(out))


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
    of the last frame.  Ground truth is read track by track with
    ``index_at``, and matching is :func:`match_brute_force`.
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
            gt_pos = [tr.pos[tr.index_at(t_final)] for tr in live]
            for i, j, _ in match_brute_force([d.pos for d in dets], gt_pos,
                                             threshold):
                tr = live[j]
                future = np.array([tr.pos[tr.index_at(t_final + stride * s)]
                                   for s in range(1, pred_steps + 1)])
                errors.append(float(np.hypot(*(final[i] - future[-1]))))
                nonlinear.append(linear_fit_residual(future) > nl_threshold)
    nl_errors = [e for e, nl in zip(errors, nonlinear) if nl]
    return {"fde_cm": 100.0 * float(np.mean(errors)) if errors else None,
            "nl_fde_cm": 100.0 * float(np.mean(nl_errors)) if nl_errors else None,
            "num_matched": len(errors), "num_nonlinear": len(nl_errors),
            "num_windows": num_windows}


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

def best_prev_loop(seg, seg_curr, alphas, prev_index, ages, n_curr):
    """Argmax-alpha predecessor (first on ties) and ages, segment by segment.

    ``prev_index`` is the previous-frame detection of each selected pair.
    Returns ({curr: prev}, ages of the current frame).
    """
    best_prev = {}
    new_ages = np.zeros(n_curr, dtype=int)
    for s in range(len(seg_curr)):
        members = np.flatnonzero(seg == s)
        top = members[np.argmax(alphas[members])]
        c = int(seg_curr[s])
        best_prev[c] = int(prev_index[top])
        new_ages[c] = ages[prev_index[top]] + 1
    return best_prev, new_ages


def chains_from(best_prevs, n_final):
    """Walk each final detection back through per-transition predecessor maps."""
    chains = []
    for n in range(n_final):
        chain, curr = [n], n
        for best_prev in reversed(best_prevs):
            curr = best_prev.get(curr) if curr is not None else None
            chain.append(curr)
        chains.append(chain)
    return chains
