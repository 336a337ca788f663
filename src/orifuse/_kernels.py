"""Numeric kernels for SO(3) maps and the memory-based rotation average.

Each chart map has one implementation.  ``rot_exp_many`` and
``rot_log_many`` map a whole (N, 3) or (N, 3, 3) stack with numpy, choosing
the small-angle and near-pi branches with boolean masks; ``rot_exp`` and
``rot_log`` are their one-row calls.

The memory-based average has one implementation too, ``_memory_run``, which
owns its constants and describes its dispatch.  Over a time-ordered run of
pairs it computes the relative logs, the scales and the exps array-wide; only
the turn count and the history of traverse directions run row by row, in
plain floats.  The whole-grid ``memory_average_many``, the one-pair
``memory_average_step`` and ``rotavg.weighted_average_memory`` are all runs
of it.
"""

import math
from collections import deque

import numpy as np

# The kernels are plain numpy; the benchmark's environment record reads this.
USING_NUMBA = False

# distances below this are treated as zero when normalizing traverse directions
ZERO_DISTANCE = 1e-12

D_TH_DEFAULT = 0.15  # radians; splits pi-boundary from pole crossings
E_PSI_DEFAULT = math.cos(50.0 * math.pi / 180.0)  # aligned/flipped cosine bound
HISTORY_CAPACITY = 5  # past traverse directions the memory average keeps


def _norms(v):
    """Row norms of an (N, 3) array, the squares summed x, y, z in that order."""
    return np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2])


def _relative(Ris, Rjs):
    """Ri^T Rj for every row of two (N, 3, 3) stacks."""
    return np.matmul(Ris.transpose(0, 2, 1), Rjs)


def rot_exp_many(psis):
    """Rodrigues map over an (N, 3) stack of vectors (axis * angle).

    Total on R^3; a 2nd-order series replaces sin(t)/t and (1-cos(t))/t^2
    below t = 1e-8 to avoid 0/0.
    """
    psis = np.asarray(psis, dtype=float)
    x, y, z = psis[:, 0], psis[:, 1], psis[:, 2]
    t2 = x * x + y * y + z * z
    t = np.sqrt(t2)
    small = t < 1e-8
    big = ~small
    a = np.empty_like(t)
    b = np.empty_like(t)
    a[small] = 1.0 - t2[small] / 6.0
    b[small] = 0.5 - t2[small] / 24.0
    a[big] = np.sin(t[big]) / t[big]
    b[big] = (1.0 - np.cos(t[big])) / t2[big]
    # I + a*hat(psi) + b*(psi psi^T - t^2 I)
    R = np.empty((psis.shape[0], 3, 3))
    R[:, 0, 0] = 1.0 + b * (x * x - t2)
    R[:, 0, 1] = -a * z + b * x * y
    R[:, 0, 2] = a * y + b * x * z
    R[:, 1, 0] = a * z + b * x * y
    R[:, 1, 1] = 1.0 + b * (y * y - t2)
    R[:, 1, 2] = -a * x + b * y * z
    R[:, 2, 0] = -a * y + b * x * z
    R[:, 2, 1] = a * x + b * y * z
    R[:, 2, 2] = 1.0 + b * (z * z - t2)
    return R


def rot_exp(psi):
    """rot_exp_many for one 3-vector."""
    return rot_exp_many(np.reshape(psi, (1, 3)))[0]


def rot_log_many(Rs):
    """Inverse of rot_exp_many over an (N, 3, 3) stack, inside the closed pi-ball.

    Assumes valid rotations (validation happens at the API layer).  Output on
    the boundary obeys the positive-half-sphere convention: never (x < 0) nor
    (x = 0, y < 0) nor (x = y = 0, z < 0).
    """
    Rs = np.asarray(Rs, dtype=float)
    tr = Rs[:, 0, 0] + Rs[:, 1, 1] + Rs[:, 2, 2]
    c = np.clip((tr - 1.0) / 2.0, -1.0, 1.0)
    # vee(R - R^T) / 2 = sin(theta) * axis
    s = np.empty((Rs.shape[0], 3))
    s[:, 0] = 0.5 * (Rs[:, 2, 1] - Rs[:, 1, 2])
    s[:, 1] = 0.5 * (Rs[:, 0, 2] - Rs[:, 2, 0])
    s[:, 2] = 0.5 * (Rs[:, 1, 0] - Rs[:, 0, 1])
    sn = _norms(s)
    # arctan2 keeps the angle well conditioned where arccos degenerates (near pi)
    theta = np.arctan2(sn, c)
    small = theta < 1e-8
    near_pi = (tr < -1.0 + 1e-7) & ~small
    general = ~(small | near_pi)
    scale = np.ones_like(theta)  # theta/sin(theta) = 1 on small rows
    scale[general] = theta[general] / sn[general]
    out = s * scale[:, None]
    if near_pi.any():
        # Near pi the skew part degenerates; recover the axis from the symmetric
        # part, axis_i^2 = (R_ii - c) / (1 - c), anchored at the largest diagonal
        # entry (the first on ties).  The three terms sum to 1, so the anchor is
        # at least 1/3.
        P, one_c = Rs[near_pi], 1.0 - c[near_pi]
        d = (np.diagonal(P, axis1=1, axis2=2) - c[near_pi, None]) / one_c[:, None]
        k = np.argmax(d, axis=1)
        rows = np.arange(k.size)
        anchor = np.sqrt(d[rows, k])
        axis = (P[rows, k, :] + P[rows, :, k]) / (2.0 * one_c * anchor)[:, None]
        axis[rows, k] = anchor
        axis /= _norms(axis)[:, None]
        sp = s[near_pi]
        dot = sp[:, 0] * axis[:, 0] + sp[:, 1] * axis[:, 1] + sp[:, 2] * axis[:, 2]
        # the skew part fixes the sign unless the angle is pi within noise; there
        # the half-sphere rule does, with z >= 0 breaking the exact pole tie
        x, y, z = axis[:, 0], axis[:, 1], axis[:, 2]
        lower = (x < 0.0) | ((x == 0.0) & (y < 0.0)) | ((x == 0.0) & (y == 0.0) & (z < 0.0))
        flip = (dot < -1e-12) | ((np.abs(dot) <= 1e-12) & lower)
        axis[flip] = -axis[flip]
        out[near_pi] = theta[near_pi, None] * axis
    return out


def rot_log(R):
    """rot_log_many for one rotation matrix."""
    return rot_log_many(np.reshape(R, (1, 3, 3)))[0]


def consecutive_geodesic_steps(Rs):
    """Distances between consecutive rotations; pi-shell norms that round above pi are clipped."""
    Rs = np.asarray(Rs, dtype=float)
    return np.minimum(_norms(rot_log_many(_relative(Rs[:-1], Rs[1:]))), np.pi)


def stateless_average_many(Ris, Rjs, Wis, Wjs):
    """Weighted average along the geodesic, row by row: Ri * exp(d * psi_bar).

    d = Wj / (Wi + Wj) * dist(Ri, Rj); a row returns Ri for coincident inputs
    or when both weights vanish.
    """
    Ris = np.asarray(Ris, dtype=float)
    psi = rot_log_many(_relative(Ris, Rjs))
    d_ij = _norms(psi)
    wsum = Wis + Wjs
    keep = (d_ij < ZERO_DISTANCE) | (wsum <= 0.0)
    move = ~keep
    scale = np.zeros_like(d_ij)
    scale[move] = Wjs[move] / wsum[move] * d_ij[move] / d_ij[move]
    out = np.matmul(Ris, rot_exp_many(psi * scale[:, None]))
    out[keep] = Ris[keep]
    return out


def stateless_average(Ri, Rj, Wi, Wj):
    """stateless_average_many for a single pair."""
    return stateless_average_many(Ri[None], Rj[None], np.array([Wi]), np.array([Wj]))[0]


def _history_mean(hist):
    """Average of the stored non-zero traverse directions, re-normalized.

    Zero-sentinel entries are skipped; a cancelling mean falls back to the
    most recent non-zero entry, and an all-zero history yields the zero vector.
    """
    m0 = m1 = m2 = 0.0
    count = 0
    for h0, h1, h2 in hist:
        if h0 * h0 + h1 * h1 + h2 * h2 > 0.25:  # unit vectors vs zero sentinel
            m0 += h0
            m1 += h1
            m2 += h2
            count += 1
    if count == 0:
        return (0.0, 0.0, 0.0)
    n = math.sqrt(m0 * m0 + m1 * m1 + m2 * m2)
    if n < 1e-12:
        for h in reversed(hist):
            if h[0] * h[0] + h[1] * h[1] + h[2] * h[2] > 0.25:
                return h
    return (m0 / n, m1 / n, m2 / n)


def _memory_run(Ris, Rjs, Wis, Wjs, n_turns=0, history=(), capacity=HISTORY_CAPACITY,
                d_th=D_TH_DEFAULT, e_psi=E_PSI_DEFAULT):
    """The memory-based average of a time-ordered run of pairs, from a given state.

    history holds past unit traverse directions as float triples, oldest first
    (zero triples for coincident inputs), and keeps the last ``capacity``.
    Each row with Wi + Wj > 0 compares its direction psi_c = log(Ri^T Rj) / d_ij
    with the history mean (psi_c itself for an empty history).  A flip (dot
    below -e_psi) clears the history and moves the turn count N by +1 for a
    pi-boundary crossing (d_ij > d_th) and -1 for a pole crossing on an even
    N, the other way round on an odd N; an outlier (|dot| <= e_psi) takes the
    history mean as its direction.  The row's result is Ri * exp(d * direction)
    with d = Wj*(N*pi + d_ij)/(Wi+Wj) on an even N and
    d = -Wj*((N+1)*pi - d_ij)/(Wi+Wj) on an odd N, or Ri where the weights sum
    to zero or less.  Every row appends psi_c to the history.  Returns
    ``(Rs, turns, history)``: the turn count after each row and the final
    history as a tuple.
    """
    Ris = np.asarray(Ris, dtype=float)
    Wis = np.asarray(Wis, dtype=float)
    Wjs = np.asarray(Wjs, dtype=float)
    psi = rot_log_many(_relative(Ris, Rjs))
    d_ij = _norms(psi)
    unit = np.zeros_like(psi)
    np.divide(psi, d_ij[:, None], out=unit, where=(d_ij >= ZERO_DISTANCE)[:, None])
    wsum = Wis + Wjs
    move = wsum > 0.0
    hist = deque(history, maxlen=capacity)
    turns = []
    for i, (d, psi_c, moves) in enumerate(zip(d_ij.tolist(), map(tuple, unit.tolist()),
                                              move.tolist())):
        if moves:
            psi_p = _history_mean(hist) if hist else psi_c
            dot = psi_p[0] * psi_c[0] + psi_p[1] * psi_c[1] + psi_p[2] * psi_c[2]
            if dot > e_psi:
                pass  # aligned with the history
            elif -dot > e_psi:
                n_turns += 1 if (d > d_th) == (n_turns % 2 == 0) else -1
                hist.clear()  # historical data is stale after a flip
            else:
                unit[i] = psi_p  # outlier direction: trust the history instead
        turns.append(n_turns)
        hist.append(psi_c)
    turns = np.array(turns, dtype=np.int64)
    # multiplying by sign negates exactly, so each row rounds as its formula does
    odd = turns % 2 == 1
    sign = np.where(odd, -1.0, 1.0)
    scale = np.zeros_like(d_ij)
    scale[move] = Wjs[move] * ((turns + odd) * np.pi + sign * d_ij)[move] / wsum[move]
    out = np.matmul(Ris, rot_exp_many((sign * scale)[:, None] * unit))
    out[~move] = Ris[~move]
    return out, turns, tuple(hist)


def memory_average_step(Ri, Rj, Wi, Wj, n_turns, hist, n_hist, d_th, e_psi):
    """One step of the memory-based weighted rotation average.

    hist is a (capacity, 3) array whose first n_hist rows are the past
    traverse directions; it is updated in place.  Returns
    ``(Rij, n_turns, n_hist)``; _memory_run describes the dispatch.
    """
    out, turns, past = _memory_run(Ri[None], Rj[None], [Wi], [Wj], n_turns,
                                   map(tuple, hist[:n_hist].tolist()), hist.shape[0],
                                   d_th, e_psi)
    hist[:len(past)] = past
    return out[0], int(turns[0]), len(past)


def memory_average_many(Ris, Rjs, Wis, Wjs):
    """memory_average_step over a time-ordered grid of pairs.

    Starts from a fresh state (no turns, an empty history), and row i
    continues from the state row i - 1 left.  Returns ``(Rs, turns)``, turns
    holding the turn count after each row.
    """
    return _memory_run(Ris, Rjs, Wis, Wjs)[:2]
