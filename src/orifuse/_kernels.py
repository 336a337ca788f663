"""Numeric kernels for SO(3) maps and the memory-based rotation average.

Each chart map has one implementation.  ``rot_exp_many`` and
``rot_log_many`` map a whole (N, 3) or (N, 3, 3) stack with numpy, choosing
the small-angle and near-pi branches with boolean masks; ``rot_exp`` and
``rot_log`` are their one-row calls.

The memory-based average has one implementation too,
``memory_average_many``, which owns its constants and describes its dispatch.
Over a time-ordered run of pairs it computes the relative logs, every row's
history mean and class, the scales and the exps array-wide.  Python runs
only where the state changes: from each flip, for the rows whose history the
flip cleared, and at a window whose mean cancels.  ``memory_average_step``
and ``rotavg.weighted_average_memory`` are its one-pair calls.
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


def relative_rotations(Ris, Rjs):
    """Ri^T Rj for every rotation of two (..., 3, 3) stacks."""
    return np.matmul(np.swapaxes(Ris, -1, -2), Rjs)


def rot_exp_many(psis):
    """Rodrigues map over an (N, 3) stack of vectors (axis * angle).

    Total on R^3; the limits 1 and 1/2 replace sin(t)/t and (1-cos(t))/t^2
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
    # the series' next terms, t^2/6 < 1.7e-17 and t^2/24 < 4.2e-18, are below half an
    # ulp of 1 and of 1/2: the limits are the series' values in floating point
    a[small] = 1.0
    b[small] = 0.5
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


def geodesic_distances(Ris, Rjs):
    """Rotation angles of Ri^T Rj over two (N, 3, 3) stacks.

    pi-shell norms that round above pi are clipped.
    """
    return np.minimum(_norms(rot_log_many(relative_rotations(Ris, Rjs))), np.pi)


def consecutive_geodesic_steps(Rs):
    """Distances between consecutive rotations."""
    Rs = np.asarray(Rs, dtype=float)
    return geodesic_distances(Rs[:-1], Rs[1:])


def stateless_average_many(Ris, Rjs, Wis, Wjs):
    """Weighted average along the geodesic, row by row: Ri * exp(d * psi_bar).

    d = Wj / (Wi + Wj) * dist(Ri, Rj); a row returns Ri for coincident inputs
    or when both weights vanish.
    """
    Ris = np.asarray(Ris, dtype=float)
    psi = rot_log_many(relative_rotations(Ris, Rjs))
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


def memory_average_many(Ris, Rjs, Wis, Wjs, n_turns=0, history=(), capacity=HISTORY_CAPACITY,
                        d_th=D_TH_DEFAULT, e_psi=E_PSI_DEFAULT):
    """The memory-based average of a time-ordered run of pairs, from a given state.

    The default state is a fresh one: no turns and an empty history.  Row i
    continues from the state row i - 1 left.  history holds past unit
    traverse directions as float triples, oldest first (zero triples for
    coincident inputs), and keeps the last ``capacity``.
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

    A flip changes only the windows of the next ``capacity`` rows, so every
    row's window mean and class come array-wide, and a walk in plain floats
    runs from each flip (or empty, all-sentinel or cancelling window) until
    the windows are whole again.
    """
    Ris = np.asarray(Ris, dtype=float)
    Wis = np.asarray(Wis, dtype=float)
    Wjs = np.asarray(Wjs, dtype=float)
    psi = rot_log_many(relative_rotations(Ris, Rjs))
    d_ij = _norms(psi)
    unit = np.zeros_like(psi)
    np.divide(psi, d_ij[:, None], out=unit, where=(d_ij >= ZERO_DISTANCE)[:, None])
    wsum = Wis + Wjs
    move = wsum > 0.0
    n = d_ij.shape[0]
    past = list(deque(history, maxlen=capacity))
    # row i's window is seq[i:i + capacity]: the given history, then the rows before i
    seq = np.zeros((capacity + n, 3))
    seq[capacity - len(past):capacity] = np.reshape(past, (-1, 3))
    seq[capacity:] = unit
    kept = seq[:, 0] * seq[:, 0] + seq[:, 1] * seq[:, 1] + seq[:, 2] * seq[:, 2] > 0.25
    summand = np.where(kept[:, None], seq, 0.0)
    total = np.zeros((n, 3))  # oldest first from 0.0, as _history_mean sums
    for j in range(capacity):
        total += summand[j:j + n]
    norm = _norms(total)
    psi_p = np.zeros_like(total)  # walked where the norm is below 1e-12
    np.divide(total, norm[:, None], out=psi_p, where=(norm >= 1e-12)[:, None])
    dot = psi_p[:, 0] * unit[:, 0] + psi_p[:, 1] * unit[:, 1] + psi_p[:, 2] * unit[:, 2]
    aligned = dot > e_psi
    flip = ~aligned & (-dot > e_psi)
    direction = np.where((move & ~aligned & ~flip)[:, None], psi_p, unit)
    step = np.zeros(n, dtype=np.int64)
    start = n_turns
    end = 0
    for r in np.flatnonzero(move & (flip | (norm < 1e-12))).tolist():
        if r < end:
            continue  # an earlier walk has been here
        hist = deque(map(tuple, seq[max(r, capacity - len(past)):r + capacity].tolist()),
                     maxlen=capacity)
        i, stop = r, r + 1  # a walk ends capacity rows after its last flip
        while i < min(stop, n):
            psi_c = tuple(unit[i].tolist())
            if move[i]:
                psi_p_i = _history_mean(hist) if hist else psi_c
                dot_i = psi_p_i[0] * psi_c[0] + psi_p_i[1] * psi_c[1] + psi_p_i[2] * psi_c[2]
                direction[i] = psi_c
                if dot_i > e_psi:
                    pass  # aligned with the history
                elif -dot_i > e_psi:
                    step[i] = turn = 1 if (d_ij[i] > d_th) == (n_turns % 2 == 0) else -1
                    n_turns += turn
                    hist.clear()  # historical data is stale after a flip
                    stop = i + capacity
                else:
                    direction[i] = psi_p_i  # outlier direction: trust the history instead
            hist.append(psi_c)
            i += 1
        end = i
    turns = start + np.cumsum(step)  # a step function of the flips
    flips = np.flatnonzero(step)
    first = max(len(past) + flips[-1] if flips.size else 0, len(past) + n - capacity)
    history = past[first:] + list(map(tuple, unit[max(first - len(past), 0):].tolist()))
    # multiplying by sign negates exactly, so each row rounds as its formula does
    odd = turns % 2 == 1
    sign = np.where(odd, -1.0, 1.0)
    scale = np.zeros_like(d_ij)
    scale[move] = Wjs[move] * ((turns + odd) * np.pi + sign * d_ij)[move] / wsum[move]
    out = np.matmul(Ris, rot_exp_many((sign * scale)[:, None] * direction))
    out[~move] = Ris[~move]
    return out, turns, tuple(history)


def memory_average_step(Ri, Rj, Wi, Wj, n_turns, hist, n_hist, d_th, e_psi):
    """memory_average_many for one pair, its history in a fixed array.

    hist is a (capacity, 3) array whose first n_hist rows are the past
    traverse directions; it is updated in place.  Returns
    ``(Rij, n_turns, n_hist)``.
    """
    out, turns, past = memory_average_many(Ri[None], Rj[None], [Wi], [Wj], n_turns,
                                           map(tuple, hist[:n_hist].tolist()), hist.shape[0],
                                           d_th, e_psi)
    hist[:len(past)] = past
    return out[0], int(turns[0]), len(past)
