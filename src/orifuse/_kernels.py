"""Numeric kernels for SO(3) maps and the memory-based rotation average.

Each chart map has one implementation.  ``rot_exp_many`` and
``rot_log_many`` map a whole (N, 3) or (N, 3, 3) stack with numpy, choosing
the small-angle and near-pi branches with boolean masks; ``rot_exp`` and
``rot_log`` are their one-row calls.

The memory-based average has one implementation too,
``memory_average_many``, which owns its constants.  One array rule gives
every row of a run its history mean and class; a flip shortens only the
windows of the next capacity - 1 rows, which the same rule classifies
again.  ``memory_average_step`` and ``rotavg.weighted_average_memory`` are
its one-pair calls.
"""

import math
from bisect import bisect_left

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

    One rule gives every row its history mean and class.  Only a flip changes
    the state: it cuts the windows of the next capacity - 1 rows, which the rule
    classifies again.  Known limit: where Ri^T Rj passes near, not through, the
    identity at N other than 0 or -1, psi_c swings while |d| stays near a
    non-zero multiple of pi Wj/(Wi+Wj), and the output jumps undetected.
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
    past = list(history)  # a map from memory_average_step has no len()
    past = past[max(len(past) - capacity, 0):]
    # row r's window is seq[max(r, floor):r + capacity]: the given history, then the rows
    # before r; floor is the history's oldest entry, after a flip that row's own psi_c
    seq = np.concatenate([np.zeros((capacity - len(past), 3)), np.reshape(past, (-1, 3)), unit])
    kept = seq[:, 0] * seq[:, 0] + seq[:, 1] * seq[:, 1] + seq[:, 2] * seq[:, 2] > 0.25
    summand = np.where(kept[:, None], seq, 0.0)  # unit vectors, the zero sentinels dropped

    def classify(lo, hi, floor):
        """Direction and flip test of rows lo..hi-1, their windows cut at seq[floor]."""
        total = np.zeros((hi - lo, 3))  # oldest first from 0.0, as a sum in floats runs
        for j in range(capacity):
            skip = min(max(floor - lo - j, 0), hi - lo)  # rows whose entry j lies before floor
            total[skip:] += summand[lo + j + skip:hi + j]
        norm = _norms(total)
        mean = np.zeros_like(total)  # zero for a window of zero sentinels
        np.divide(total, norm[:, None], out=mean, where=(norm >= 1e-12)[:, None])
        # where the sum vanishes, an empty window (row 0's, from an empty history) takes
        # psi_c, and a cancelling one its newest kept entry
        vanish = lo + np.flatnonzero(norm < 1e-12)
        empty = vanish + capacity <= floor
        mean[vanish[empty] - lo] = unit[vanish[empty]]
        window = vanish[~empty, None] + np.arange(capacity)  # other rows' window entries
        newest = np.where(kept[window] & (window >= floor), window, -1).max(axis=1, initial=-1)
        mean[vanish[~empty][newest >= 0] - lo] = seq[newest[newest >= 0]]
        u = unit[lo:hi]
        dot = mean[:, 0] * u[:, 0] + mean[:, 1] * u[:, 1] + mean[:, 2] * u[:, 2]
        aligned = dot > e_psi
        flip = move[lo:hi] & ~aligned & (-dot > e_psi)
        # an outlier trusts the history's direction instead of its own
        outlier = move[lo:hi] & ~aligned & ~flip
        return np.where(outlier[:, None], mean, u), flip

    floor = capacity - len(past)
    direction, flip = classify(0, n, floor)
    candidates = np.flatnonzero(flip).tolist() + [n]
    step = np.zeros(n, dtype=np.int64)
    start = n_turns
    f = candidates[0]
    while f < n:
        step[f] = turn = 1 if (d_ij[f] > d_th) == (n_turns % 2 == 0) else -1
        n_turns += turn
        floor = capacity + f  # historical data is stale after a flip
        hi = min(f + capacity, n)
        direction[f + 1:hi], flip[f + 1:hi] = classify(f + 1, hi, floor)
        later = np.flatnonzero(flip[f + 1:hi])
        f = f + 1 + int(later[0]) if later.size else candidates[bisect_left(candidates, hi)]
    turns = start + np.cumsum(step)  # a step function of the flips
    history = tuple(map(tuple, seq[max(n, floor):].tolist()))
    # multiplying by sign negates exactly, so each row rounds as its formula does
    odd = turns % 2 == 1
    sign = np.where(odd, -1.0, 1.0)
    scale = np.zeros_like(d_ij)
    scale[move] = Wjs[move] * ((turns + odd) * np.pi + sign * d_ij)[move] / wsum[move]
    out = np.matmul(Ris, rot_exp_many((sign * scale)[:, None] * direction))
    out[~move] = Ris[~move]
    return out, turns, history


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
