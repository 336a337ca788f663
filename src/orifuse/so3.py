"""Boundary-aware geometry of SO(3) and its angle-axis chart.

Rotations are plain 3x3 numpy arrays.  The chart maps rotations to the closed
ball of radius pi in R^3 (direction = axis, norm = angle); boundary points are
canonicalized onto the positive half sphere so the map is one-to-one.  All
functions are pure and all arrays returned are fresh.
"""

import numpy as np

from . import _kernels
from .errors import NotARotation, SeriesTooShort

# Frobenius tolerance for R^T R - I and |det(R) - 1|
ORTHOGONALITY_TOL = 1e-8

_IDENTITY = np.eye(3)


def non_rotations(Rs, tol=ORTHOGONALITY_TOL):
    """Mask of the entries of an (N, 3, 3) stack that are not rotations.

    An entry fails when it is not finite, when ||R^T R - I||_F > tol or when
    |det(R) - 1| > tol; the checks run on the whole stack at once.
    """
    Rs = np.asarray(Rs, dtype=float)
    if Rs.ndim != 3 or Rs.shape[1:] != (3, 3):
        raise NotARotation(f"expected an (N, 3, 3) stack, got shape {Rs.shape}")
    finite = np.isfinite(Rs).all(axis=(1, 2))
    safe = np.where(finite[:, None, None], Rs, _IDENTITY)
    gram_err = np.linalg.norm(np.matmul(safe.transpose(0, 2, 1), safe) - _IDENTITY, axis=(1, 2))
    det_err = np.abs(np.linalg.det(safe) - 1.0)
    return ~finite | (gram_err > tol) | (det_err > tol)


def is_rotation(R, tol=ORTHOGONALITY_TOL):
    """True when R is special orthogonal within the Frobenius tolerance."""
    R = np.asarray(R, dtype=float)
    return R.shape == (3, 3) and not non_rotations(R[None], tol)[0]


def check_rotation(R, name="R"):
    R = np.asarray(R, dtype=float)
    if not is_rotation(R):
        raise NotARotation(f"{name} is not a rotation (shape {R.shape})")
    return R


def orthonormalize(R, name="R"):
    """Nearest rotation by polar decomposition.

    Explicit repair step for finite-precision inputs; never applied silently.
    Rejects non-finite entries, on which the SVD fails or never returns, and
    reflections (det < 0).
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3) or not np.isfinite(R).all():
        raise NotARotation(f"{name} is not a finite (3, 3) matrix (shape {R.shape})")
    u, _, vt = np.linalg.svd(R)
    out = u @ vt
    if np.linalg.det(out) < 0:
        raise NotARotation(f"{name} is closer to a reflection than a rotation")
    return out


def exp_map(psi):
    """Rodrigues formula; total on R^3."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {psi.shape}")
    return _kernels.rot_exp(psi)


def log_map(R):
    """Angle-axis chart coordinates of R, inside the closed pi-ball."""
    R = check_rotation(R)
    return _kernels.rot_log(R)


def geodesic_distance(Ri, Rj):
    """Rotation angle of Ri^T Rj, the intrinsic metric on SO(3)."""
    Ri = check_rotation(Ri, name="Ri")
    Rj = check_rotation(Rj, name="Rj")
    return float(_kernels.geodesic_distances(Ri[None], Rj[None])[0])


def project_to_frame(R, R_aux):
    """Chart coordinates of R in the chart extended around R_aux."""
    R = check_rotation(R)
    R_aux = check_rotation(R_aux, name="R_aux")
    return _kernels.rot_log(R_aux.T @ R)


def recover_orientation(psi, R_aux):
    """R_aux * exp(psi); psi may lie outside the pi-ball."""
    R_aux = check_rotation(R_aux, name="R_aux")
    psi = np.asarray(psi, dtype=float)
    return R_aux @ _kernels.rot_exp(psi)


def log_map_many(Rs):
    """Chart coordinates of an (N, 3, 3) stack, checked like is_rotation.

    The first entry that fails the check is named in the error.
    """
    bad = np.flatnonzero(non_rotations(Rs))
    if bad.size:
        raise NotARotation(f"entry {bad[0]} is not a rotation")
    return _kernels.rot_log_many(np.asarray(Rs, dtype=float))


def finite_difference_velocity(psi_series, dt):
    """Time derivative of a uniformly sampled chart trajectory.

    Central differences in the interior, second-order one-sided stencils at
    the ends; the output has the same length as the input.
    """
    psi = np.asarray(psi_series, dtype=float)
    if psi.ndim != 2 or psi.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) series, got shape {psi.shape}")
    n = psi.shape[0]
    if n < 2:
        raise SeriesTooShort(f"need at least 2 samples, got {n}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    vel = np.empty_like(psi)
    if n == 2:
        vel[0] = vel[1] = (psi[1] - psi[0]) / dt
        return vel
    vel[1:-1] = (psi[2:] - psi[:-2]) / (2.0 * dt)
    vel[0] = (-3.0 * psi[0] + 4.0 * psi[1] - psi[2]) / (2.0 * dt)
    vel[-1] = (3.0 * psi[-1] - 4.0 * psi[-2] + psi[-3]) / (2.0 * dt)
    return vel
