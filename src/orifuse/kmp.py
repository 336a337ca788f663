"""Kernelized trajectory regression in the angle-axis chart.

The model solves a covariance-weighted ridge problem over stacked chart states
eta = [psi, psi_dot] (optionally extended with a psi_ddot block for
acceleration shaping), whose kernel form predicts

    eta(t*) = k*(t*) (K + lambda * Sigma)^-1 mu.

Kernel blocks couple the function and derivative channels: for the scalar
Gaussian kernel g(a, b) = exp(-l (a - b)^2) the (p, q) block entry is
d^p/da^p d^q/db^q g, tensored with I_3.  build_model never forms K: it solves
the same regression in the weight space of Nystrom features on a few inducing
times (Williams and Seeger, NIPS 2001), as many as the kernel's numerical rank
on the rows' time span needs, so a build takes time linear in the row count.
"""

from dataclasses import InitVar, dataclass
from itertools import islice

import numpy as np

from . import so3
from ._kernels import rot_exp, rot_exp_many, rot_log, rot_log_many
from .errors import ChartBoundaryError, ConfigError, FactorizationFailure, SeriesTooShort
from .gmm import ReferenceTrajectory

DEFAULT_DELTA_T = 1e-3
AXES = ("x", "y", "z")
EPS_STRICT_DEFAULT = 1e-10
EPS_LOOSE_DEFAULT = 1e3
WEIGHT_HALF_WIDTH_DEFAULT = 2.4
# minimum chart-distance of a via-point from the ball boundary
CHART_MARGIN = 1e-3
VIA_TIME_TOL = 1e-9
_NOT_FINITE = "the kernel regression is not finite; the kernel length scale l is likely too large"
# query times per slab of the scalar kernel table in predict_many
PREDICT_CHUNK = 2048
# inducing times of the first feature map
INDUCING_TIMES = 20
_VARIANCE_BLOCKS = ("orientation_var", "velocity_var", "acceleration_var")
# the reference plus via-points is a reference too; the old name stays for callers
ExtendedReference = ReferenceTrajectory


@dataclass(frozen=True)
class KernelConfig:
    """Kernel and regularization parameters.

    l is the inverse squared length scale of the Gaussian kernel, lam the
    ridge factor, lambda_a the optional acceleration weight.  lambda_a alone
    selects the derivative blocks: without it the state couples
    (psi, psi_dot), with it psi_ddot is added.  order ("pv" or "pva") may
    still be passed but must agree with lambda_a.
    """

    l: float = 0.01
    lam: float = 1.0
    lambda_a: float | None = None
    order: InitVar[str | None] = None

    def __post_init__(self, order):
        if not 0 < self.l < np.inf:
            raise ValueError("l must be positive and finite")
        if not 0 < self.lam < np.inf:
            raise ValueError("lambda must be positive and finite")
        if self.lambda_a is not None and not 0 < self.lambda_a < np.inf:
            raise ValueError("lambda_a must be positive and finite when given")
        if order is not None and order != ("pv" if self.lambda_a is None else "pva"):
            raise ValueError("order must be 'pva' with lambda_a and 'pv' without")

    @property
    def n_blocks(self):
        return 2 if self.lambda_a is None else 3

    @property
    def state_dim(self):
        return 3 * self.n_blocks


def _variances(value, name):
    """A per-block variance as a 3-vector (a scalar applies to all axes)."""
    if value is None:
        return None
    var = np.asarray(value, dtype=float)
    if var.shape == ():
        var = np.full(3, float(var))
    if var.shape != (3,):
        raise ValueError(f"{name} must be a scalar or a 3-vector")
    if not np.all((0 < var) & (var < np.inf)):
        raise ValueError(f"{name} entries must be positive and finite")
    return var


@dataclass(frozen=True)
class ViaPointSpec:
    """A desired (time, orientation, world-frame angular velocity) with its covariance.

    The covariance is either given explicitly (6x6, or 9x9 block diagonal
    with an acceleration block) or built from a variance pattern: the
    orientation block holds eps_loose on relaxed_axis and eps_strict on the
    other axes, or orientation_var (not both); the velocity block holds
    velocity_var, which defaults to eps_strict; an acceleration block exists
    only when acceleration_var is given, otherwise augment_for_acceleration
    supplies (1/lambda_a) I.  A via-point with a relaxed axis is an
    incomplete-orientation via-point (IOVP).

    rotation is the target relative to frame: the world, or the auxiliary
    frame of the run ("aux").  weight_half_width is the half-width of the
    via's Gaussian weight domain when components are fused.
    """

    t: float
    rotation: np.ndarray
    omega: np.ndarray
    covariance: np.ndarray | None = None
    relaxed_axis: str | None = None
    eps_strict: float = EPS_STRICT_DEFAULT
    eps_loose: float = EPS_LOOSE_DEFAULT
    orientation_var: np.ndarray | None = None
    velocity_var: np.ndarray | None = None
    acceleration_var: np.ndarray | None = None
    weight_half_width: float = WEIGHT_HALF_WIDTH_DEFAULT
    frame: str = "world"

    def __post_init__(self):
        if not np.isfinite(self.t):
            raise ValueError("t must be finite")
        R = so3.check_rotation(self.rotation, name="via rotation")
        omega = np.asarray(self.omega, dtype=float)
        if omega.shape != (3,) or not np.all(np.isfinite(omega)):
            raise ValueError("omega must be a finite 3-vector")
        if self.frame not in ("world", "aux"):
            raise ValueError("frame must be 'world' or 'aux'")
        if self.relaxed_axis is not None and self.relaxed_axis not in AXES:
            raise ValueError("relaxed_axis must be 'x', 'y', 'z' or None")
        # as floats, an integer too large for a float fails here, not in covariance_matrix
        for name in ("eps_strict", "eps_loose", "weight_half_width"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (0 < self.eps_strict < np.inf and 0 < self.eps_loose < np.inf):
            raise ValueError("eps_strict and eps_loose must be positive and finite")
        if self.relaxed_axis is not None and self.eps_strict >= self.eps_loose:
            raise ValueError("a relaxed axis needs eps_strict < eps_loose")
        if not 0 < self.weight_half_width < np.inf:
            raise ValueError("weight_half_width must be positive and finite")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "omega", omega)
        for name in _VARIANCE_BLOCKS:
            object.__setattr__(self, name, _variances(getattr(self, name), name))
        if self.relaxed_axis is not None and self.orientation_var is not None:
            raise ValueError("give either relaxed_axis or orientation_var, not both")
        if self.covariance is None:
            return
        if self.relaxed_axis is not None or any(
            getattr(self, name) is not None for name in _VARIANCE_BLOCKS
        ):
            raise ValueError("give either an explicit covariance or a variance pattern")
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape not in ((6, 6), (9, 9)) or not np.all(np.isfinite(cov)):
            raise ValueError("covariance must be a finite 6x6 or 9x9 matrix")
        if not np.allclose(cov, cov.T):
            raise ValueError("covariance must be symmetric")
        if np.any(np.linalg.eigvalsh(cov) <= 0):
            raise ValueError("covariance must be positive definite")
        if cov.shape == (9, 9) and (
            np.any(cov[:6, 6:] != 0.0) or np.any(cov[6:, :6] != 0.0)
        ):
            raise ValueError("9x9 via covariance must be block diagonal")
        object.__setattr__(self, "covariance", cov)

    def covariance_matrix(self):
        """The explicit covariance, or the diagonal of the variance pattern."""
        if self.covariance is not None:
            return self.covariance.copy()
        orientation = self.orientation_var
        if orientation is None:
            orientation = np.full(3, self.eps_strict, dtype=float)
            if self.relaxed_axis is not None:
                orientation[AXES.index(self.relaxed_axis)] = self.eps_loose
        velocity = self.velocity_var
        if velocity is None:
            velocity = np.full(3, self.eps_strict, dtype=float)
        blocks = [orientation, velocity]
        if self.acceleration_var is not None:
            blocks.append(self.acceleration_var)
        return np.diag(np.concatenate(blocks))

    def target_rotation(self, R_aux=None):
        """The target in the world frame; an aux-frame target is R_aux @ rotation."""
        if self.frame == "world":
            return self.rotation
        if R_aux is None:
            raise ConfigError(f"via at t={self.t} uses frame=aux but no frame is known")
        return R_aux @ self.rotation


@dataclass(frozen=True)
class OrientationTrajectory:
    """Orientation trajectory with world-frame angular velocity.

    A fused trajectory also carries its per-sample component weights and the
    memory average's turn counter after every sample at each fold position
    (chain folds first, the baseline fold last); both are None for a
    regression trajectory, and turn_counts is None when no memory average ran.
    """

    times: np.ndarray        # (N,)
    rotations: np.ndarray    # (N, 3, 3)
    omega_world: np.ndarray  # (N, 3)
    weights: np.ndarray | None = None      # (N, K+1), columns [W_0, W_1, ..., W_K]
    turn_counts: np.ndarray | None = None  # (N, K)

    def __len__(self):
        return self.times.shape[0]


def transform_via_point(vp, R_aux):
    """Express a desired point in the chart of R_aux.

    With R = vp.target_rotation(R_aux) the world target, psi = log(R_aux^T R);
    the chart velocity comes from stepping the desired motion forward by
    delta_t = DEFAULT_DELTA_T:

        R_plus = R * exp(R^T omega * delta_t)
        psi_dot = (log(R_aux^T R_plus) - psi) / delta_t

    Returns (t, eta, covariance) with eta = [psi, psi_dot].
    """
    delta_t = DEFAULT_DELTA_T
    R_aux = so3.check_rotation(R_aux, name="R_aux")
    R = vp.target_rotation(R_aux)
    psi = rot_log(R_aux.T @ R)
    margin = CHART_MARGIN + 2.0 * delta_t * float(np.linalg.norm(vp.omega))
    if np.linalg.norm(psi) > np.pi - margin:
        raise ChartBoundaryError(
            f"via-point at t={vp.t} lies {np.pi - np.linalg.norm(psi):.2e} rad from the "
            "chart boundary; choose an auxiliary frame closer to the target"
        )
    body_step = R.T @ vp.omega * delta_t
    R_plus = R @ rot_exp(body_step)
    psi_plus = rot_log(R_aux.T @ R_plus)
    psi_dot = (psi_plus - psi) / delta_t
    return vp.t, np.concatenate([psi, psi_dot]), vp.covariance_matrix()


def extend_reference(ref, vias, R_aux, lambda_a=None):
    """The regression rows: the reference plus the transformed via-points.

    With lambda_a every row gains a psi_ddot block: the reference rows through
    augment_for_acceleration, a via row its own acceleration block or
    (1/lambda_a) I.  A via-point within VIA_TIME_TOL of a reference time
    replaces that row: the user's tighter covariance wins.  Via-points that
    close to each other raise ValueError.
    """
    if ref.state_dim != 6:
        raise ValueError("the reference must hold (psi, psi_dot) rows")
    if lambda_a is not None:
        ref = augment_for_acceleration(ref, lambda_a)
    dim = ref.state_dim
    via_t = np.array([vp.t for vp in vias], dtype=float)
    ordered = np.sort(via_t)
    close = np.flatnonzero(np.diff(ordered) <= VIA_TIME_TOL)
    if close.size:
        raise ValueError(f"via-points at t={ordered[close[0]]:g} and "
                         f"t={ordered[close[0] + 1]:g} share one time")
    means = np.zeros((len(vias), dim))
    covs = np.zeros((len(vias), dim, dim))
    if lambda_a is not None:
        covs[:, 6:, 6:] = np.eye(3) / lambda_a
    for i, vp in enumerate(vias):
        _, eta, cov = transform_via_point(vp, R_aux)
        if cov.shape[0] > dim:
            raise ConfigError(f"via at t={vp.t:g} has an acceleration block but the kernel "
                              "has no lambda_a")
        means[i, :6] = eta
        covs[i, :cov.shape[0], :cov.shape[0]] = cov
    keep = ~(np.abs(ref.times[:, None] - via_t) <= VIA_TIME_TOL).any(axis=1)
    times = np.concatenate([ref.times[keep], via_t])
    order = np.argsort(times, kind="stable")
    return ReferenceTrajectory(times[order], np.concatenate([ref.means[keep], means])[order],
                               np.concatenate([ref.covariances[keep], covs])[order])


def augment_for_acceleration(ref, lambda_a):
    """Add zero acceleration targets weighted by lambda_a.

    Every mean gains a zero psi_ddot block and every covariance a
    (1/lambda_a) I_3 block.
    """
    if lambda_a <= 0:
        raise ValueError("lambda_a must be positive")
    if ref.state_dim != 6:
        raise ValueError("reference is already acceleration-augmented")
    n = len(ref)
    means = np.zeros((n, 9))
    means[:, :6] = ref.means
    covs = np.zeros((n, 9, 9))
    covs[:, :6, :6] = ref.covariances
    covs[:, 6:, 6:] = np.eye(3) / lambda_a
    return ReferenceTrajectory(ref.times.copy(), means, covs)


def _gaussian_derivatives(d, l):
    """g(d) = exp(-l d^2) and its first four derivatives in d, each built when asked for."""
    d2 = d * d
    g = np.exp(-l * d2)
    yield g
    yield -2.0 * l * d * g
    yield (4.0 * l**2 * d2 - 2.0 * l) * g
    yield (12.0 * l**2 - 8.0 * l**3 * d2) * d * g
    yield ((16.0 * l**4 * d2 - 48.0 * l**3) * d2 + 12.0 * l**2) * g


def gaussian_scalar_blocks(a, b, l, order, rows=None):
    """Scalar kernel derivative table for the Gaussian kernel.

    Returns S with S[p, q] = d^p/da^p d^q/db^q exp(-l (a - b)^2) evaluated on
    the grid a x b, shape (rows, order, len(a), len(b)): only the leading rows
    derivative orders p in a are built, all order of them by default.  As
    d/db = -d/dd for d = a - b, S[p, q] = (-1)^q g^(p+q)(d) with g(d) = exp(-l d^2).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rows = order if rows is None else rows
    derivatives = list(islice(_gaussian_derivatives(a[:, None] - b[None, :], l),
                              rows + order - 1))
    return np.array([[-derivatives[p + q] if q % 2 else derivatives[p + q]
                      for q in range(order)] for p in range(rows)])


class KmpModel:
    """Weight-space kernel regression model; immutable after build.

    times are the regression's row times; inducing are the times z of the
    features it was solved on, and alpha holds, per derivative block q, the
    (M, 3) weights of the scalar table columns S[p, q](t*, z) in predict_many.
    """

    def __init__(self, times, inducing, alpha, cfg, scalar_blocks):
        self.times = times
        self.inducing = inducing
        self.alpha = alpha  # (n_blocks, M, 3)
        self.cfg = cfg
        self._scalar_blocks = scalar_blocks

    def predict_many(self, t_stars, rows=None):
        """Predictions on a batch of query times, shape (Q, 3 * rows).

        Only the leading rows blocks of the state are predicted, all of them
        by default; rows=1 gives psi alone and builds no derivative row of
        the kernel table.
        """
        t_stars = np.asarray(t_stars, dtype=float)
        nb = self.cfg.n_blocks
        rows = nb if rows is None else rows
        if not 1 <= rows <= nb:
            raise ValueError(f"rows must be between 1 and {nb}")
        out = np.empty((t_stars.shape[0], 3 * rows))
        # eta_p(t*) = sum_q S[p, q](t*, z) @ alpha[q], one matmul per
        # (p, q) slab of the scalar table
        for lo in range(0, t_stars.shape[0], PREDICT_CHUNK):
            hi = min(lo + PREDICT_CHUNK, t_stars.shape[0])
            s = self._scalar_blocks(t_stars[lo:hi], self.inducing, nb, rows)
            for p in range(rows):
                eta = s[p, 0] @ self.alpha[0]
                for q in range(1, nb):
                    eta += s[p, q] @ self.alpha[q]
                out[lo:hi, 3 * p:3 * p + 3] = eta
        return out


def _table(s):
    """The scalar table (nb, nb, A, B) as a matrix over (block, time)^2."""
    nb, _, na, nz = s.shape
    return s.transpose(0, 2, 1, 3).reshape(nb * na, nb * nz)


def _feature_map(times, nb, scalar_blocks):
    """Inducing times z and the map V Lambda^-1/2 from their table to features.

    z starts as INDUCING_TIMES uniform times on the span of times.  Of the
    eigenpairs of the scalar table S_zz only those above dim * eps of the
    largest are kept, the rounding level of eigh (numpy's matrix_rank default).
    While as many features are kept as there are inducing times, the function
    values at z alone are not yet redundant and z may be too coarse for the
    kernel, so the number of times doubles, until it would reach the row count
    and z becomes the row times themselves.
    """
    m = INDUCING_TIMES
    while True:
        z = times if m >= times.shape[0] else np.linspace(times[0], times[-1], m)
        s = _table(scalar_blocks(z, z, nb))
        if not np.all(np.isfinite(s)):
            raise FactorizationFailure(_NOT_FINITE)
        vals, vecs = np.linalg.eigh(s)
        keep = vals > s.shape[0] * np.finfo(float).eps * vals[-1]
        if z is times or keep.sum() < m:
            return z, vecs[:, keep] / np.sqrt(vals[keep])
        m *= 2


def build_model(ext, cfg, scalar_blocks=None):
    """Solve the regression in the weight space of Nystrom features of the kernel.

    With the features B = S_xz V Lambda^-1/2 of _feature_map, the kernel is
    K = Phi Phi^T for Phi = B (x) I_3, and the prediction k*(K + lambda Sigma)^-1 mu
    equals Phi*(t*) w for the w that minimizes |Psi w - r|^2 + |w|^2, where Psi and
    r are Phi and mu whitened row by row with the Cholesky factor of lambda Sigma_i.
    The model keeps V Lambda^-1/2 w per derivative block, so a prediction is one
    product with the scalar table S(t*, z).  A lambda Sigma_i that is not positive
    definite raises FactorizationFailure.

    scalar_blocks(a, b, order) may override the Gaussian table, which builds only
    the rows a prediction asks for; the kernel-trick equivalence tests inject an
    explicit finite basis here, and a prediction slices its rows from that table.
    """
    if len(ext) < 1:
        raise ValueError("need at least one reference point")
    if ext.state_dim != cfg.state_dim:
        raise ValueError(
            f"reference state dim {ext.state_dim} does not match the kernel "
            f"(expects {cfg.state_dim})"
        )
    if np.any(np.diff(ext.times) <= 0):
        raise ValueError("reference times must be strictly increasing")
    if scalar_blocks is None:
        def scalar_blocks(a, b, order, rows=None, _l=cfg.l):
            return gaussian_scalar_blocks(a, b, _l, order, rows)
    else:
        def scalar_blocks(a, b, order, rows=None, _blocks=scalar_blocks):
            return _blocks(a, b, order)[:rows]
    nb = cfg.n_blocks
    n = len(ext)
    dim = nb * 3
    try:
        z, proj = _feature_map(ext.times, nb, scalar_blocks)
        features = _table(scalar_blocks(ext.times, z, nb)) @ proj  # rows (block, time)
    except OverflowError:  # a power of l beyond the float range
        raise FactorizationFailure(_NOT_FINITE) from None
    rank = proj.shape[1]
    # Phi_i = B_i (x) I_3 over rows (block, axis) and columns (feature, axis)
    phi = np.zeros((n, nb, 3, rank, 3))
    for a in range(3):
        phi[:, :, a, :, a] = features.reshape(nb, n, rank).transpose(1, 0, 2)
    try:
        chol = np.linalg.cholesky(cfg.lam * ext.covariances)
    except np.linalg.LinAlgError:
        raise FactorizationFailure(_not_positive_definite(ext, cfg)) from None
    k = 3 * rank
    white = np.linalg.solve(chol, np.concatenate(
        [phi.reshape(n, dim, k), ext.means[:, :, None]], axis=2))
    # w = argmin |Psi w - r|^2 + |w|^2 from the R factor of [Psi r; I 0], whose last
    # column holds Q^T r: the normal equations would square the condition number,
    # which a tight via row's whitening makes large
    stacked = np.zeros((n * dim + k, k + 1))
    stacked[:n * dim] = white.reshape(n * dim, k + 1)
    stacked[n * dim:, :k] = np.eye(k)
    upper = np.linalg.qr(stacked, mode="r")
    w = np.linalg.solve(upper[:k, :k], upper[:k, k])
    alpha = proj.reshape(nb, z.shape[0], rank) @ w.reshape(rank, 3)
    # nothing above checks for inf or nan, which the solves may let through
    if not np.all(np.isfinite(alpha)):
        raise FactorizationFailure(_NOT_FINITE)
    return KmpModel(ext.times.copy(), z.copy(), alpha, cfg, scalar_blocks)


def _not_positive_definite(ext, cfg):
    """The message for the first row whose lambda Sigma_i has no Cholesky factor."""
    for t, cov in zip(ext.times, ext.covariances):
        try:
            np.linalg.cholesky(cfg.lam * cov)
        except np.linalg.LinAlgError:
            break
    return (f"lambda*Sigma of the row at t={t:g} is not positive definite; raise the "
            "via variances (eps_strict, orientation_var, velocity_var, acceleration_var)")


def angular_velocities(rotations, dt):
    """World-frame angular velocity of a uniformly sampled rotation sequence.

    Central differences of the relative logs in the interior, second-order
    one-sided stencils at the ends.
    """
    Rs = np.asarray(rotations, dtype=float)
    n = Rs.shape[0]
    if n < 2:
        raise SeriesTooShort("need at least 2 rotations")
    if dt <= 0:
        raise ValueError("dt must be positive")
    omega = np.empty((n, 3))
    if n == 2:
        w = rot_log(Rs[0].T @ Rs[1]) / dt
        omega[0] = Rs[0] @ w
        omega[1] = Rs[1] @ w
        return omega
    rel = np.einsum("nji,njk->nik", Rs[:-2], Rs[2:])
    body = rot_log_many(rel) / (2.0 * dt)
    omega[1:-1] = np.einsum("nij,nj->ni", Rs[1:-1], body)
    first = (
        4.0 * rot_log(Rs[0].T @ Rs[1])
        - rot_log(Rs[0].T @ Rs[2])
    ) / (2.0 * dt)
    last = (
        4.0 * rot_log(Rs[-1].T @ Rs[-2])
        - rot_log(Rs[-1].T @ Rs[-3])
    ) / (-2.0 * dt)
    omega[0] = Rs[0] @ first
    omega[-1] = Rs[-1] @ last
    return omega


def reproduce_orientation_trajectory(model, R_aux, times):
    """Recover R(t) = R_aux exp(psi(t)) on a uniform grid, with velocities."""
    R_aux = so3.check_rotation(R_aux, name="R_aux")
    times = np.asarray(times, dtype=float)
    if times.shape[0] < 2:
        raise SeriesTooShort("need at least 2 grid points")
    steps = np.diff(times)
    if np.any(steps <= 0):
        raise ValueError("grid must be strictly increasing")
    if not np.allclose(steps, steps[0], rtol=0.0, atol=1e-9):
        raise ValueError("grid must be uniform for velocity recovery")
    # only psi enters the rotations; the velocities come from them, not from psi_dot
    psis = model.predict_many(times, rows=1)
    rotations = np.einsum("ij,njk->nik", R_aux, rot_exp_many(psis))
    omega = angular_velocities(rotations, float(steps[0]))
    return OrientationTrajectory(times.copy(), rotations, omega)
