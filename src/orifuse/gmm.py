"""Mixture modeling of projected demonstrations and reference extraction.

Demonstrations are projected into the angle-axis chart of an auxiliary frame,
stacked as (t, psi, psi_dot) rows in R^7, fit with a Gaussian mixture, and
condensed into a probabilistic reference trajectory by conditioning on time.
"""

from dataclasses import dataclass, field

import numpy as np

from . import so3
from .errors import DegenerateData, SeriesTooShort

DEFAULT_COMPONENTS = 5
COVARIANCE_FLOOR = 1e-8
EM_MAX_ITER = 500
# nats per row: EM stops once an iteration gains less mean log-likelihood than this
EM_TOL = 1e-5
# the E-step's exp runs only above this shifted log-probability and writes 0 elsewhere:
# exp(-700) = 9.9e-305 is normal, and so is its share of a row's total (1 to K) for any
# K below 4400; between -708.4 and -745.1 exp is subnormal and takes numpy's slow path,
# and a subnormal responsibility slows the moment product
EXP_UNDERFLOW = -700.0


@dataclass(frozen=True)
class Demonstration:
    """Uniformly sampled orientation trajectory (t_n, R_n)."""

    times: np.ndarray       # (N,)
    rotations: np.ndarray   # (N, 3, 3)
    positions: np.ndarray | None = None  # optional (N, 3), carried for interop

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        R = np.asarray(self.rotations, dtype=float)
        if t.ndim != 1 or R.shape != (t.shape[0], 3, 3):
            raise ValueError("times must be (N,) and rotations (N, 3, 3)")
        if t.shape[0] >= 2 and np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "rotations", R)

    def __len__(self):
        return self.times.shape[0]

    @property
    def dt(self):
        if len(self) < 2:
            raise SeriesTooShort("demonstration has fewer than 2 samples")
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True)
class ProjectedDemonstration:
    """Chart-space trajectory (t_n, eta_n) with eta = [psi, psi_dot]."""

    times: np.ndarray  # (N,)
    eta: np.ndarray    # (N, 6)


@dataclass(frozen=True)
class GaussianMixture:
    priors: np.ndarray        # (K,)
    means: np.ndarray         # (K, 7)
    covariances: np.ndarray   # (K, 7, 7)
    log_likelihoods: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def n_components(self):
        return self.priors.shape[0]


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Time-sorted regression rows; D = 6 for (psi, psi_dot), 9 with psi_ddot.

    default_acc marks the rows whose psi_ddot block is the default (1/lambda_a) I with
    a zero target, as kmp.augment_for_acceleration adds them; kmp.build_model takes
    their weight from the kernel's lambda_a.  None marks no row.
    """

    times: np.ndarray        # (N,)
    means: np.ndarray        # (N, D)
    covariances: np.ndarray  # (N, D, D)
    default_acc: np.ndarray | None = None  # (N,) bool

    def __len__(self):
        return self.times.shape[0]

    @property
    def state_dim(self):
        return self.means.shape[1]


def project_demonstrations(demos, R_aux):
    """Project each demonstration into the chart around R_aux.

    psi_n = log(R_aux^T R_n); psi_dot by finite differences on the uniform
    time grid of each demonstration.
    """
    R_aux = so3.check_rotation(R_aux, name="R_aux")
    out = []
    for demo in demos:
        if len(demo) < 2:
            raise SeriesTooShort("demonstrations need at least 2 samples")
        psi = so3.log_map_many(np.matmul(R_aux.T, demo.rotations))
        psi_dot = so3.finite_difference_velocity(psi, demo.dt)
        out.append(ProjectedDemonstration(demo.times.copy(), np.hstack([psi, psi_dot])))
    return out


def stack_training_rows(projected):
    """Stack projected demonstrations into (t, eta) rows in R^7."""
    rows = [np.column_stack([p.times, p.eta]) for p in projected]
    return np.vstack(rows)


def _kmeanspp_init(data, k, rng):
    """k-means++ seeding followed by a hard assignment."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = np.sum((data - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = data[rng.integers(n)]
        else:
            centers[j] = data[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((data - centers[j]) ** 2, axis=1))
    dists = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(dists, axis=1)
    priors = np.empty(k)
    means = np.empty_like(centers)
    covs = np.empty((k, data.shape[1], data.shape[1]))
    eye = np.eye(data.shape[1])
    for j in range(k):
        members = data[labels == j]
        if members.shape[0] == 0:
            members = data[[rng.integers(n)]]
        priors[j] = max(members.shape[0], 1) / n
        means[j] = members.mean(axis=0)
        diff = members - means[j]
        covs[j] = diff.T @ diff / members.shape[0] + COVARIANCE_FLOOR * eye
    priors /= priors.sum()
    return priors, means, covs


def _upper_pairs(size):
    """np.triu_indices(size) and a factor per pair: -1/2 on the diagonal, -1 off it.

    The factors turn the upper triangle of a symmetric Q into the coefficients of
    -h^T Q h / 2 over upper(h h^T).
    """
    rows, cols = np.triu_indices(size)
    return rows, cols, np.where(rows == cols, -0.5, -1.0)


def _homogeneous_design(data, centre, pairs):
    """upper(h h^T) of every row's h = [1, x - centre], one row per pair: (M, N).

    In np.triu_indices order the rows are [1, x - c, upper((x - c)(x - c)^T)].
    """
    h = np.vstack([np.ones(data.shape[0]), (data - centre).T])
    return h[pairs[0]] * h[pairs[1]]


def _log_density_coefficients(means, covs, centre, pairs):
    """Coefficients of log N(x; mu_k, Sigma_k) over the homogeneous design's rows: (K, M).

    Q_k = W_k^T W_k with W_k = [-L_k^-1 (mu_k - c) | L_k^-1], times the pairs' factors;
    the ones row also carries -sum log diag L_k - (D/2) log 2 pi (fit_gmm derives it).
    """
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateData(f"covariance not positive definite: {exc}") from exc
    chol_inv = np.linalg.inv(chol)
    k, dim = means.shape
    w = np.empty((k, dim, dim + 1))
    w[:, :, 1:] = chol_inv
    w[:, :, 0] = (chol_inv @ (centre - means)[:, :, None])[:, :, 0]
    quad = np.matmul(w.transpose(0, 2, 1), w)
    coef = quad[:, pairs[0], pairs[1]] * pairs[2]
    coef[:, 0] -= (np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
                   + 0.5 * dim * np.log(2.0 * np.pi))
    return coef


def fit_gmm(data, n_components=DEFAULT_COMPONENTS, seed=0):
    """Fit a Gaussian mixture over (t, eta) rows by EM.

    k-means++ initialization from the given seed, responsibilities computed in
    log space, a COVARIANCE_FLOOR * I added in every M-step.  The per-iteration
    log-likelihood trace, a mean per row, is kept on the returned mixture.

    EM stops after EM_MAX_ITER iterations, or at the first iteration whose gain
    in mean log-likelihood per row is below EM_TOL = 1e-5 nats; a dip stops it
    too.  An absolute increment is the classic EM stop (McLachlan and Krishnan,
    The EM Algorithm and Extensions, 2008).  A gain relative to |ll| set a
    threshold 2.7x apart between the charts of one sweep (|ll| of 4.96 to
    13.27) and ran on to gains of about 1e-7 nats, where the mean
    log-likelihood's own sampling error on those charts is 0.075-0.17 nats.
    On the target-sweep scene the rule takes 1712 iterations over 15 fits
    where the relative 1e-8 took 2364, and moves the sweep's costs by at most
    0.72% (0.91% from an EM run on to gains of 1e-12).  A tolerance of 1e-6
    takes 1984 iterations and moves them by 0.18%; 3e-5 takes 1582 and moves
    them by 1.3%, the lambda-sweep's by 1.7%.  The fit is not unit-invariant
    under either rule: the absolute COVARIANCE_FLOOR ties it to the rows' units.

    An iteration is two matrix products plus (K, N) and (K, D, D) work, and both
    products share one design matrix made once per fit: upper(h h^T) of every row's
    homogeneous h = [1, x - c], c the rows' mean, an (M, N) array with
    M = (D+1)(D+2)/2 (36 at D = 7) whose rows, in np.triu_indices order, are
    [1, x - c, upper((x - c)(x - c)^T)].  With L_k the Cholesky factor of Sigma_k and
    W_k = [-L_k^-1 (mu_k - c) | L_k^-1], W_k h = L_k^-1 (x - mu_k), so the
    Mahalanobis term is h^T Q_k h with Q_k = W_k^T W_k.  The E-step takes every
    log pi_k N(x_n; mu_k, Sigma_k) from one (K x M) @ (M x N) product: a coefficient
    is -Q_k/2 on the diagonal and -Q_k off it (both triangles in one), and the ones
    row also carries log pi_k - sum log diag L_k - (D/2) log 2 pi.  Q_k comes from
    the triangular factor's inverse, as the whitening it replaced did: an LU inverse of
    Sigma_k rounds differently at floor components, and on the target-sweep scene it
    moved one fit's final log-likelihood by 28 nats per row and the 15 fits' iterations
    from 1712 to 1701.  The log-sum-exp over components follows, with exp only above
    EXP_UNDERFLOW = -700 and 0 elsewhere, so that neither exp nor the normalized
    responsibility is subnormal (see EXP_UNDERFLOW).  The M-step is resp @ design^T:
    its columns, divided by the weights, are upper(E[h h^T]) under each component,
    which hold the weights, the mean shifts s from c and the second moments about c,
    whose upper triangle is mirrored into each covariance before s s^T is subtracted.

    Working about c costs precision to cancellation in both steps.  The moments lose
    eps E|x - c|^2 against a sum about each component's own mean; the quadratic form
    loses about eps |h|^T |Q_k| |h| per row against a whitening of x - mu_k (the test
    suite bounds it by (M + 1 + 5 (D + 1)) eps times the magnitudes of the
    log-density's terms, and has seen 7.3 eps of them).  On chart-scale rows (psi_dot
    up to 50 rad/s) the parameters stay within about 1e-11 of the reference sums,
    relative to their largest entry.  A component on the covariance floor has
    eigenvalues of 1e-8, so |Q_k| reaches 1e8 there and its log-density errs by the
    same order as the moments' error moves its log-determinant: the final
    log-likelihood moves by up to a few 1e-6, and where a gain lies that close to
    EM_TOL, the stop moves by an iteration.  The floor also breaks EM's monotone
    ascent: an M-step plus COVARIANCE_FLOOR * I no longer maximizes, and the trace can
    dip: by 1.2e-9 on 20 rows in 2 dimensions, and by 7.3e-6 at iteration 212 of a
    target-sweep fit whose covariances reach a condition number of 4e8.

    Rows whose squared deviations could overflow, any entry above
    sqrt(max float / (4 n D)), raise DegenerateData before k-means++ seeds.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("data must be a 2-d row matrix")
    n, dim = data.shape
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    if n < 10 * n_components:
        raise DegenerateData(
            f"{n} rows cannot support {n_components} components (need >= {10 * n_components})"
        )
    # k-means++ and the moment sums add up n * dim squared deviations, each at most
    # (2 max|x|)^2: bound them before anything squares a row
    limit = np.sqrt(np.finfo(float).max / (4.0 * n * dim))
    largest = np.abs(data).max()
    if not largest <= limit:
        raise DegenerateData(
            f"squared deviations of the rows overflow: an entry of {largest:.3g} exceeds "
            f"{limit:.3g} for {n} rows in {dim} dimensions"
        )
    rng = np.random.default_rng(seed)
    priors, means, covs = _kmeanspp_init(data, n_components, rng)
    centre = data.mean(axis=0)
    pairs = _upper_pairs(dim + 1)
    design = _homogeneous_design(data, centre, pairs)
    index = np.empty((dim + 1, dim + 1), dtype=int)  # entry (i, j) of h h^T -> its design row
    index[pairs[:2]] = index[pairs[1::-1]] = np.arange(design.shape[0])
    floor = COVARIANCE_FLOOR * np.eye(dim)
    trace = []
    prev_ll = -np.inf
    for _ in range(EM_MAX_ITER):
        # E-step in log space: every log pi_k N(x_n; mu_k, Sigma_k) from one product
        coef = _log_density_coefficients(means, covs, centre, pairs)
        coef[:, 0] += np.log(priors)
        log_prob = coef @ design
        top = log_prob.max(axis=0)
        log_prob -= top
        resp = np.exp(log_prob, out=np.zeros_like(log_prob), where=log_prob > EXP_UNDERFLOW)
        total = resp.sum(axis=0)
        ll = float((top + np.log(total)).mean())
        trace.append(ll)
        resp /= total
        # M-step from upper(E[h h^T]) under each component, with covariance floor
        moments = resp @ design.T
        weights = moments[:, 0]
        if np.any(weights <= 0):
            raise DegenerateData("a mixture component lost all responsibility")
        priors = weights / n
        moments[:, 1:] /= weights[:, None]
        shift = moments[:, index[0, 1:]]
        means = centre + shift
        covs = moments[:, index[1:, 1:]]
        covs -= shift[:, :, None] * shift[:, None, :]
        covs += floor
        if ll - prev_ll < EM_TOL:
            break
        prev_ll = ll
    priors = priors / priors.sum()
    try:
        np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateData("rank-deficient component after flooring") from exc
    return GaussianMixture(priors, means, covs, np.asarray(trace))


def _conditioning_terms(gmm):
    """Per-component terms reused across query times.

    Returns (slopes (K,6), cond_covs (K,6,6)): the conditional mean is
    mu_eta + slope * (t - mu_t) and the conditional covariance is constant.
    """
    covs = gmm.covariances
    var_t = covs[:, 0, 0, None]
    cross = covs[:, 1:, 0]
    cond_covs = covs[:, 1:, 1:] - cross[:, :, None] * cross[:, None, :] / var_t[:, :, None]
    return cross / var_t, 0.5 * (cond_covs + cond_covs.transpose(0, 2, 1))


def _gmr_batch(gmm, times):
    """Condition the mixture on each query time (moment-matched covariance)."""
    times = np.asarray(times, dtype=float)
    q = times.shape[0]
    k = gmm.n_components
    slopes, cond_covs = _conditioning_terms(gmm)
    mu_t = gmm.means[:, 0]
    var_t = gmm.covariances[:, 0, 0]
    # responsibilities h_k(t) in log space
    dt = times[:, None] - mu_t[None, :]
    log_h = (
        np.log(gmm.priors)[None, :]
        - 0.5 * (dt**2 / var_t[None, :] + np.log(2.0 * np.pi * var_t)[None, :])
    )
    log_h -= log_h.max(axis=1, keepdims=True)
    h = np.exp(log_h)
    h /= h.sum(axis=1, keepdims=True)
    # component conditional means, (Q, K, 6)
    mu_k = gmm.means[None, :, 1:] + dt[:, :, None] * slopes[None, :, :]
    mu = np.einsum("qk,qkd->qd", h, mu_k)
    # law of total variance
    sigma = (h @ cond_covs.reshape(k, -1)).reshape(q, *cond_covs.shape[1:])
    sigma += np.matmul(mu_k.transpose(0, 2, 1) * h[:, None, :], mu_k)
    sigma -= np.einsum("qd,qe->qde", mu, mu)
    sigma = 0.5 * (sigma + sigma.transpose(0, 2, 1))
    return mu, sigma


def gmr_condition(gmm, t):
    """Conditional mean and covariance of eta given time t."""
    mu, sigma = _gmr_batch(gmm, np.array([float(t)]))
    return mu[0], sigma[0]


def extract_reference(gmm, times):
    """Probabilistic reference trajectory on a strictly increasing grid."""
    times = np.asarray(times, dtype=float)
    if times.size and np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if times.size == 0:
        return ReferenceTrajectory(times, np.empty((0, 6)), np.empty((0, 6, 6)))
    mu, sigma = _gmr_batch(gmm, times)
    return ReferenceTrajectory(times.copy(), mu, sigma)
