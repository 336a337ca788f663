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
# fit_gmms stacks as many fits as their designs fit in this many bytes, at least one
EM_SLOT_BYTES = 2**20


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
    """np.triu_indices(size) and the factors, -1/2 on the diagonal and -1 off it, that
    turn a symmetric Q's upper triangle into the coefficients of -h^T Q h / 2."""
    rows, cols = np.triu_indices(size)
    return rows, cols, np.where(rows == cols, -0.5, -1.0)


def _homogeneous_design(data, centre, pairs):
    """upper(h h^T) of every row's h = [1, x - c], c = centre, one row per pair: (M, N),
    in np.triu_indices order [1, x - c, upper((x - c)(x - c)^T)]."""
    h = np.vstack([np.ones(data.shape[0]), (data - centre).T])
    return h[pairs[0]] * h[pairs[1]]


def _log_density_coefficients(means, covs, centre, pairs):
    """Coefficients of log N(x; mu_k, Sigma_k) over the homogeneous design's rows: (..., K, M).

    With L_k the Cholesky factor of Sigma_k and W_k = [-L_k^-1 (mu_k - c) | L_k^-1],
    the Mahalanobis term is h^T Q_k h with Q_k = W_k^T W_k; the ones row also carries
    -sum log diag L_k - (D/2) log 2 pi.  Q_k comes from the triangular factor's
    inverse, as a whitening of x - mu_k would: an LU inverse of Sigma_k rounds
    differently at floor components, where |Q_k| is large, and moves the fits'
    log-likelihoods and stops.  A stack passes (S, K, D) means and (S, 1, D) centres.
    """
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateData(f"covariance not positive definite: {exc}") from exc
    chol_inv = np.linalg.inv(chol)
    dim = means.shape[-1]
    w = np.empty(chol_inv.shape[:-1] + (dim + 1,))
    w[..., 1:] = chol_inv
    w[..., 0] = (chol_inv @ (centre - means)[..., None])[..., 0]
    quad = np.matmul(w.swapaxes(-1, -2), w)
    # each fit's (K, M) block M-major, as fancy indexing lays out a lone fit's: the
    # E-step's BLAS call, and with it the rounding, follows the block's strides
    k = quad.shape[-3]
    coef = np.empty(quad.shape[:-3] + (pairs[0].size, k)).swapaxes(-1, -2)
    np.multiply(quad[..., pairs[0], pairs[1]], pairs[2], out=coef)
    coef[..., 0] -= (np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
                     + 0.5 * dim * np.log(2.0 * np.pi))
    return coef


def _em_start(data, n_components, seed, pairs):
    """(priors, means, covs, centre, design) of a fit's first iteration, after its checks."""
    n, dim = data.shape
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
    priors, means, covs = _kmeanspp_init(data, n_components, np.random.default_rng(seed))
    centre = data.mean(axis=0)
    return priors, means, covs, centre, _homogeneous_design(data, centre, pairs)


def _em_step(design, centre, pairs, priors, means, covs):
    """(mean log-likelihood per row, upper(E[h h^T]) moments) of one EM iteration.

    Both steps share the design of h = [1, x - c], c the rows' mean; divided by the
    weights, the M-step sums resp @ design^T are upper(E[h h^T]) under each component.
    Working about c costs precision to cancellation: the moments lose eps E|x - c|^2,
    the quadratic form about eps |h|^T |Q_k| |h| per row.  |Q_k| reaches 1e8 at a floor
    component, where the final log-likelihood moves by up to a few 1e-6: a gain that
    close to EM_TOL moves the stop by an iteration.

    Shape-generic: one fit's (M, N) design, (D,) centre and (K, ...) parameters give a
    scalar and (K, M) moments; a stack of S fits' (S, M, N), (S, 1, D) and (S, K, ...)
    arrays gives (S,) and (S, K, M), each fit's bit for bit as on its own.
    """
    # E-step in log space: every log pi_k N(x_n; mu_k, Sigma_k) from one product
    coef = _log_density_coefficients(means, covs, centre, pairs)
    coef[..., 0] += np.log(priors)
    log_prob = coef @ design
    top = log_prob.max(axis=-2)
    log_prob -= top[..., None, :]
    resp = np.exp(log_prob, out=np.zeros(log_prob.shape), where=log_prob > EXP_UNDERFLOW)
    total = resp.sum(axis=-2)
    ll = (top + np.log(total)).sum(axis=-1) / total.shape[-1]
    resp /= total[..., None, :]
    # M-step sums: upper(E[h h^T]) under each component, unnormalized
    moments = resp @ design.swapaxes(-1, -2)
    if np.any(moments[..., 0] <= 0):
        raise DegenerateData("a mixture component lost all responsibility")
    return ll, moments


def _em_parameters(moments, centre, n, index, floor):
    """(priors, means, covs) of the M-step from _em_step's moments, floored; shape-generic.

    index maps entry (i, j) of h h^T to its design row.  Divides moments in place."""
    weights = moments[..., 0]
    priors = weights / n
    moments[..., 1:] /= weights[..., None]
    shift = moments[..., index[0, 1:]]
    means = centre + shift
    covs = moments[..., index[1:, 1:]]
    covs -= shift[..., :, None] * shift[..., None, :]
    covs += floor
    return priors, means, covs


def _em_result(priors, means, covs, trace):
    """The fitted mixture; DegenerateData if a floored covariance has no Cholesky factor."""
    priors = priors / priors.sum()
    try:
        np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateData("rank-deficient component after flooring") from exc
    return GaussianMixture(priors, means, covs, np.asarray(trace))


def fit_gmm(data, n_components=DEFAULT_COMPONENTS, seed=0):
    """Fit a Gaussian mixture over (t, eta) rows by EM: fit_gmms of one row set.

    k-means++ initialization from the given seed, responsibilities in log space, a
    COVARIANCE_FLOOR * I added in every M-step; the log-likelihood trace, a mean per
    row and iteration, is kept on the mixture.  Rows with any entry above
    sqrt(max float / (4 n D)), whose squared deviations could overflow, raise
    DegenerateData before k-means++ seeds.

    EM stops after EM_MAX_ITER iterations, or at the first iteration whose gain in
    mean log-likelihood per row is below EM_TOL nats; a dip stops it too.  An absolute
    increment is the classic EM stop (McLachlan and Krishnan, The EM Algorithm and
    Extensions, 2008): a gain relative to |ll| sets thresholds far apart between the
    charts of one run.  The absolute floor ties the fit to the rows' units and breaks
    EM's monotone ascent: an M-step plus the floor no longer maximizes.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("data must be a 2-d row matrix")
    return fit_gmms([data], n_components, seed)[0]


def fit_gmms(datas, n_components=DEFAULT_COMPONENTS, seed=0):
    """[fit_gmm(data, n_components, seed) for data in datas] in one EM loop.

    datas must be 2-d row matrices of one shape.  The loop advances up to S fits at
    once on stacked (S, K, ...) arrays through the shape-generic _em_step, and refills
    a slot from the queue, in datas' order, in the iteration its fit stops; a lone live
    fit steps on 2-d views.  S is max(1, EM_SLOT_BYTES // (8 M N)), so the slots'
    designs, and the memory stacking adds, stay within EM_SLOT_BYTES.  Values and
    strides do not depend on S.  If the batch fails, the row sets are fitted again one
    at a time: the first that fails raises its own error, as fit_gmm calls would.
    """
    datas = [np.asarray(data, dtype=float) for data in datas]
    if not datas:
        return []
    shape = datas[0].shape
    if len(shape) != 2 or any(data.shape != shape for data in datas):
        raise ValueError("datas must be 2-d row matrices of one shape")
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    try:
        return _em_loop(datas, n_components, seed)
    except (ValueError, DegenerateData, np.linalg.LinAlgError):
        if len(datas) == 1:
            raise
    return [_em_loop([data], n_components, seed)[0] for data in datas]


def _em_loop(datas, n_components, seed):
    """fit_gmms' slot-scheduled EM loop over checked row sets; the first error propagates."""
    n, dim = datas[0].shape
    pairs = _upper_pairs(dim + 1)
    index = np.empty((dim + 1, dim + 1), dtype=int)
    index[pairs[:2]] = index[pairs[1::-1]] = np.arange(pairs[0].size)
    floor = COVARIANCE_FLOOR * np.eye(dim)
    slots = min(len(datas), max(1, EM_SLOT_BYTES // (8 * pairs[0].size * n)))
    designs = np.empty((slots, pairs[0].size, n))
    centres = np.empty((slots, 1, dim))
    priors = np.empty((slots, n_components))
    means = np.empty((slots, n_components, dim))
    covs = np.empty((slots, n_components, dim, dim))
    results = [None] * len(datas)
    queued = iter(range(len(datas)))

    def load(slot, i):
        """Start fit i in slot; returns the slot's (fit index, trace)."""
        start = _em_start(datas[i], n_components, seed, pairs)
        priors[slot], means[slot], covs[slot], centres[slot, 0], designs[slot] = start
        return i, []

    fits = [load(slot, i) for slot, i in zip(range(slots), queued)]
    while fits:
        if len(fits) == 1:
            # a lone fit steps on 2-d views: a stack of one costs more per numpy call
            ll, moments = _em_step(designs[0], centres[0, 0], pairs, priors[0], means[0], covs[0])
            lls, moments = (ll,), moments[None]
        else:
            lls, moments = _em_step(designs, centres, pairs, priors, means, covs)
        stopped = []
        for s, (i, trace) in enumerate(fits):
            trace.append(float(lls[s]))
            if len(trace) >= EM_MAX_ITER or len(trace) > 1 and trace[-1] - trace[-2] < EM_TOL:
                # from the fit's own (K, M) moments, in a lone fit's layout at any S
                results[i] = _em_result(
                    *_em_parameters(moments[s].copy(), centres[s, 0], n, index, floor), trace)
                stopped.append(s)
        priors, means, covs = _em_parameters(moments, centres, n, index, floor)
        if stopped:
            for s in stopped:
                i = next(queued, None)
                fits[s] = None if i is None else load(s, i)
            # retired slots leave the stacks; the live ones keep their order
            live = [s for s, fit in enumerate(fits) if fit]
            if len(live) < len(fits):
                designs, centres, priors, means, covs = (
                    a[live] for a in (designs, centres, priors, means, covs))
                fits = [fits[s] for s in live]
    return results


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
