import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermval

from orifuse import gmm, kmp, so3
from orifuse.demo_gen import generate_demos
from orifuse.errors import ChartBoundaryError, FactorizationFailure
from orifuse.pipeline import REF_SIZE, demo_grid, fit_projected_mixture


def make_reference(rng, n, spread=1.0):
    times = np.linspace(0, 10, n)
    means = rng.normal(size=(n, 6)) * spread
    covs = np.empty((n, 6, 6))
    for i in range(n):
        A = rng.normal(size=(6, 6)) * 0.3
        covs[i] = A @ A.T + 0.5 * np.eye(6)
    return gmm.ReferenceTrajectory(times, means, covs)


def gaussian_feature_basis(n_features, bandwidth):
    centers = np.linspace(-1, 11, n_features)

    def phi(t):
        return np.exp(-bandwidth * (t - centers) ** 2)

    def phi_dot(t):
        return -2.0 * bandwidth * (t - centers) * phi(t)

    def blocks(a, b, order):
        assert order == 2
        pa = np.stack([phi(t) for t in np.atleast_1d(a)])
        da = np.stack([phi_dot(t) for t in np.atleast_1d(a)])
        pb = np.stack([phi(t) for t in np.atleast_1d(b)])
        db = np.stack([phi_dot(t) for t in np.atleast_1d(b)])
        s = np.empty((2, 2, pa.shape[0], pb.shape[0]))
        s[0, 0] = pa @ pb.T
        s[0, 1] = pa @ db.T
        s[1, 0] = da @ pb.T
        s[1, 1] = da @ db.T
        return s

    return phi, phi_dot, blocks


def parametric_ridge_solution(times, means, covs, phi, phi_dot, lam):
    # closed-form minimizer of the covariance-weighted ridge objective
    b_dim = phi(0.0).shape[0]

    def theta(t):
        th = np.zeros((3 * b_dim, 6))
        p, d = phi(t), phi_dot(t)
        for r in range(3):
            th[r * b_dim:(r + 1) * b_dim, r] = p
            th[r * b_dim:(r + 1) * b_dim, 3 + r] = d
        return th

    A = np.zeros((3 * b_dim, 3 * b_dim))
    rhs = np.zeros(3 * b_dim)
    for i, t in enumerate(times):
        th = theta(t)
        s_inv = np.linalg.inv(covs[i])
        A += th @ s_inv @ th.T
        rhs += th @ s_inv @ means[i]
    w = np.linalg.solve(A + lam * np.eye(3 * b_dim), rhs)
    return lambda t: theta(t).T @ w


def test_kernel_trick_equals_parametric_solution():
    rng = np.random.default_rng(21)
    ref = make_reference(rng, 30)
    phi, phi_dot, blocks = gaussian_feature_basis(40, 0.5)
    ext = kmp.ExtendedReference(ref.times, ref.means, ref.covariances)
    model = kmp.build_model(ext, kmp.KernelConfig(l=0.01, lam=1.0), scalar_blocks=blocks)
    oracle = parametric_ridge_solution(ref.times, ref.means, ref.covariances, phi, phi_dot, 1.0)
    queries = np.linspace(0, 10, 50)
    pred = model.predict_many(queries)
    expected = np.stack([oracle(t) for t in queries])
    assert np.abs(pred - expected).max() < 1e-8


def kron_gram_prediction(ext, cfg, queries, scalar_blocks):
    """Predictions of the dense solve (K + lam Sigma)^-1 mu with K = np.kron(S, I_3).

    The dense reference: one Cholesky factor of the whole Gram, from np.linalg.
    """
    nb, n = cfg.n_blocks, len(ext)
    dim = 3 * nb
    s = scalar_blocks(ext.times, ext.times, nb)
    gram_small = np.ascontiguousarray(s.transpose(2, 0, 3, 1)).reshape(n * nb, n * nb)
    m = np.kron(gram_small, np.eye(3))
    for i in range(n):
        m[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim] += cfg.lam * ext.covariances[i]
    factor = np.linalg.cholesky(m)
    alpha = np.linalg.solve(factor.T, np.linalg.solve(factor, ext.means.reshape(n * dim)))
    alpha = alpha.reshape(n, nb, 3)
    table = scalar_blocks(queries, ext.times, nb)
    out = np.empty((queries.shape[0], dim))
    for p in range(nb):
        out[:, 3 * p:3 * p + 3] = sum(table[p, q] @ alpha[:, q] for q in range(nb))
    return out


def random_extended_reference(rng, n, dim):
    times = np.cumsum(rng.uniform(0.05, 1.0, n))
    A = rng.normal(size=(n, dim, dim))
    covs = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(dim)
    return kmp.ExtendedReference(times, rng.normal(size=(n, dim)), covs)


def test_an_explicit_basis_matches_the_dense_solve():
    ref = make_reference(np.random.default_rng(21), 30)
    *_, blocks = gaussian_feature_basis(40, 0.5)
    ext = kmp.ExtendedReference(ref.times, ref.means, ref.covariances)
    cfg = kmp.KernelConfig(l=0.01, lam=1.0)
    queries = np.linspace(0, 10, 50)
    assert np.abs(kmp.build_model(ext, cfg, scalar_blocks=blocks).predict_many(queries)
                  - kron_gram_prediction(ext, cfg, queries, blocks)).max() < 1e-9


def expression_table(a, b, l, order):
    """The Gaussian derivative table written out entry by entry."""
    d = a[:, None] - b[None, :]
    d2 = d * d
    g = np.exp(-l * d2)
    s = np.empty((order, order) + d.shape)
    s[0, 0] = g
    s[0, 1] = 2.0 * l * d * g
    s[1, 0] = -s[0, 1]
    s[1, 1] = (2.0 * l - 4.0 * l**2 * d2) * g
    if order == 3:
        s[0, 2] = (4.0 * l**2 * d2 - 2.0 * l) * g
        s[2, 0] = s[0, 2]
        s[1, 2] = (12.0 * l**2 - 8.0 * l**3 * d2) * d * g
        s[2, 1] = -s[1, 2]
        s[2, 2] = ((16.0 * l**4 * d2 - 48.0 * l**3) * d2 + 12.0 * l**2) * g
    return s


def random_table_arguments(seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-5, 15, 37), np.sort(rng.uniform(0, 10, 23))


@settings(max_examples=40, deadline=None)
@given(l=st.floats(1e-3, 2.0), order=st.sampled_from([2, 3]), seed=st.integers(0, 2**16))
def test_kernel_table_matches_its_entrywise_expressions_bitwise(l, order, seed):
    a, b = random_table_arguments(seed)
    assert np.array_equal(kmp.gaussian_scalar_blocks(a, b, l, order),
                          expression_table(a, b, l, order))


@settings(max_examples=40, deadline=None)
@given(l=st.floats(1e-3, 2.0), order=st.sampled_from([2, 3]), seed=st.integers(0, 2**16))
def test_kernel_table_entries_are_hermite_functions(l, order, seed):
    # d^n/dd^n exp(-l d^2) = (-sqrt(l))^n H_n(sqrt(l) d) exp(-l d^2) with the physicists'
    # Hermite polynomials H_n, and d/db = -d/dd; a table of fewer rows is the full
    # table's leading rows, bit for bit
    a, b = random_table_arguments(seed)
    table = kmp.gaussian_scalar_blocks(a, b, l, order)
    x = np.sqrt(l) * (a[:, None] - b[None, :])
    for p in range(order):
        for q in range(order):
            n = p + q
            expected = (-1) ** q * (-np.sqrt(l)) ** n * hermval(x, [0] * n + [1]) * np.exp(-x * x)
            assert np.abs(table[p, q] - expected).max() <= 1e-12 * np.abs(table).max()
    for rows in range(1, order + 1):
        assert np.array_equal(kmp.gaussian_scalar_blocks(a, b, l, order, rows), table[:rows])


@pytest.mark.parametrize("lambda_a", [None, 100.0])
@pytest.mark.parametrize("queries", [1, 2048, 2049, 5000])  # one, two and three slabs
@settings(max_examples=8, deadline=None)
@given(n=st.integers(1, 30), l=st.floats(1e-3, 2.0), seed=st.integers(0, 2**16))
def test_leading_rows_are_the_full_prediction_columns_bitwise(lambda_a, queries, n, l, seed):
    cfg = kmp.KernelConfig(l=l, lam=1.0, lambda_a=lambda_a)
    rng = np.random.default_rng(seed)
    model = kmp.build_model(random_extended_reference(rng, n, cfg.state_dim), cfg)
    t = np.sort(rng.uniform(model.times[0] - 1.0, model.times[-1] + 1.0, queries))
    full = model.predict_many(t)
    for rows in range(1, cfg.n_blocks + 1):
        assert np.array_equal(model.predict_many(t, rows=rows), full[:, :3 * rows])


@pytest.mark.parametrize("rows", [0, 3])
def test_predict_many_rows_must_name_blocks_of_the_state(rows):
    model = kmp.build_model(make_reference(np.random.default_rng(30), 5), kmp.KernelConfig())
    with pytest.raises(ValueError, match="rows"):
        model.predict_many(np.linspace(0, 10, 4), rows=rows)


@pytest.mark.parametrize("row, col", [(4, 1), (1, 4)])
def test_a_covariance_symmetric_only_to_allclose_factors_its_lower_triangle(row, col):
    # np.linalg.cholesky reads each lam * Sigma_i's lower triangle, so a build equals,
    # bit for bit, the build whose covariance mirrors that triangle
    rng = np.random.default_rng(31)
    A = rng.normal(size=(6, 6)) * 0.1
    cov = A @ A.T + 1e-3 * np.eye(6)
    cov[row, col] += 1e-12
    reference = make_reference(rng, 25, spread=0.5)
    cfg = kmp.KernelConfig(l=0.01, lam=1.0)
    queries = np.linspace(0, 10, 57)
    predictions = []
    for given in (cov, np.tril(cov) + np.tril(cov, -1).T):
        vp = kmp.ViaPointSpec(4.4, so3.exp_map([0.9, -0.4, 0.3]), np.zeros(3), given)
        ext = kmp.extend_reference(reference, [vp], np.eye(3))
        predictions.append(kmp.build_model(ext, cfg).predict_many(queries))
    assert np.array_equal(*predictions)


def floored_reference(n, dim, floor, rows=slice(None)):
    """Rows of covariance I, but floor * I in rows: zero or negative has no Cholesky factor."""
    means = np.random.default_rng(32).normal(size=(n, dim))
    covs = np.tile(np.eye(dim), (n, 1, 1))
    covs[rows] = floor * np.eye(dim)
    return kmp.ExtendedReference(np.linspace(0, 10, n), means, covs)


@pytest.mark.parametrize("lambda_a", [None, 100.0])
@pytest.mark.parametrize("floor", [0.0, -5e-11, -5e-9, -2e-8])
def test_a_gram_that_is_not_positive_definite_is_a_factorization_failure(floor, lambda_a):
    # one row's lam * Sigma_i without a Cholesky factor fails the build, whatever the
    # other rows hold, and the message names that row's time
    cfg = kmp.KernelConfig(l=0.01, lam=1.0, lambda_a=lambda_a)
    with pytest.raises(FactorizationFailure,
                       match=r"the row at t=3\.33333 is not positive definite; raise the via"):
        kmp.build_model(floored_reference(10, cfg.state_dim, floor, rows=3), cfg)


def gaussian_blocks(l):
    """The scalar_blocks argument of _feature_map for the Gaussian kernel of l."""
    def blocks(a, b, order, rows=None):
        return kmp.gaussian_scalar_blocks(a, b, l, order, rows)
    return blocks


def test_the_inducing_times_double_while_every_feature_is_kept():
    # a feature per unit of numerical rank of the inducing times' table, by numpy's
    # matrix_rank rule; at l = 1 the tables of 20 and 40 times have rank 40 and 45, not
    # below their time counts, so the times double twice, to 80
    times = np.linspace(0, 10, 201)

    def rank(z, l):
        return np.linalg.matrix_rank(kmp._table(gaussian_blocks(l)(z, z, 2)))

    for l, m in ((0.01, 20), (1.0, 80)):
        z, features = kmp._feature_map(times, 2, gaussian_blocks(l))
        assert np.array_equal(z, np.linspace(0, 10, m))
        assert features.shape[1] == rank(z, l) < m
    assert [rank(np.linspace(0, 10, m), 1.0) for m in (20, 40)] == [40, 45]


def test_inducing_times_that_would_reach_the_rows_become_the_rows():
    # a kernel narrower than the row spacing: 20 and then 40 inducing times would keep every
    # feature, so the 30 row times themselves are the inducing times and the solve is exact
    ext = floored_reference(30, 6, 0.1)
    cfg = kmp.KernelConfig(l=50.0, lam=1.0)
    model = kmp.build_model(ext, cfg)
    assert np.array_equal(model.inducing, ext.times)
    queries = np.linspace(-1, 11, 97)
    assert np.abs(model.predict_many(queries)
                  - kron_gram_prediction(ext, cfg, queries, gaussian_blocks(cfg.l))).max() < 1e-12


def test_a_build_holds_no_array_of_the_gram_size():
    # 2000 rows of (psi, psi_dot): the dense Gram alone would take 12000^2 doubles, 1.15 GB
    ext = make_reference(np.random.default_rng(33), 2000)
    tracemalloc.start()
    try:
        kmp.build_model(ext, kmp.KernelConfig(l=0.01, lam=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12000**2 * 8 / 50


@pytest.fixture(scope="module")
def demo_reference():
    """The GMR reference of the s61-like seed-0 demonstrations in their first start's chart."""
    demos = generate_demos("s61-like", 5, seed=0)
    R_aux = demos[0].rotations[0]
    mixture = fit_projected_mixture(demos, R_aux, gmm.DEFAULT_COMPONENTS, 0, {})
    return gmm.extract_reference(mixture, demo_grid(demos, REF_SIZE)), R_aux


def decades(lo, hi):
    """Floats from 10**lo to 10**hi, uniform in the exponent."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(max_examples=30, deadline=None)
@given(l=decades(-4, 0), lam=decades(-6, 3), eps_strict=decades(-18, -2),
       lambda_a=st.sampled_from([None, 100.0]))
def test_the_demonstration_gram_factors_as_assembled(demo_reference, l, lam, eps_strict,
                                                     lambda_a):
    # over these decades of l, lambda and via variance a demonstration reference with the
    # README vias builds: every lam * Sigma_i has a Cholesky factor and the solve is finite
    reference, R_aux = demo_reference
    vias = [kmp.ViaPointSpec(0.0, so3.exp_map([1.2614, 1.0512, 1.5767]), np.zeros(3),
                             eps_strict=eps_strict),
            kmp.ViaPointSpec(4.0, so3.exp_map([0.7028, 1.1713, 0.4685]),
                             np.array([0.0069, 0.2103, 0.2138]), relaxed_axis="y",
                             eps_strict=eps_strict)]
    ext = kmp.extend_reference(reference, vias, R_aux, lambda_a)
    kmp.build_model(ext, kmp.KernelConfig(l=l, lam=lam, lambda_a=lambda_a))


@settings(max_examples=30, deadline=None)
@given(l=decades(-4, 0.3), lam=decades(-2, 3), eps_strict=decades(-18, -2),
       lambda_a=st.sampled_from([None, 100.0]),
       rows=st.lists(st.integers(0, REF_SIZE - 1), min_size=2, max_size=2, unique=True),
       turns=st.lists(st.floats(-0.2, 0.2), min_size=6, max_size=6))
def test_the_weight_space_solve_matches_the_dense_solve(demo_reference, l, lam, eps_strict,
                                                        lambda_a, rows, turns):
    # a strict via and a y-relaxed one on reference rows, each turned up to 0.2 rad per
    # chart axis off the reference there; psi and psi_dot stay within 1e-5 of the dense
    # solve, relative to the largest |psi| where that exceeds 1 (2.4e-6 at most in 900
    # draws of these ranges); below lambda 1e-2 the dense solve itself drifts from an
    # 80-bit one by up to 1.7e-5 at lambda 1e-3
    reference, R_aux = demo_reference
    vias = [kmp.ViaPointSpec(reference.times[i],
                             R_aux @ so3.exp_map(reference.means[i, :3] + turns[3 * k:3 * k + 3]),
                             np.zeros(3), relaxed_axis=axis, eps_strict=eps_strict,
                             velocity_var=1e3)
            for k, (i, axis) in enumerate(zip(rows, (None, "y")))]
    ext = kmp.extend_reference(reference, vias, R_aux, lambda_a)
    cfg = kmp.KernelConfig(l=l, lam=lam, lambda_a=lambda_a)
    queries = np.linspace(0, 10, 201)
    dense = kron_gram_prediction(ext, cfg, queries, gaussian_blocks(l))[:, :6]
    error = np.abs(kmp.build_model(ext, cfg).predict_many(queries)[:, :6] - dense).max()
    assert error <= 1e-5 * max(1.0, np.abs(dense[:, :3]).max())


BUILD_AND_PREDICT = """
import hashlib
import numpy as np
from orifuse import gmm, kmp, so3
from orifuse.demo_gen import generate_demos
from orifuse.pipeline import REF_SIZE, demo_grid, fit_projected_mixture
demos = generate_demos("s61-like", 5, seed=0)
R_aux = demos[0].rotations[0]
mixture = fit_projected_mixture(demos, R_aux, gmm.DEFAULT_COMPONENTS, 0, {})
reference = gmm.extract_reference(mixture, demo_grid(demos, REF_SIZE))
via = kmp.ViaPointSpec(4.0, so3.exp_map([0.7028, 1.1713, 0.4685]), np.zeros(3), relaxed_axis="y")
digest = hashlib.sha256()
for lambda_a in (None, 100.0):
    ext = kmp.extend_reference(reference, [via], R_aux, lambda_a)
    model = kmp.build_model(ext, kmp.KernelConfig(lambda_a=lambda_a))
    digest.update(model.predict_many(np.linspace(0, 10, 5001)).tobytes())
print(digest.hexdigest())
"""


def test_a_build_and_its_prediction_do_not_depend_on_the_blas_thread_count():
    # fresh processes under one, two and four BLAS threads write the same bytes; the dense
    # Cholesky factor of the Gram did not
    digests = set()
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(kmp.__file__).parents[1]))
        digests.add(subprocess.run([sys.executable, "-c", BUILD_AND_PREDICT], env=env,
                                   capture_output=True, text=True, check=True).stdout)
    assert len(digests) == 1


def test_a_non_finite_gram_is_a_factorization_failure():
    # 4 l^2 overflows, so the psi_dot diagonal of K is inf * 0
    ext = floored_reference(4, 6, 1.0)
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.raises(FactorizationFailure, match="finite"):
        kmp.build_model(ext, kmp.KernelConfig(l=1e154, lam=1.0))
    # l^2 itself (pv) or l^4 (pva) leaves the float range: a Python OverflowError
    for cfg in (kmp.KernelConfig(l=1.5e154), kmp.KernelConfig(l=1e80, lambda_a=100.0)):
        with pytest.raises(FactorizationFailure, match="finite"):
            kmp.build_model(floored_reference(4, cfg.state_dim, 1.0), cfg)


def test_single_reference_point_closed_form():
    t0 = 3.0
    mean = np.arange(6.0)
    cov = np.diag(np.linspace(0.5, 3.0, 6))
    ext = kmp.ExtendedReference(np.array([t0]), mean[None], cov[None])
    cfg = kmp.KernelConfig(l=0.01, lam=1.0)
    model = kmp.build_model(ext, cfg)
    blocks = kmp.gaussian_scalar_blocks(np.array([t0]), np.array([t0]), cfg.l, 2)
    k_tt = np.kron(blocks[:, :, 0, 0], np.eye(3))
    expected = k_tt @ np.linalg.solve(k_tt + cfg.lam * cov, mean)
    assert np.abs(model.predict_many(np.array([t0]))[0] - expected).max() < 1e-12


def test_prediction_far_outside_support_decays():
    rng = np.random.default_rng(22)
    ref = make_reference(rng, 20)
    ext = kmp.ExtendedReference(ref.times, ref.means, ref.covariances)
    model = kmp.build_model(ext, kmp.KernelConfig(l=0.01, lam=1.0))
    assert np.abs(model.predict_many(np.array([300.0]))).max() < 1e-12


def test_transform_via_point_zero_velocity():
    rng = np.random.default_rng(23)
    R_aux = so3.exp_map(rng.normal(size=3) * 0.4)
    R = R_aux @ so3.exp_map([0.3, 0.1, -0.2])
    vp = kmp.ViaPointSpec(2.0, R, np.zeros(3), np.diag([1e-6] * 6))
    t, eta, cov = kmp.transform_via_point(vp, R_aux)
    assert t == 2.0
    assert np.allclose(eta[3:], 0.0, atol=1e-12)
    assert np.allclose(eta[:3], so3.log_map(R_aux.T @ R))


def test_transform_via_point_velocity_limit_at_origin():
    # at the chart origin psi_dot is the body-frame velocity, up to rounding, at the
    # fixed step kmp.DEFAULT_DELTA_T
    R_aux = so3.exp_map([0.5, -0.2, 0.1])
    omega = np.array([0.0, 0.0, 0.3])
    vp = kmp.ViaPointSpec(0.0, R_aux, omega, np.diag([1e-6] * 6))
    _, eta, _ = kmp.transform_via_point(vp, R_aux)
    assert np.linalg.norm(eta[3:] - R_aux.T @ omega) < 1e-12


def test_transform_via_point_paper_value_roundtrip():
    psi = np.array([1.5456, 1.0304, 2.0608])
    omega = np.array([0.1, 0.1, 0.0])
    R_aux = so3.exp_map([0.2, -0.3, 0.5])
    R = so3.recover_orientation(psi, R_aux)
    vp = kmp.ViaPointSpec(4.0, R, omega, np.diag([1e-6] * 6))
    _, eta, _ = kmp.transform_via_point(vp, R_aux)
    assert np.linalg.norm(eta[:3] - psi) < 1e-6


def test_transform_via_point_near_boundary_rejected():
    R_aux = np.eye(3)
    target = so3.exp_map([np.pi - 1e-5, 0, 0])
    vp = kmp.ViaPointSpec(1.0, target, np.zeros(3), np.diag([1e-6] * 6))
    with pytest.raises(ChartBoundaryError):
        kmp.transform_via_point(vp, R_aux)


def test_extend_reference_replaces_duplicate_time():
    rng = np.random.default_rng(24)
    ref = make_reference(rng, 11)  # times 0, 1, ..., 10
    R_aux = np.eye(3)
    target = so3.exp_map([0.4, 0.2, -0.1])
    vp = kmp.ViaPointSpec(5.0, target, np.zeros(3), np.diag([1e-8] * 6))
    ext = kmp.extend_reference(ref, [vp], R_aux)
    assert len(ext) == 11  # replaced, not appended
    i = np.argmin(np.abs(ext.times - 5.0))
    assert np.allclose(ext.covariances[i], np.diag([1e-8] * 6))
    assert np.allclose(ext.means[i, :3], so3.log_map(target))
    # off-grid via-point is appended
    vp2 = kmp.ViaPointSpec(5.5, target, np.zeros(3), np.diag([1e-8] * 6))
    ext2 = kmp.extend_reference(ref, [vp2], R_aux)
    assert len(ext2) == 12
    assert np.all(np.diff(ext2.times) > 0)


def test_augment_for_acceleration_blocks():
    rng = np.random.default_rng(25)
    ref = make_reference(rng, 5)
    ext = kmp.ExtendedReference(ref.times, ref.means, ref.covariances)
    lam_a = 1e5
    aug = kmp.augment_for_acceleration(ext, lam_a)
    assert aug.means.shape == (5, 9)
    assert np.allclose(aug.means[:, 6:], 0.0)
    assert np.allclose(aug.covariances[:, 6:, 6:], np.eye(3) * 1e-5)
    assert np.allclose(aug.covariances[:, :6, :6], ext.covariances)
    assert np.allclose(aug.covariances[:, :6, 6:], 0.0)


def test_augment_keeps_user_acceleration_block():
    rng = np.random.default_rng(26)
    ref = make_reference(rng, 6)
    R_aux = np.eye(3)
    target = so3.exp_map([0.2, 0.0, 0.1])
    cov9 = np.diag([1e-10] * 3 + [1e3] * 3 + [0.25] * 3)
    vp = kmp.ViaPointSpec(3.3, target, np.zeros(3), cov9)
    aug = kmp.extend_reference(ref, [vp], R_aux, lambda_a=10.0)
    i = np.argmin(np.abs(aug.times - 3.3))
    assert np.allclose(aug.covariances[i, 6:, 6:], 0.25 * np.eye(3))
    others = [j for j in range(len(aug)) if j != i]
    assert np.allclose(aug.covariances[others, 6:, 6:], np.eye(3) / 10.0)


def test_augmented_model_small_lambda_matches_plain():
    # lambda_a -> 0 leaves the (psi, psi_dot) prediction unchanged
    rng = np.random.default_rng(27)
    ref = make_reference(rng, 15)
    ext = kmp.ExtendedReference(ref.times, ref.means, ref.covariances)
    plain = kmp.build_model(ext, kmp.KernelConfig(l=0.01, lam=1.0))
    aug = kmp.build_model(
        kmp.augment_for_acceleration(ext, 1e-8),
        kmp.KernelConfig(l=0.01, lam=1.0, lambda_a=1e-8, order="pva"),
    )
    queries = np.linspace(0, 10, 25)
    assert np.abs(plain.predict_many(queries) - aug.predict_many(queries)[:, :6]).max() < 1e-6


def test_via_point_dominance_as_covariance_shrinks():
    rng = np.random.default_rng(28)
    ref = make_reference(rng, 25, spread=0.5)
    R_aux = np.eye(3)
    target = so3.exp_map([0.9, -0.4, 0.3])
    errors = []
    for eps in (1e-2, 1e-6, 1e-10):
        vp = kmp.ViaPointSpec(4.4, target, np.zeros(3), np.diag([eps] * 6))
        ext = kmp.extend_reference(ref, [vp], R_aux)
        model = kmp.build_model(ext, kmp.KernelConfig(l=0.01, lam=1.0))
        errors.append(np.linalg.norm(model.predict_many(np.array([4.4]))[0, :3]
                                     - so3.log_map(target)))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-3


def test_predicted_velocity_is_derivative_of_position():
    rng = np.random.default_rng(29)
    ref = make_reference(rng, 20, spread=0.5)
    ext = kmp.ExtendedReference(ref.times, ref.means, ref.covariances)
    model = kmp.build_model(ext, kmp.KernelConfig(l=0.01, lam=1.0))
    grid = np.arange(0, 10, 1e-3)
    eta = model.predict_many(grid)
    numeric = so3.finite_difference_velocity(eta[:, :3], 1e-3)
    assert np.abs(numeric - eta[:, 3:]).max() < 1e-4


def test_reproduce_constant_prediction():
    # one tight reference row pins the trajectory to a constant orientation
    psi = np.array([0.3, 0.2, -0.4])
    mean = np.concatenate([psi, np.zeros(3)])
    n = 7
    times = np.linspace(0, 10, n)
    means = np.tile(mean, (n, 1))
    covs = np.tile(np.diag([1e-10] * 6), (n, 1, 1))
    ext = kmp.ExtendedReference(times, means, covs)
    model = kmp.build_model(ext, kmp.KernelConfig(l=0.01, lam=1.0))
    R_aux = so3.exp_map([0.1, 0.5, -0.3])
    traj = kmp.reproduce_orientation_trajectory(model, R_aux, np.linspace(0, 10, 101))
    expected = R_aux @ so3.exp_map(psi)
    assert max(so3.geodesic_distance(R, expected) for R in traj.rotations) < 1e-4
    assert np.abs(traj.omega_world).max() < 1e-3


def test_reproduce_single_axis_velocity():
    # psi(t) = [w t, 0, 0] in the chart of the identity: omega_world = [w, 0, 0]
    w = 0.17
    n = 21
    times = np.linspace(0, 10, n)
    means = np.stack([np.array([w * t, 0, 0, w, 0, 0]) for t in times])
    covs = np.tile(np.diag([1e-10] * 6), (n, 1, 1))
    ext = kmp.ExtendedReference(times, means, covs)
    model = kmp.build_model(ext, kmp.KernelConfig(l=0.01, lam=1.0))
    traj = kmp.reproduce_orientation_trajectory(model, np.eye(3), np.linspace(0, 10, 201))
    assert np.abs(traj.omega_world - np.array([w, 0, 0])).max() < 1e-4


def test_angular_velocities_exact_for_constant_rate():
    w_body = np.array([0.0, 0.4, 0.0])
    dt = 0.01
    times = np.arange(100) * dt
    R0 = so3.exp_map([0.3, 0.1, 0.2])
    Rs = np.stack([R0 @ so3.exp_map(w_body * t) for t in times])
    omega = kmp.angular_velocities(Rs, dt)
    expected = np.stack([Rs[i] @ w_body for i in range(len(times))])
    assert np.abs(omega - expected).max() < 1e-10



@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_explicit_covariance_must_be_finite(bad):
    # run configs have no covariance key; the variance-pattern cases are in test_io
    with pytest.raises(ValueError, match="finite"):
        kmp.ViaPointSpec(1.0, np.eye(3), np.zeros(3), np.diag([1e-6] * 5 + [bad]))
