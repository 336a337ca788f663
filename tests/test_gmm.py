import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orifuse import gmm, so3
from orifuse.demo_gen import generate_demos
from orifuse.errors import DegenerateData


@pytest.fixture(scope="module")
def demos():
    return generate_demos("s61-like", 5, seed=0)


@pytest.fixture(scope="module")
def fitted(demos):
    R_aux = demos[0].rotations[0]
    projected = gmm.project_demonstrations(demos, R_aux)
    rows = gmm.stack_training_rows(projected)
    return gmm.fit_gmm(rows, n_components=5, seed=0), projected


def test_project_constant_demo_is_zero():
    R = so3.exp_map([0.4, -0.1, 0.2])
    times = np.linspace(0, 1, 11)
    demo = gmm.Demonstration(times, np.tile(R, (11, 1, 1)))
    proj = gmm.project_demonstrations([demo], R)[0]
    assert np.allclose(proj.eta, 0.0, atol=1e-12)


def test_project_single_axis_demo():
    omega = 0.25
    times = np.linspace(0, 10, 101)
    R_aux = so3.exp_map([0.3, 0.7, -0.2])
    rotations = np.stack([R_aux @ so3.exp_map([omega * t, 0, 0]) for t in times])
    proj = gmm.project_demonstrations([gmm.Demonstration(times, rotations)], R_aux)[0]
    assert np.allclose(proj.eta[:, 0], omega * times, atol=1e-9)
    assert np.allclose(proj.eta[:, 1:3], 0.0, atol=1e-9)
    assert np.abs(proj.eta[:, 3] - omega).max() < 1e-6
    assert np.allclose(proj.eta[:, 4:], 0.0, atol=1e-6)


def test_projected_demos_share_endpoints(demos):
    # multi-start family: projected goals cluster, starts spread
    R_aux = demos[0].rotations[0]
    projected = gmm.project_demonstrations(demos, R_aux)
    ends = np.stack([p.eta[-1, :3] for p in projected])
    starts = np.stack([p.eta[0, :3] for p in projected])
    assert np.linalg.norm(ends - ends.mean(axis=0), axis=1).max() < 0.2
    assert np.linalg.norm(starts - starts.mean(axis=0), axis=1).max() > 0.05
    # first demonstration is the chart basepoint
    assert np.allclose(projected[0].eta[0, :3], 0.0, atol=1e-12)


def test_fit_single_component_closed_form():
    rng = np.random.default_rng(1)
    data = rng.multivariate_normal(np.arange(7.0), np.diag(np.linspace(0.5, 2.0, 7)), 400)
    mix = gmm.fit_gmm(data, n_components=1, seed=0)
    assert np.allclose(mix.priors, [1.0])
    assert np.allclose(mix.means[0], data.mean(axis=0), atol=1e-10)
    expected_cov = np.cov(data.T, bias=True) + gmm.COVARIANCE_FLOOR * np.eye(7)
    assert np.allclose(mix.covariances[0], expected_cov, atol=1e-10)


def test_fit_recovers_two_component_mixture():
    rng = np.random.default_rng(2)
    n = 1000
    pick = rng.random(n) < 0.5
    mu_a, mu_b = np.zeros(2), np.array([5.0, 4.0])
    data = np.where(
        pick[:, None],
        rng.multivariate_normal(mu_a, 0.2 * np.eye(2), n),
        rng.multivariate_normal(mu_b, 0.3 * np.eye(2), n),
    )
    mix = gmm.fit_gmm(data, n_components=2, seed=3)
    means = mix.means[np.argsort(mix.means[:, 0])]
    # 3 sigma / sqrt(n) tolerance per component
    assert np.linalg.norm(means[0] - mu_a) < 3 * np.sqrt(0.2) / np.sqrt(n / 2) * 3
    assert np.linalg.norm(means[1] - mu_b) < 3 * np.sqrt(0.3) / np.sqrt(n / 2) * 3


def test_em_monotone_loglikelihood(fitted):
    mix, _ = fitted
    ll = mix.log_likelihoods
    assert len(ll) >= 2
    assert np.all(np.diff(ll) >= -1e-10)


def test_fit_deterministic(demos):
    rows = gmm.stack_training_rows(gmm.project_demonstrations(demos, demos[0].rotations[0]))
    a = gmm.fit_gmm(rows, n_components=3, seed=11)
    b = gmm.fit_gmm(rows, n_components=3, seed=11)
    assert np.array_equal(a.priors, b.priors)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.covariances, b.covariances)


def test_fit_rejects_too_few_rows():
    with pytest.raises(DegenerateData):
        gmm.fit_gmm(np.random.default_rng(0).normal(size=(19, 7)), n_components=2, seed=0)


def test_gmr_single_component_diagonal():
    # diagonal covariance decouples time: conditional equals the marginal
    priors = np.array([1.0])
    means = np.array([[2.0, 1, -1, 0.5, 0, 0.2, -0.3]])
    covs = np.diag([0.3, 1, 2, 3, 4, 5, 6])[None]
    mix = gmm.GaussianMixture(priors, means, covs)
    mu, sigma = gmm.gmr_condition(mix, 9.0)
    assert np.allclose(mu, means[0, 1:])
    assert np.allclose(sigma, covs[0][1:, 1:])


def test_gmr_single_component_full_covariance_oracle():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(7, 7))
    cov = A @ A.T + 7 * np.eye(7)
    mean = rng.normal(size=7)
    mix = gmm.GaussianMixture(np.array([1.0]), mean[None], cov[None])
    t = 0.7
    mu, sigma = gmm.gmr_condition(mix, t)
    # direct linear-algebra conditional
    mu_o = mean[1:] + cov[1:, 0] / cov[0, 0] * (t - mean[0])
    sigma_o = cov[1:, 1:] - np.outer(cov[1:, 0], cov[0, 1:]) / cov[0, 0]
    assert np.abs(mu - mu_o).max() < 1e-10
    assert np.abs(sigma - sigma_o).max() < 1e-10


def test_gmr_responsibility_limit():
    # two components far apart in time: at one center the other vanishes
    rng = np.random.default_rng(5)
    covs = np.stack([np.diag([0.1] + [0.5] * 6) for _ in range(2)])
    means = np.stack([np.concatenate([[0.0], rng.normal(size=6)]),
                      np.concatenate([[100.0], rng.normal(size=6)])])
    mix = gmm.GaussianMixture(np.array([0.5, 0.5]), means, covs)
    mu, sigma = gmm.gmr_condition(mix, 0.0)
    solo = gmm.GaussianMixture(np.array([1.0]), means[:1], covs[:1])
    mu1, sigma1 = gmm.gmr_condition(solo, 0.0)
    assert np.abs(mu - mu1).max() < 1e-6
    assert np.abs(sigma - sigma1).max() < 1e-6


def test_extract_reference_grids(fitted):
    mix, _ = fitted
    empty = gmm.extract_reference(mix, np.array([]))
    assert len(empty) == 0
    single = gmm.extract_reference(mix, np.array([5.0]))
    assert len(single) == 1
    mu, sigma = gmm.gmr_condition(mix, 5.0)
    assert np.allclose(single.means[0], mu)
    assert np.allclose(single.covariances[0], sigma)


def test_extract_reference_rejects_repeated_times(fitted):
    mix, _ = fitted
    with pytest.raises(ValueError, match="strictly increasing"):
        gmm.extract_reference(mix, np.array([0.0, 1.0, 1.0, 2.0]))


def test_extract_reference_spd_and_envelope(fitted, demos):
    mix, projected = fitted
    times = np.linspace(0, 10, 200)
    ref = gmm.extract_reference(mix, times)
    eigs = np.linalg.eigvalsh(ref.covariances)
    assert eigs.min() > 0
    # mean curve stays inside the demonstration envelope >= 95% of the time
    stack = np.stack([p.eta[:, :3] for p in projected])  # (M, N, 3)
    demo_times = projected[0].times
    idx = np.searchsorted(demo_times, times).clip(0, len(demo_times) - 1)
    lo = stack.min(axis=0)[idx]
    hi = stack.max(axis=0)[idx]
    inside = (ref.means[:, :3] >= lo - 1e-9) & (ref.means[:, :3] <= hi + 1e-9)
    assert inside.mean() >= 0.95


# The EM loop as it was written on an (N, K) layout, kept as the reference for the
# (K, N) one: the same initialization, floor and stop rule, its sums in another order.

def reference_log_gaussians(data, means, covs):
    """log N(x; mean_k, cov_k) of every row under every component, (N, K)."""
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateData(f"covariance not positive definite: {exc}") from exc
    chol_inv = np.linalg.inv(chol)
    z = chol_inv @ data.T - chol_inv @ means[:, :, None]  # (K, D, N)
    maha = np.einsum("kdn,kdn->nk", z, z)
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return -0.5 * (maha + logdet + means.shape[1] * np.log(2.0 * np.pi))


def reference_fit_gmm(data, n_components, seed):
    n, dim = data.shape
    if n < 10 * n_components:
        raise DegenerateData("too few rows")
    priors, means, covs = gmm._kmeanspp_init(data, n_components, np.random.default_rng(seed))
    eye = np.eye(dim)
    trace = []
    prev_ll = -np.inf
    for _ in range(gmm.EM_MAX_ITER):
        log_prob = np.log(priors) + reference_log_gaussians(data, means, covs)
        top = log_prob.max(axis=1, keepdims=True)
        log_norm = top[:, 0] + np.log(np.exp(log_prob - top).sum(axis=1))
        ll = float(log_norm.mean())
        trace.append(ll)
        resp = np.exp(log_prob - log_norm[:, None])
        weights = resp.sum(axis=0)
        if np.any(weights <= 0):
            raise DegenerateData("a mixture component lost all responsibility")
        priors = weights / n
        means = (resp.T @ data) / weights[:, None]
        diff = data - means[:, None]  # (K, N, D)
        covs = ((resp.T[:, :, None] * diff).transpose(0, 2, 1) @ diff / weights[:, None, None]
                + gmm.COVARIANCE_FLOOR * eye)
        if ll - prev_ll < gmm.EM_TOL:
            break
        prev_ll = ll
    try:
        np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateData("rank-deficient component after flooring") from exc
    return gmm.GaussianMixture(priors / priors.sum(), means, covs, np.asarray(trace))


@st.composite
def mixture_rows(draw):
    """Rows drawn around a few random centres with random spreads, in 2, 3 or 7 dimensions."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 5))
    dim = draw(st.sampled_from([2, 3, 7]))
    n = draw(st.integers(10 * k, 300))
    centres = rng.normal(scale=draw(st.sampled_from([0.5, 3.0])), size=(draw(st.integers(1, 5)), dim))
    spread = rng.uniform(0.05, 1.0, size=(centres.shape[0], dim))
    pick = rng.integers(centres.shape[0], size=n)
    return centres[pick] + spread[pick] * rng.normal(size=(n, dim)), k, draw(st.integers(0, 99))


def close(a, b, rel):
    """a equals b within rel of b's largest entry (or of 1)."""
    return np.all(np.abs(a - b) <= rel * max(np.abs(b).max(), 1.0))


def on_the_floor(covs):
    """Whether a component sits on the covariance floor.

    Fewer rows than dimensions put it there, with a condition number up to 1e8; a
    component of few rows with a small spread sits there with a small one, and only its
    smallest eigenvalue tells it apart.
    """
    return (np.linalg.cond(covs).max() >= 1e6
            or np.linalg.eigvalsh(covs).min() <= 100.0 * gmm.COVARIANCE_FLOOR)


# The largest final log-likelihood difference from the reference on draws with a
# component on the covariance floor, in draws of chart_rows' recipe made with numpy
# alone, a spike in every demonstration of a draw or in none (fits whose iteration count
# changed included): 9.3e-7 in 4900 draws with the whitening E-step, 2.6e-6 in 1500 with
# the design-product one.  It bounds every trace entry of such draws, too.
FLOOR_LL_BOUND = 1e-5

# both loops run this many iterations, as many as three in four mixture_rows draws need
# to stop on their own
FIXED_ITERATIONS = 50


@settings(max_examples=150, deadline=None)
@given(mixture_rows())
def test_fit_gmm_matches_the_reference_em_loop(case):
    # the design-product loop sums in another order, so over the same iterations its
    # numbers agree with the reference's to rounding level; where each loop stops is
    # test_em_stops_at_the_first_gain_below_em_tol's concern
    data, k, seed = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gmm, "EM_TOL", -np.inf)
        patch.setattr(gmm, "EM_MAX_ITER", FIXED_ITERATIONS)
        try:
            ref = reference_fit_gmm(data, k, seed)
        except DegenerateData:
            with pytest.raises(DegenerateData):
                gmm.fit_gmm(data, n_components=k, seed=seed)
            return
        mix = gmm.fit_gmm(data, n_components=k, seed=seed)
    trace, ref_trace = mix.log_likelihoods, ref.log_likelihoods
    assert trace.size == ref_trace.size == FIXED_ITERATIONS
    # a floor component's log-determinant turns the moments' rounding into up to about
    # 1e-7 of log-likelihood; the parameters stay within 1e-10 on every draw
    if on_the_floor(ref.covariances):
        assert np.abs(trace - ref_trace).max() <= FLOOR_LL_BOUND
    else:
        assert close(trace, ref_trace, 1e-9)
    # monotone as the reference is: the floor added after each M-step lets both traces
    # dip on a few small row sets (by 1.2e-9 at most here)
    slack = 1e-10 + 2.0 * np.abs(trace - ref_trace).max()
    assert np.diff(trace).min() >= np.diff(ref_trace).min() - slack
    assert close(mix.priors, ref.priors, 1e-9)
    assert close(mix.means, ref.means, 1e-9)
    assert close(mix.covariances, ref.covariances, 1e-9)


@settings(max_examples=100, deadline=None)
@given(mixture_rows())
def test_em_stops_at_the_first_gain_below_em_tol(case):
    # an absolute gain in mean log-likelihood per row: a relative rule scaled by |ll|
    # would stop these fits elsewhere
    data, k, seed = case
    try:
        mix = gmm.fit_gmm(data, n_components=k, seed=seed)
    except DegenerateData:
        return
    gains = np.diff(mix.log_likelihoods)
    assert np.all(gains[:-1] >= gmm.EM_TOL)
    if mix.log_likelihoods.size < gmm.EM_MAX_ITER:
        assert gains[-1] < gmm.EM_TOL


@st.composite
def chart_rows(draw):
    """(t, psi, psi_dot) rows of 1-5 demonstrations as a chart holds them.

    Times span [0, 10], psi stays inside the pi-ball and psi_dot is its difference
    quotient; a demonstration that wraps at the shell spikes to 5-50 rad/s on 1-2 rows.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 5))
    demos = draw(st.integers(1, 5))
    samples = draw(st.integers(max(20, -(-10 * k // demos)), 120))
    times = np.linspace(0.0, 10.0, samples)
    s = times[:, None] / 10.0
    blocks = []
    for _ in range(demos):
        ends = rng.normal(size=(2, 3))
        ends *= rng.uniform(0.0, 2.8, size=(2, 1)) / np.linalg.norm(ends, axis=1, keepdims=True)
        wobble = np.sin(2.0 * np.pi * s * rng.uniform(0.5, 2.0, 3) + rng.uniform(0.0, 6.0, 3))
        psi = ends[0] + (ends[1] - ends[0]) * s + 0.2 * wobble
        psi *= 3.1 / np.maximum(np.linalg.norm(psi, axis=1, keepdims=True), 3.1)
        psi_dot = np.gradient(psi, times, axis=0)
        if draw(st.booleans()):
            at = rng.integers(samples - 2)
            direction = rng.normal(size=3)
            psi_dot[at:at + rng.integers(1, 3)] += (rng.uniform(5.0, 50.0) * direction
                                                     / np.linalg.norm(direction))
        blocks.append(np.column_stack([times, psi, psi_dot]))
    return np.vstack(blocks), k, draw(st.integers(0, 99))


@settings(max_examples=150, deadline=None)
@given(chart_rows())
def test_moment_m_step_matches_the_reference_em_loop_at_chart_scale(case):
    # second moments about the rows' mean lose eps E|x - c|^2 to cancellation, which
    # psi_dot spikes of 50 rad/s make large; away from the covariance floor that stays at
    # rounding level, while a floor component moves the log-likelihood and with it the stop
    data, k, seed = case
    try:
        ref = reference_fit_gmm(data, k, seed)
    except DegenerateData:
        with pytest.raises(DegenerateData):
            gmm.fit_gmm(data, n_components=k, seed=seed)
        return
    mix = gmm.fit_gmm(data, n_components=k, seed=seed)
    trace, ref_trace = mix.log_likelihoods, ref.log_likelihoods
    if on_the_floor(ref.covariances):
        assert abs(trace[-1] - ref_trace[-1]) <= FLOOR_LL_BOUND
        return
    gains = np.diff(ref_trace)
    if np.any(np.abs(gains - gmm.EM_TOL) <= 1e-6 * gmm.EM_TOL):
        return  # a knife-edge stop
    assert trace.size == ref_trace.size
    assert close(mix.priors, ref.priors, 1e-9)
    assert close(mix.means, ref.means, 1e-9)
    assert close(mix.covariances, ref.covariances, 1e-9)


@settings(max_examples=150, deadline=None)
@given(st.one_of(mixture_rows(), chart_rows()))
def test_design_product_log_densities_match_the_reference(case):
    # fit_gmm's E-step takes log N(x; mu_k, Sigma_k) as one product of coefficients with
    # upper(h h^T), h = [1, x - c].  With W = [L^-1 (c - mu) | L^-1] and Q = W^T W it
    # equals -h^T Q h / 2 - log det L - (D/2) log 2 pi, whose terms' magnitudes sum to
    # S = |h|^T |W|^T |W| |h| / 2 + |log det L| + (D/2) log 2 pi (|Q| <= |W|^T |W|).
    # To first order the M-term product of rounded coefficients and design entries errs by
    # (M + 1) eps S, forming W's first column and Q by 2 (D + 1) eps S, and the reference's
    # whitening and sum of squares by 3 (D + 1) eps S, so c = M + 1 + 5 (D + 1).  The
    # reference gets the same centred rows: uncentred, its own rounding grows with |x|,
    # not with |x - c|.  The largest ratio to eps S seen in 3000 numpy draws of the two
    # recipes was 7.3.
    data, k, seed = case
    try:
        mix = gmm.fit_gmm(data, n_components=k, seed=seed)
    except DegenerateData:
        return
    n, dim = data.shape
    centre = data.mean(axis=0)
    pairs = gmm._upper_pairs(dim + 1)
    design = gmm._homogeneous_design(data, centre, pairs)
    got = gmm._log_density_coefficients(mix.means, mix.covariances, centre, pairs) @ design
    want = reference_log_gaussians(data - centre, mix.means - centre, mix.covariances).T
    chol = np.linalg.cholesky(mix.covariances)
    chol_inv = np.linalg.inv(chol)
    w = np.abs(np.concatenate([chol_inv @ (centre - mix.means)[:, :, None], chol_inv], axis=2))
    h = np.abs(np.vstack([np.ones(n), (data - centre).T]))
    wh = w @ h  # (K, D, N)
    scale = (0.5 * np.einsum("kdn,kdn->kn", wh, wh)
             + np.abs(np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1))[:, None]
             + 0.5 * dim * np.log(2.0 * np.pi))
    c = design.shape[0] + 1 + 5 * (dim + 1)
    assert np.all(np.abs(got - want) <= c * np.finfo(float).eps * scale)


def far_clusters(rng, n, dim):
    """Rows in two tight clusters 1e6 apart, whose 2-component fit fails mid-EM.

    About the rows' mean, a component's second moments and its mean shift's square are
    both about 2.5e11, so their difference loses more than the covariance floor to
    cancellation, and a covariance without a Cholesky factor raises DegenerateData.
    """
    centres = rng.normal(size=(2, dim)) * 1e6
    return centres[rng.integers(2, size=n)] + 1e-6 * rng.normal(size=(n, dim))


@st.composite
def fit_batches(draw):
    """2-6 row sets of one shape for one fit_gmms call, up to two of them degenerate.

    A degenerate member either fails its first checks (an entry that overflows when
    squared) or, at 2 or more components, fails mid-EM (far_clusters).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 3))
    dim = draw(st.sampled_from([2, 3, 7]))
    n = draw(st.integers(max(10 * k, 20), 150))
    datas = []
    for _ in range(draw(st.integers(2, 6))):
        centres = rng.normal(scale=3.0, size=(rng.integers(1, 5), dim))
        spread = rng.uniform(0.05, 1.0, size=centres.shape)
        pick = rng.integers(centres.shape[0], size=n)
        datas.append(centres[pick] + spread[pick] * rng.normal(size=(n, dim)))
    for j in draw(st.lists(st.integers(0, len(datas) - 1), max_size=2, unique=True)):
        if draw(st.booleans()):
            datas[j] = far_clusters(rng, n, dim)
        else:
            datas[j][rng.integers(n), rng.integers(dim)] = 1e300
    return datas, k, draw(st.integers(0, 99))


@settings(max_examples=120, deadline=None)
@given(fit_batches(), st.data())
def test_fit_gmms_equals_one_fit_gmm_per_row_set_at_every_slot_count(case, data):
    # the slot count S runs from 1 to the batch size, and a patched-down EM_MAX_ITER
    # stops fits at the cap, in the first iteration too; values, traces and the arrays'
    # strides match fit_gmm's, and a failing batch raises the first failing fit's error
    datas, k, seed = case
    n, dim = datas[0].shape
    design_bytes = 8 * n * (dim + 1) * (dim + 2) // 2
    slots = data.draw(st.integers(1, len(datas)), label="slots")
    max_iter = data.draw(st.sampled_from([1, 2, 7, gmm.EM_MAX_ITER]), label="EM_MAX_ITER")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gmm, "EM_SLOT_BYTES", slots * design_bytes)
        patch.setattr(gmm, "EM_MAX_ITER", max_iter)
        try:
            want = [gmm.fit_gmm(rows, n_components=k, seed=seed) for rows in datas]
        except DegenerateData as exc:
            with pytest.raises(DegenerateData) as info:
                gmm.fit_gmms(datas, n_components=k, seed=seed)
            assert str(info.value) == str(exc)
            return
        got = gmm.fit_gmms(datas, n_components=k, seed=seed)
    assert len(got) == len(want)
    for mix, ref in zip(got, want):
        for name in ("priors", "means", "covariances", "log_likelihoods"):
            a, b = getattr(mix, name), getattr(ref, name)
            assert (a.shape, a.strides, a.tobytes()) == (b.shape, b.strides, b.tobytes()), name


def test_fit_gmms_takes_row_sets_of_one_shape():
    rng = np.random.default_rng(0)
    assert gmm.fit_gmms([]) == []
    with pytest.raises(ValueError, match="one shape"):
        gmm.fit_gmms([rng.normal(size=(60, 3)), rng.normal(size=(61, 3))], n_components=2)
