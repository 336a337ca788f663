from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orifuse import fusion, kmp, so3
from orifuse._kernels import memory_average_step, rot_exp_many
from orifuse.demo_gen import generate_demos
from orifuse.errors import DomainOverlap, SeriesTooShort
from orifuse.fusion import IovpSpec, WeightCurveSet
from orifuse.rotavg import D_TH_DEFAULT, E_PSI_DEFAULT, HISTORY_CAPACITY


@pytest.fixture(scope="module")
def demos():
    return generate_demos("s61-like", 5, seed=0)


@pytest.fixture(scope="module")
def multi_iovp_setup(demos):
    psi3 = np.array([0.0, 2.2214, -2.2214])
    psi3 = psi3 / np.linalg.norm(psi3) * np.pi  # exact boundary target
    baseline = IovpSpec(0.0, so3.exp_map([1.2614, 1.0512, 1.5767]), np.zeros(3))
    iovps = [
        IovpSpec(4.0, so3.exp_map([0.7028, 1.1713, 0.4685]),
                 np.array([0.0069, 0.2103, 0.2138]), relaxed_axis="y"),
        IovpSpec(7.0, so3.exp_map([-0.5236, 0.0, 0.0]),
                 np.array([0.0, 0.15, 0.2598]), relaxed_axis="z"),
        IovpSpec(10.0, so3.exp_map(psi3), np.zeros(3), relaxed_axis="y"),
    ]
    cfg = kmp.KernelConfig(l=0.01, lam=1.0)
    grid = np.linspace(0, 10, 2001)
    components, frames = fusion.build_component_trajectories(
        demos, baseline, iovps, cfg, grid, n_components=5, seed=0, gmm_cache={})
    return baseline, iovps, components, frames


def test_gauss_weight_center_and_edges():
    t = np.array([5.0, 5.0 + 2.4, 5.0 - 2.4])
    w = WeightCurveSet(np.array([5.0]), np.array([2.4])).weight_matrix(t)[:, 1]
    assert w[0] == 1.0
    edge = w[1]
    assert abs(edge - np.exp(-4.5)) < 1e-15
    assert abs(edge - 0.011108996538242306) < 1e-15
    assert abs(w[2] - edge) < 1e-15


def test_gauss_weight_curve_shape():
    # two curves: unit peaks at their centers, near-zero at the other's center
    t = np.linspace(0, 12, 400)
    w = WeightCurveSet(np.array([5.0, 10.0]), np.array([2.4, 2.4])).weight_matrix(t)
    w1, w2 = w[:, 1], w[:, 2]
    assert abs(w1[np.argmin(np.abs(t - 5.0))] - 1.0) < 1e-3
    assert abs(w2[np.argmin(np.abs(t - 10.0))] - 1.0) < 1e-3
    assert w1[np.argmin(np.abs(t - 10.0))] < 0.02
    assert np.all(np.diff(w1[t < 5.0]) > 0)


def test_weight_matrix_partition_is_exact():
    curves = WeightCurveSet(np.array([4.0, 7.0, 10.0]), np.array([2.4, 2.4, 2.4]))
    t = np.linspace(0, 10, 5001)
    w = curves.weight_matrix(t)
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12


def test_overlapping_domains_rejected():
    iovps = [
        IovpSpec(4.0, np.eye(3), np.zeros(3), weight_half_width=2.4),
        IovpSpec(5.0, so3.exp_map([0.1, 0, 0]), np.zeros(3), weight_half_width=2.4),
    ]
    with pytest.raises(DomainOverlap, match="t=4.0 and t=5.0"):
        fusion.weight_curves_for(iovps)
    with pytest.raises(DomainOverlap, match="t=4.0 and t=4.6"):
        WeightCurveSet(np.array([4.0, 4.6]), np.array([2.4, 2.4]))
    with pytest.raises(DomainOverlap, match="out of order"):
        WeightCurveSet(np.array([7.0, 4.0]), np.array([0.5, 0.5]))
    # a half-width may end exactly on the neighbor's center
    WeightCurveSet(np.array([4.0, 6.4]), np.array([2.4, 2.4]))


def test_half_widths_below_the_via_time_tolerance_rejected():
    # 1e-300 used to pass and then divide by an underflowed variance in weight_matrix
    for width in (1e-300, 5e-324, 0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="at least 1e-09 s, the via time tolerance"):
            WeightCurveSet(np.array([4.0]), np.array([width]))
    curves = WeightCurveSet(np.array([4.0]), np.array([kmp.VIA_TIME_TOL]))
    weights = curves.weight_matrix(np.linspace(0, 10, 11))
    assert np.array_equal(weights[:, 1], np.linspace(0, 10, 11) == 4.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=6),
       st.lists(st.one_of(st.just(1.0), st.floats(0.05, 1.3)), min_size=6, max_size=6))
def test_accepted_weight_curves_sum_below_bound(gaps, reach):
    # the pairwise rule alone keeps the curve sum near 1: every accepted set stays
    # <= 1.05 on a grid through its centers; half-widths are fractions of the
    # nearer neighbor gap, and sets whose fractions stay <= 1 are accepted
    centers = np.cumsum(gaps)
    room = np.minimum(np.diff(centers, prepend=-np.inf), np.diff(centers, append=np.inf))
    half_widths = np.array(reach[:len(centers)]) * np.where(np.isfinite(room), room, 1.0)
    try:
        curves = WeightCurveSet(centers, half_widths)
    except DomainOverlap:
        assert max(reach[:len(centers)]) > 1.0
        return
    grid = np.sort(np.concatenate([np.linspace(0.0, centers[-1] + 1.0, 4001), centers]))
    assert curves.weight_matrix(grid)[:, 1:].sum(axis=1).max() <= 1.05


def test_fuse_no_iovps_is_baseline_bitwise(demos):
    baseline = IovpSpec(0.0, so3.exp_map([1.2614, 1.0512, 1.5767]), np.zeros(3))
    cfg = kmp.KernelConfig(l=0.01, lam=1.0)
    grid = np.linspace(0, 10, 201)
    components, _ = fusion.build_component_trajectories(
        demos, baseline, [], cfg, grid, n_components=5, seed=0, gmm_cache={})
    fused = fusion.fuse(components, WeightCurveSet(np.empty(0), np.empty(0)))
    assert np.array_equal(fused.rotations, components[0].rotations)
    assert np.array_equal(fused.omega_world, components[0].omega_world)


def test_fuse_identical_components_returns_them():
    times = np.linspace(0, 10, 501)
    Rs = np.stack([so3.exp_map([0.1 + 0.05 * t, 0.02 * t, 0.0]) for t in times])
    omega = kmp.angular_velocities(Rs, float(times[1] - times[0]))
    comp = kmp.OrientationTrajectory(times, Rs, omega)
    curves = WeightCurveSet(np.array([5.0]), np.array([2.4]))
    fused = fusion.fuse([comp, comp], curves)
    assert max(so3.geodesic_distance(a, b) for a, b in zip(fused.rotations, Rs)) < 1e-12


def test_fused_output_far_from_centers_is_baseline():
    # beyond 2 * delta_t from the only center the via weight is < 1e-5 and
    # the fused output collapses onto the baseline
    times = np.linspace(0, 10, 1001)
    dt = float(times[1] - times[0])
    base_Rs = np.stack([so3.exp_map([0.2 + 0.1 * t, 0.05 * t, 0.0]) for t in times])
    via_Rs = np.stack([so3.exp_map([1.5 - 0.1 * t, 0.0, 0.3]) for t in times])
    base = kmp.OrientationTrajectory(times, base_Rs, kmp.angular_velocities(base_Rs, dt))
    via = kmp.OrientationTrajectory(times, via_Rs, kmp.angular_velocities(via_Rs, dt))
    curves = WeightCurveSet(np.array([7.0]), np.array([2.4]))
    fused = fusion.fuse([base, via], curves)
    far = np.abs(times - 7.0) > 2 * 2.4
    assert far.any()
    assert fused.weights[far, 1].max() < 1e-5
    for i in np.flatnonzero(far):
        assert so3.geodesic_distance(fused.rotations[i], base_Rs[i]) < 1e-6


def test_components_hit_their_own_targets(multi_iovp_setup):
    # component k passes its via target in its own chart (strict axes small)
    _, iovps, components, frames = multi_iovp_setup
    for k, iovp in enumerate(iovps, start=1):
        comp = components[k]
        i = int(np.argmin(np.abs(comp.times - iovp.t)))
        psi = so3.log_map(frames[k].T @ comp.rotations[i])
        strict = [j for j in range(3) if j != "xyz".index(iovp.relaxed_axis)]
        assert np.abs(psi[strict]).max() < 1e-3


def test_local_dominance_at_via_times(multi_iovp_setup):
    _, iovps, components, _ = multi_iovp_setup
    curves = fusion.weight_curves_for(iovps)
    fused = fusion.fuse(components, curves)
    w = fused.weights
    for k, iovp in enumerate(iovps, start=1):
        i = int(np.argmin(np.abs(fused.times - iovp.t)))
        assert w[i, k] / w[i].sum() > 0.95
        assert so3.geodesic_distance(fused.rotations[i], components[k].rotations[i]) < 5e-2


def test_strict_axis_satisfaction_and_continuity(multi_iovp_setup):
    _, iovps, components, _ = multi_iovp_setup
    curves = fusion.weight_curves_for(iovps)
    fused = fusion.fuse(components, curves)
    for k, iovp in enumerate(iovps, start=1):
        i = int(np.argmin(np.abs(fused.times - iovp.t)))
        err = fusion.axis_alignment_error(fused.rotations[i], iovp.rotation, iovp.relaxed_axis)
        assert err < 1e-2
    max_step, median_step = fusion.continuity_stats(fused.rotations)
    assert max_step <= 10 * median_step


def test_memory_ablation_breaks_continuity(multi_iovp_setup):
    _, iovps, components, _ = multi_iovp_setup
    curves = fusion.weight_curves_for(iovps)
    fused = fusion.fuse(components, curves, memory=True)
    broken = fusion.fuse(components, curves, memory=False)
    max_mem, _ = fusion.continuity_stats(fused.rotations)
    max_nomem, _ = fusion.continuity_stats(broken.rotations)
    assert max_nomem > 10 * max_mem


def per_step_fuse(components, weights):
    """Fusion in time order, one memory_average_step per fold and sample."""
    n_via = len(components) - 1
    q = weights.shape[0]
    rotations = np.empty((q, 3, 3))
    turns = np.zeros((q, n_via), dtype=np.int64)
    states = [[0, np.zeros((HISTORY_CAPACITY, 3)), 0] for _ in range(n_via)]
    for i in range(q):
        cur = components[1].rotations[i]
        acc_w = weights[i, 1]
        for fold, k in enumerate(list(range(2, n_via + 1)) + [0]):
            n_turns, hist, n_hist = states[fold]
            cur, n_turns, n_hist = memory_average_step(
                cur, components[k].rotations[i], acc_w, weights[i, k],
                n_turns, hist, n_hist, D_TH_DEFAULT, E_PSI_DEFAULT,
            )
            states[fold] = [n_turns, hist, n_hist]
            turns[i, fold] = n_turns
            acc_w += weights[i, k]
        rotations[i] = cur
    return rotations, turns


@pytest.fixture(scope="module")
def ablation_scene(multi_iovp_setup, demos):
    # the memory-ablation protocol: the same three IOVPs on a 1 ms grid
    baseline, iovps, _, _ = multi_iovp_setup
    components, _ = fusion.build_component_trajectories(
        demos, baseline, iovps, kmp.KernelConfig(l=0.01, lam=1.0), np.linspace(0, 10, 10001),
        n_components=5, seed=0, gmm_cache={})
    return iovps, components


def test_fold_by_fold_fuse_matches_per_step_loop(ablation_scene):
    iovps, components = ablation_scene
    fused = fusion.fuse(components, fusion.weight_curves_for(iovps))
    rotations, turns = per_step_fuse(components, fused.weights)
    assert np.array_equal(fused.turn_counts, turns)
    assert np.any(turns != 0)  # the scene crosses the boundary: flips happen
    assert np.abs(fused.rotations - rotations).max() <= 1e-12


def random_components(rng, count, times):
    """count component trajectories whose rotations wander far enough to cross pi."""
    components = []
    for _ in range(count):
        start, drift, swing = rng.uniform(-2.0, 2.0, (3, 3))
        psis = start + np.outer(times, drift) / 4.0 + np.outer(np.sin(times), swing)
        components.append(kmp.OrientationTrajectory(times, rot_exp_many(psis),
                                                    np.zeros((times.shape[0], 3))))
    return components


@settings(max_examples=40, deadline=None)
@given(n_via=st.integers(2, 4), memory=st.booleans(), seed=st.integers(0, 2**16),
       data=st.data())
def test_fuse_continued_from_a_chain_prefix_is_the_plain_fuse_bitwise(n_via, memory, seed,
                                                                      data):
    j = data.draw(st.integers(1, n_via - 1), label="prefix vias")
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 10.0, 401)
    components = random_components(rng, n_via + 1, times)
    centers = np.linspace(1.0, 9.0, n_via) + rng.uniform(-0.3, 0.3, n_via)
    gap = np.diff(centers).min()
    widths = rng.uniform(0.2, 1.0, n_via) * gap
    curves = WeightCurveSet(centers, widths)
    prefix = fusion.fold_chain(components[:j + 1], WeightCurveSet(
        centers[:j], widths[:j]).weight_matrix(times), memory)
    plain = fusion.fuse(components, curves, memory=memory)
    continued = fusion.fuse(components, curves, memory=memory, prefix=prefix)
    for name in ("times", "rotations", "omega_world", "weights"):
        assert np.array_equal(getattr(continued, name), getattr(plain, name)), name
    if memory:
        assert np.array_equal(continued.turn_counts, plain.turn_counts)
    else:
        assert continued.turn_counts is plain.turn_counts is None
    # the prefix is a state to continue from, not one to change
    assert len(prefix[2]) == j - 1


def test_acceleration_cost_constant_omega_is_zero():
    omega = np.tile([0.2, -0.1, 0.4], (100, 1))
    assert fusion.acceleration_cost(omega, 0.01) < 1e-20


def test_acceleration_cost_sine_oracle():
    t = np.arange(0.0, 2 * np.pi, 1e-3)
    omega = np.stack([np.sin(t), np.zeros_like(t), np.zeros_like(t)], axis=1)
    # omega_dot = cos(t): mean of cos^2 over a full period is 1/2
    assert abs(fusion.acceleration_cost(omega, 1e-3) - 0.5) < 1e-3


def test_acceleration_cost_too_short():
    with pytest.raises(SeriesTooShort):
        fusion.acceleration_cost(np.zeros((2, 3)), 0.1)


def test_axis_alignment_error():
    R = so3.exp_map([0.0, 0.0, 0.7])
    # rotation about z leaves the z axis fixed
    assert fusion.axis_alignment_error(R, np.eye(3), "z") < 1e-12
    assert abs(fusion.axis_alignment_error(R, np.eye(3), "x") - 0.7) < 1e-12


def test_iovp_variance_patterns():
    assert IovpSpec is kmp.ViaPointSpec
    iovp = IovpSpec(2.0, np.eye(3), np.zeros(3), relaxed_axis="y")
    cov = iovp.covariance_matrix()
    assert cov.shape == (6, 6)
    assert np.array_equal(np.diag(cov), [1e-10, 1e3, 1e-10, 1e-10, 1e-10, 1e-10])
    assert np.array_equal(cov, np.diag(np.diag(cov)))
    # velocity_var defaults to eps_strict; a 9x9 covariance needs acceleration_var
    loose = replace(iovp, eps_strict=1e-8, acceleration_var=0.01)
    cov9 = loose.covariance_matrix()
    assert cov9.shape == (9, 9)
    assert np.array_equal(np.diag(cov9), [1e-8, 1e3, 1e-8] + [1e-8] * 3 + [0.01] * 3)
    explicit = IovpSpec(2.0, np.eye(3), np.zeros(3), np.diag([1e-6] * 6))
    assert np.array_equal(explicit.covariance_matrix(), np.diag([1e-6] * 6))
    with pytest.raises(ValueError):
        replace(explicit, relaxed_axis="y")
