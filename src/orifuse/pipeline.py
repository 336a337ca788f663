"""End-to-end regression pipeline for one auxiliary frame.

Chains projection, mixture fitting, reference extraction, via-point insertion,
optional acceleration augmentation, model building and orientation recovery.
The dict gmm_cache is a mixture cache keyed by (frame, components, seed) and
one SHA-256 digest of every demonstration's row count, times and rotations, so
runs on one demonstration set in one chart fit their mixture once; a call
without one gets a fresh dict.
Threads may share it without a lock: two may fit one mixture at once, which
costs a fit, never a different result.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import gmm as gmm_mod
from . import kmp
from .errors import ConfigError

# points of the GMR reference grid spanning the demonstration duration
REF_SIZE = 200


@dataclass(frozen=True)
class PipelineResult:
    trajectory: kmp.OrientationTrajectory
    mixture: gmm_mod.GaussianMixture


def demo_grid(demos, n):
    """n uniform times spanning the demonstrations, first start to last end."""
    t0 = min(float(d.times[0]) for d in demos)
    t1 = max(float(d.times[-1]) for d in demos)
    return np.linspace(t0, t1, n)


def check_vias(demos, vias, grid_times):
    """ConfigError unless every via's time suits the demonstrations and its speed the grid.

    A via may lie up to one span length outside the demonstrations' span, from the first
    start to the last end, far from overflow of the kernel's squared time differences.
    Its |omega| must be below pi / (2 step), step the largest of grid_times: above it the
    two-step central difference of kmp.angular_velocities wraps at pi.
    """
    t0, t1 = demo_grid(demos, 2)
    span = t1 - t0
    step = float(np.max(np.diff(grid_times), initial=0.0))
    max_speed = math.pi / (2.0 * step) if step > 0 else math.inf
    for via in vias:
        if not t0 - span <= via.t <= t1 + span:
            raise ConfigError(f"via at t={via.t:g} lies outside {t0 - span:g} to {t1 + span:g} "
                              f"s: a via time must lie within one demonstration span "
                              f"({span:g} s) of the demonstrations' {t0:g} to {t1:g} s")
        speed = math.hypot(*via.omega)  # unlike a sum of squares, hypot does not overflow
        if not speed < max_speed:
            raise ConfigError(f"via at t={via.t:g} has |omega| {speed:.6g} rad/s: the grid's "
                              "two-step velocity wraps at pi, so it must be below pi / (2 x "
                              f"{step:.6g} s) = {max_speed:.6g} rad/s")


# the kernel derivative table's terms stay below 64 M^4 (check_kernel); below this M,
# they stay finite
MAX_KERNEL_REACH = (np.finfo(float).max / 64.0) ** 0.25


def check_kernel(demos, l):
    """ConfigError unless the kernel's derivative table stays finite for l on the demonstrations.

    Rows and queries lie within one span of the demonstrations (check_vias), so no two
    times are more than 3 spans apart.  kmp._gaussian_derivatives forms, up to the fourth
    derivative, terms l^a d^c with c <= 2a <= 8, each at most 64 M^4 for
    M = max(1, l, l (3 span)^2), so M must stay below MAX_KERNEL_REACH.
    """
    t0, t1 = demo_grid(demos, 2)
    # as Python floats, products overflow to inf without a warning
    l, span = float(l), float(t1 - t0)
    if not max(l, l * (3.0 * span) * (3.0 * span)) < MAX_KERNEL_REACH:
        raise ConfigError(f"kernel.l {l:g} is too large: l and l x (3 x {span:g} s, three "
                          f"demonstration spans)^2 must stay below {MAX_KERNEL_REACH:.4g}, "
                          "where the kernel's derivative table overflows")


def fit_projected_mixture(demos, R_aux, n_components, seed, cache):
    """Fit (or recall from the cache dict) the mixture of chart-projected demonstrations."""
    digest = hashlib.sha256()
    for d in demos:
        digest.update(len(d).to_bytes(8, "little") + d.times.tobytes() + d.rotations.tobytes())
    key = (np.asarray(R_aux, dtype=float).tobytes(), int(n_components), int(seed),
           digest.digest())
    mixture = cache.get(key)
    if mixture is None:
        projected = gmm_mod.project_demonstrations(demos, R_aux)
        rows = gmm_mod.stack_training_rows(projected)
        mixture = cache[key] = gmm_mod.fit_gmm(rows, n_components=n_components, seed=seed)
    return mixture


def regression_rows(demos, R_aux, vias, lambda_a, n_components, seed, gmm_cache):
    """(mixture, rows): the mixture of gmm_cache and its GMR reference extended by the vias."""
    mixture = fit_projected_mixture(demos, R_aux, n_components, seed, gmm_cache)
    reference = gmm_mod.extract_reference(mixture, demo_grid(demos, REF_SIZE))
    return mixture, kmp.extend_reference(reference, vias, R_aux, lambda_a)


def reproduce_with_via_points(demos, R_aux, vias, cfg, grid_times,
                              n_components=gmm_mod.DEFAULT_COMPONENTS, seed=0, gmm_cache=None):
    """Learn from demonstrations and adapt towards the given via-points.

    vias is a list of kmp.ViaPointSpec (may be empty for pure reproduction).
    The reference grid spans the demonstration duration with REF_SIZE points;
    grid_times is the output grid; check_vias checks the vias against both, and
    check_kernel the kernel's l against the demonstrations.

    gmm_cache is the mixture cache (see the module docstring), a fresh dict
    when None.
    """
    check_vias(demos, vias, grid_times)
    check_kernel(demos, cfg.l)
    gmm_cache = {} if gmm_cache is None else gmm_cache
    mixture, extended = regression_rows(demos, R_aux, vias, cfg.lambda_a, n_components, seed,
                                        gmm_cache)
    model = kmp.build_model(extended, cfg)
    trajectory = kmp.reproduce_orientation_trajectory(model, R_aux, grid_times)
    return PipelineResult(trajectory, mixture)
