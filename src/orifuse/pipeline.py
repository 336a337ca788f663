"""End-to-end regression pipeline for one auxiliary frame.

Chains projection, mixture fitting, reference extraction, via-point insertion,
optional acceleration augmentation, model building and orientation recovery.
Every regression goes through one memo, the dict gmm_cache: a sweep or eval
passes one for the whole run, a call without one gets a fresh dict.  It holds
every mixture, keyed by (frame, components, seed), and the trajectories of
regressions that repeat: a regression's result is kept only the second time
its inputs are seen, so inputs that occur once cost no memory.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from . import gmm as gmm_mod
from . import kmp

# points of the GMR reference grid spanning the demonstration duration
REF_SIZE = 200
# what gmm_cache holds for a regression seen once
_SEEN_ONCE = object()


@dataclass(frozen=True)
class PipelineResult:
    trajectory: kmp.OrientationTrajectory
    mixture: gmm_mod.GaussianMixture


def demo_grid(demos, n):
    """n uniform times spanning the demonstrations, first start to last end."""
    t0 = min(float(d.times[0]) for d in demos)
    t1 = max(float(d.times[-1]) for d in demos)
    return np.linspace(t0, t1, n)


def fit_projected_mixture(demos, R_aux, n_components, seed, cache):
    """Fit (or recall from the cache dict) the mixture of chart-projected demonstrations."""
    key = (np.asarray(R_aux, dtype=float).tobytes(), int(n_components), int(seed))
    mixture = cache.get(key)
    if mixture is None:
        projected = gmm_mod.project_demonstrations(demos, R_aux)
        rows = gmm_mod.stack_training_rows(projected)
        mixture = cache[key] = gmm_mod.fit_gmm(rows, n_components=n_components, seed=seed)
    return mixture


def _regression_key(extended, R_aux, grid_times, cfg):
    """gmm_cache key of one regression: its kernel config and a digest of its inputs.

    The digest covers the shape and exact bytes of the regression rows, the
    chart and the output grid.  The rows come from the mixture, so components
    and seed are covered too.
    """
    digest = hashlib.sha256()
    for array in (extended.times, extended.means, extended.covariances,
                  np.asarray(R_aux, dtype=float), np.asarray(grid_times, dtype=float)):
        array = np.ascontiguousarray(array)
        digest.update(repr(array.shape).encode())
        digest.update(array)
    return ("regression", cfg, digest.digest())


def reproduce_with_via_points(demos, R_aux, vias, cfg, grid_times,
                              n_components=gmm_mod.DEFAULT_COMPONENTS, seed=0, gmm_cache=None):
    """Learn from demonstrations and adapt towards the given via-points.

    vias is a list of kmp.ViaPointSpec (may be empty for pure reproduction).
    The reference grid spans the demonstration duration with REF_SIZE points;
    grid_times is the output grid.

    The regression (model build, prediction and orientation recovery) is
    memoized on its exact inputs in gmm_cache, a fresh dict when None.  The
    first sight of a key stores only a marker; the second stores the
    trajectory, with its arrays made read-only, and later calls return that
    object.  So a regression that repeats is built twice and then recalled,
    one that occurs once is built once and never kept.  A caller whose inputs
    occur at most twice (learn, adapt, eval, a lambda_a sweep) gains nothing
    and pays the hashing, about 0.1 ms for 200 rows and a 2001-point grid.
    Projection, mixture lookup, reference extraction and extend_reference run
    on every call, so their checks (chart boundary, via times) still fire;
    the checks a recalled result skips depend only on the hashed inputs.
    """
    gmm_cache = {} if gmm_cache is None else gmm_cache
    mixture = fit_projected_mixture(demos, R_aux, n_components, seed, gmm_cache)
    reference = gmm_mod.extract_reference(mixture, demo_grid(demos, REF_SIZE))
    extended = kmp.extend_reference(reference, vias, R_aux, cfg.lambda_a)
    key = _regression_key(extended, R_aux, grid_times, cfg)
    hit = gmm_cache.get(key)
    if isinstance(hit, kmp.OrientationTrajectory):
        return PipelineResult(hit, mixture)
    model = kmp.build_model(extended, cfg)
    trajectory = kmp.reproduce_orientation_trajectory(model, R_aux, grid_times)
    # Trial threads of a sweep share the cache without a lock: two of them
    # may build one key at once, or a late marker may replace a kept
    # trajectory.  Either costs a build, never a different result, because
    # the regression is deterministic: every store holds the same bytes.
    if key in gmm_cache:
        for array in (trajectory.times, trajectory.rotations, trajectory.omega_world):
            array.setflags(write=False)
        gmm_cache[key] = trajectory
    else:
        gmm_cache[key] = _SEEN_ONCE
    return PipelineResult(trajectory, mixture)
