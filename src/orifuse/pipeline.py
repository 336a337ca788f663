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
from dataclasses import dataclass

import numpy as np

from . import gmm as gmm_mod
from . import kmp

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


def reproduce_with_via_points(demos, R_aux, vias, cfg, grid_times,
                              n_components=gmm_mod.DEFAULT_COMPONENTS, seed=0, gmm_cache=None):
    """Learn from demonstrations and adapt towards the given via-points.

    vias is a list of kmp.ViaPointSpec (may be empty for pure reproduction).
    The reference grid spans the demonstration duration with REF_SIZE points;
    grid_times is the output grid.

    gmm_cache is the mixture cache (see the module docstring), a fresh dict
    when None.
    """
    gmm_cache = {} if gmm_cache is None else gmm_cache
    mixture = fit_projected_mixture(demos, R_aux, n_components, seed, gmm_cache)
    reference = gmm_mod.extract_reference(mixture, demo_grid(demos, REF_SIZE))
    extended = kmp.extend_reference(reference, vias, R_aux, cfg.lambda_a)
    model = kmp.build_model(extended, cfg)
    trajectory = kmp.reproduce_orientation_trajectory(model, R_aux, grid_times)
    return PipelineResult(trajectory, mixture)
