"""End-to-end regression pipeline for one auxiliary frame.

Chains projection, mixture fitting, reference extraction, via-point insertion,
optional acceleration augmentation, model building and orientation recovery.
Mixture fits are the expensive step; callers sweeping many runs over the same
demonstrations can pass a dict cache keyed by (frame, components, seed).
"""

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


def fit_projected_mixture(demos, R_aux, n_components, seed, cache=None):
    """Fit (or recall) the mixture of chart-projected demonstrations."""
    key = None
    if cache is not None:
        key = (np.asarray(R_aux, dtype=float).tobytes(), int(n_components), int(seed))
        hit = cache.get(key)
        if hit is not None:
            return hit
    projected = gmm_mod.project_demonstrations(demos, R_aux)
    rows = gmm_mod.stack_training_rows(projected)
    mixture = gmm_mod.fit_gmm(rows, n_components=n_components, seed=seed)
    if cache is not None:
        cache[key] = mixture
    return mixture


def reproduce_with_via_points(demos, R_aux, vias, cfg, grid_times,
                              n_components=gmm_mod.DEFAULT_COMPONENTS, seed=0, gmm_cache=None):
    """Learn from demonstrations and adapt towards the given via-points.

    vias is a list of kmp.ViaPointSpec (may be empty for pure reproduction).
    The reference grid spans the demonstration duration with REF_SIZE points;
    grid_times is the output grid.
    """
    mixture = fit_projected_mixture(demos, R_aux, n_components, seed, gmm_cache)
    reference = gmm_mod.extract_reference(mixture, demo_grid(demos, REF_SIZE))
    extended = kmp.extend_reference(reference, vias, R_aux, cfg.lambda_a)
    model = kmp.build_model(extended, cfg)
    trajectory = kmp.reproduce_orientation_trajectory(model, R_aux, grid_times)
    return PipelineResult(trajectory, mixture)
