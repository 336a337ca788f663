"""Multi-via-point orchestration and trajectory fusion.

Each incomplete-orientation via-point (IOVP) gets its own tangent chart: the
demonstrations are re-projected around the via-point's target rotation, the
via covariance relaxes exactly one axis, and a full regression run produces a
component trajectory that satisfies that constraint at its own time.  A
Gaussian weight curve per component then drives a sequential memory-based
weighted rotation average that blends the components into one continuous
trajectory dominated by component k near its time t_k.
"""

from dataclasses import dataclass

import numpy as np

from . import so3
from ._kernels import (
    consecutive_geodesic_steps,
    memory_average_many,
    stateless_average_many,
)
from .errors import DomainOverlap, SeriesTooShort
from .gmm import DEFAULT_COMPONENTS
from .kmp import (AXES, VIA_TIME_TOL, OrientationTrajectory, ViaPointSpec, angular_velocities,
                  build_models, reproduce_orientation_trajectories)
from .pipeline import check_kernel, check_vias, fit_projected_mixture, regression_rows

# An IOVP is a via-point with one relaxed axis; one spec type serves both.
IovpSpec = ViaPointSpec


@dataclass(frozen=True)
class WeightCurveSet:
    """Gaussian weight curves W_k plus the complementary baseline weight.

    W_k(t) = exp(-(t - t_k)^2 / (2 sigma_k^2)) with sigma_k = h_k / 3 for the
    half-width h_k; W_0(t) = 1 - sum_k W_k(t), so the partition sums to one
    exactly.  The non-interference principle holds by construction: the
    centers increase and no half-width reaches past a neighboring center, so
    at a center the other curves add at most about 2 exp(-4.5) ~ 0.022, and
    the curve sum stays below 1.05 everywhere.
    """

    centers: np.ndarray      # (K,)
    half_widths: np.ndarray  # (K,)

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        w = np.asarray(self.half_widths, dtype=float)
        if c.shape != w.shape or c.ndim != 1:
            raise ValueError("centers and half_widths must be matching 1-d arrays")
        # widths near 1e-150 s and below overflow the curve's exponent
        if not np.all(w >= VIA_TIME_TOL):
            raise ValueError(f"half widths must be at least {VIA_TIME_TOL:g} s, the via time "
                             "tolerance")
        # 1e-12 s of slack lets a half-width end exactly on its neighbor's center
        lo, hi = c[:-1], c[1:]
        bad = np.flatnonzero((hi <= lo) | (lo + w[:-1] > hi + 1e-12) | (hi - w[1:] < lo - 1e-12))
        if bad.size:
            i = bad[0]
            raise DomainOverlap(
                f"IOVPs at t={c[i]} and t={c[i + 1]} (weight_half_width {w[i]} and "
                f"{w[i + 1]}) " + ("are out of order" if hi[i] <= lo[i] else
                                   "reach past each other's time")
            )
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "half_widths", w)

    @property
    def n_curves(self):
        return self.centers.shape[0]

    def weight_matrix(self, times):
        """Columns [W_0, W_1, ..., W_K] on the grid."""
        times = np.asarray(times, dtype=float)
        k = self.n_curves
        out = np.empty((times.shape[0], k + 1))
        for j in range(k):
            sigma = self.half_widths[j] / 3.0
            out[:, j + 1] = np.exp(-((times - self.centers[j]) ** 2) / (2.0 * sigma**2))
        out[:, 0] = 1.0 - out[:, 1:].sum(axis=1)
        return out


def weight_curves_for(iovps):
    """The IOVPs' weight curves; DomainOverlap if their domains interfere."""
    return WeightCurveSet(
        np.array([vp.t for vp in iovps]),
        np.array([vp.weight_half_width for vp in iovps]),
    )


def build_component_trajectories(demos, baseline_via, iovps, cfg, grid_times,
                                 n_components=DEFAULT_COMPONENTS, seed=0, gmm_cache=None):
    """One regression run per via-point, each in its own tangent chart.

    Component 0 is the baseline: the run around the baseline via-point's
    rotation (or the first demonstration's start when baseline_via is None),
    adapted only towards that starting point.  Component k re-projects all
    demonstrations around the k-th via target and adapts towards it with its
    own covariance, typically the relaxed-axis pattern.  Via targets must be
    world-frame; WeightCurveSet checks their domains.  The runs share the
    mixture cache gmm_cache (a fresh dict when None).  Every run's vias and the
    kernel are checked before any fit, and the charts' missing mixtures are
    fitted in one pipeline.fit_projected_mixture call.  The runs of one chart,
    a via's relaxed and strict forms, share its GMR reference, kmp.build_models
    call and reproduction.  Returns (components, aux_frames).
    """
    gmm_cache = {} if gmm_cache is None else gmm_cache
    if baseline_via is None:
        runs = [(demos[0].rotations[0], [])]
    else:
        runs = [(baseline_via.target_rotation(), [baseline_via])]
    runs += [(vp.target_rotation(), [vp]) for vp in iovps]
    frames = [frame for frame, _ in runs]
    check_vias(demos, [vp for _, vias in runs for vp in vias], grid_times)
    check_kernel(demos, cfg.l)
    fit_projected_mixture(demos, frames, n_components, seed, gmm_cache)
    charts = {}  # frame bytes -> the indices of its runs
    for i, frame in enumerate(frames):
        charts.setdefault(frame.tobytes(), []).append(i)
    components = {}
    for chart in charts.values():
        _, rows = regression_rows(demos, frames[chart[0]], [runs[i][1] for i in chart],
                                  cfg.lambda_a, n_components, seed, gmm_cache)
        components.update(zip(chart, reproduce_orientation_trajectories(
            build_models(rows, cfg), frames[chart[0]], grid_times)))
    return [components[i] for i in range(len(runs))], frames


def fold_chain(components, weights, memory=True, prefix=None, baseline=False):
    """fuse's folds of components[1:] under weight columns [W_0, ..., W_K], with baseline
    its last fold too, from the state prefix if given: returns the state, the running
    average, its accumulated weight and each fold's turn counts (None if stateless)."""
    rotations, acc_w, turns = prefix or (components[1].rotations, weights[:, 1], [])
    for k in list(range(len(turns) + 2, weights.shape[1])) + ([0] if baseline else []):
        pair = (rotations, components[k].rotations, acc_w, weights[:, k])
        rotations, turn, _ = (memory_average_many(*pair) if memory else
                              (stateless_average_many(*pair), None, None))
        turns = turns + [turn]  # a new list: the prefix's stays as it is
        acc_w = acc_w + weights[:, k]
    return rotations, acc_w, turns


def fuse(components, curves, memory=True, prefix=None):
    """Blend K+1 component trajectories into one, preserving continuity.

    components[0] is the baseline; components[1:] pair with curves' centers.
    Per time step the K via components fold left-to-right through pairwise
    weighted averages with accumulated weights, and the result combines with
    the baseline under (sum W_k, W_0).  Every fold position owns a persistent
    memory state across the sweep; memory=False switches to the stateless
    average (diagnostic path that exhibits boundary discontinuities).  prefix,
    the fold_chain of components[:j + 1] under the first j curves' weights, is
    continued from: a curve's weights are its own, so the result is the same.
    """
    if not components:
        raise ValueError("need at least the baseline component")
    times = components[0].times
    for comp in components[1:]:
        if not np.array_equal(comp.times, times):
            raise ValueError("all components must share one time grid")
    n_via = len(components) - 1
    if curves.n_curves != n_via:
        raise ValueError("one weight curve per via component is required")
    weights = curves.weight_matrix(times)
    if n_via == 0:
        return OrientationTrajectory(
            times.copy(), components[0].rotations.copy(),
            components[0].omega_world.copy(), weights,
        )
    rotations, _, turns = fold_chain(components, weights, memory, prefix, baseline=True)
    turn_counts = np.stack(turns, axis=1) if memory else None
    dt = float(times[1] - times[0])
    omega = angular_velocities(rotations, dt)
    return OrientationTrajectory(times.copy(), rotations, omega, weights, turn_counts)


def acceleration_cost(omega_world, dt):
    """Mean squared angular acceleration, (1/N) sum ||omega_dot(t_n)||^2."""
    omega = np.asarray(omega_world, dtype=float)
    if omega.shape[0] < 3:
        raise SeriesTooShort("need at least 3 samples for the acceleration cost")
    omega_dot = so3.finite_difference_velocity(omega, dt)
    return float(np.mean(np.sum(omega_dot**2, axis=1)))


def trajectory_acceleration_cost(traj):
    dt = float(traj.times[1] - traj.times[0])
    return acceleration_cost(traj.omega_world, dt)


def axis_alignment_error(R, R_target, axis):
    """Angle between the two frames' images of a coordinate axis (radians)."""
    idx = AXES.index(axis)
    a = np.asarray(R, dtype=float)[:, idx]
    b = np.asarray(R_target, dtype=float)[:, idx]
    return float(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))


def continuity_stats(rotations):
    """(max step, median step) of consecutive geodesic distances."""
    Rs = np.asarray(rotations, dtype=float)
    if Rs.shape[0] < 2:
        raise SeriesTooShort("need at least 2 rotations")
    steps = consecutive_geodesic_steps(Rs)
    return float(steps.max()), float(np.median(steps))
