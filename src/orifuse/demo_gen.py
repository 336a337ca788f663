"""Seeded synthetic demonstration generators.

Profiles produce smooth 10-second orientation trajectories for desk-scale
experiments: a multi-start / common-goal family, a single-axis family, and
random geodesics.  All randomness flows through one seeded generator so a
(profile, count, seed) triple is fully reproducible.
"""

import numpy as np

from ._kernels import rot_exp_many
from .gmm import Demonstration

DURATION = 10.0
SAMPLES = 201

# chart coordinates of the nominal start / goal rotations of the multi-start
# profile; picked so desk-scale via-point studies stay inside the pi-ball
START_CENTER = np.array([1.2614, 1.0512, 1.5767])
GOAL_CENTER = np.array([0.9137, 1.3705, 0.9137])


def _min_jerk(tau):
    return tau**3 * (10.0 - 15.0 * tau + 6.0 * tau**2)


def _bumps(tau, rng, amplitude):
    """Smooth zero-boundary wiggle: sum_j a_j sin(pi tau) sin(pi j tau)."""
    out = np.zeros((tau.shape[0], 3))
    for j in (1, 2):
        coef = rng.normal(scale=amplitude, size=3)
        out += np.outer(np.sin(np.pi * tau) * np.sin(np.pi * j * tau), coef)
    return out


def _demo_from_chart(times, chart):
    return Demonstration(times, rot_exp_many(chart))


def generate_demos(profile, count, seed, duration=DURATION, samples=SAMPLES):
    """Generate `count` demonstrations of the requested profile."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, duration, samples)
    tau = times / duration
    s = _min_jerk(tau)
    demos = []
    if profile == "s61-like":
        for _ in range(count):
            start = START_CENTER + rng.normal(scale=0.12, size=3)
            goal = GOAL_CENTER + rng.normal(scale=0.04, size=3)
            chart = start + np.outer(s, goal - start) + _bumps(tau, rng, 0.12)
            demos.append(_demo_from_chart(times, chart))
    elif profile == "single-axis":
        for _ in range(count):
            a0 = rng.uniform(0.2, 0.6)
            a1 = rng.uniform(1.4, 2.0)
            chart = np.zeros((samples, 3))
            chart[:, 0] = a0 + s * (a1 - a0) + 0.1 * np.sin(np.pi * tau) * np.sin(2 * np.pi * tau)
            demos.append(_demo_from_chart(times, chart))
    elif profile == "random-geodesic":
        from ._kernels import rot_exp, rot_log

        for _ in range(count):
            v0 = rng.normal(size=3)
            v0 = v0 / np.linalg.norm(v0) * rng.uniform(0.3, 1.2)
            v1 = rng.normal(size=3)
            v1 = v1 / np.linalg.norm(v1) * rng.uniform(1.2, 2.4)
            R0 = rot_exp(v0)
            step = rot_log(R0.T @ rot_exp(v1))
            rotations = np.einsum(
                "ij,njk->nik", R0, rot_exp_many(np.outer(s, step))
            )
            demos.append(Demonstration(times, rotations))
    else:
        raise ValueError(f"unknown profile '{profile}'")
    return demos
