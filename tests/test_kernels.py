"""The array kernels agree with a scalar reference of the chart maps row by row.

The references below compute each map one row at a time in plain floats, so
the array kernels, the program's only implementation, are compared with an
independent one: near-pi rows bit for bit, all other rows within TOL.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from orifuse import so3
from orifuse._kernels import (
    consecutive_geodesic_steps,
    rot_exp,
    rot_exp_many,
    rot_log,
    rot_log_many,
)

TOL = 1e-12


def reference_exp(psi):
    """Rodrigues map in plain floats, with the small-angle series below 1e-8."""
    x, y, z = psi[0], psi[1], psi[2]
    t2 = x * x + y * y + z * z
    t = math.sqrt(t2)
    if t < 1e-8:
        a = 1.0 - t2 / 6.0
        b = 0.5 - t2 / 24.0
    else:
        a = math.sin(t) / t
        b = (1.0 - math.cos(t)) / t2
    R = np.empty((3, 3))
    R[0, 0] = 1.0 + b * (x * x - t2)
    R[0, 1] = -a * z + b * x * y
    R[0, 2] = a * y + b * x * z
    R[1, 0] = a * z + b * x * y
    R[1, 1] = 1.0 + b * (y * y - t2)
    R[1, 2] = -a * x + b * y * z
    R[2, 0] = -a * y + b * x * z
    R[2, 1] = a * x + b * y * z
    R[2, 2] = 1.0 + b * (z * z - t2)
    return R


def reference_log(R):
    """Chart log in plain floats, with the half-sphere rule on the pi-shell."""
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    c = min(max((tr - 1.0) / 2.0, -1.0), 1.0)
    sx = 0.5 * (R[2, 1] - R[1, 2])
    sy = 0.5 * (R[0, 2] - R[2, 0])
    sz = 0.5 * (R[1, 0] - R[0, 1])
    sn = math.sqrt(sx * sx + sy * sy + sz * sz)
    theta = math.atan2(sn, c)
    if theta < 1e-8:
        return np.array([sx, sy, sz])
    if tr < -1.0 + 1e-7:
        one_c = 1.0 - c
        d0 = (R[0, 0] - c) / one_c
        d1 = (R[1, 1] - c) / one_c
        d2 = (R[2, 2] - c) / one_c
        if d0 >= d1 and d0 >= d2:
            a0 = math.sqrt(d0 if d0 > 0.0 else 0.0)
            a1 = (R[0, 1] + R[1, 0]) / (2.0 * one_c * a0)
            a2 = (R[0, 2] + R[2, 0]) / (2.0 * one_c * a0)
        elif d1 >= d0 and d1 >= d2:
            a1 = math.sqrt(d1 if d1 > 0.0 else 0.0)
            a0 = (R[0, 1] + R[1, 0]) / (2.0 * one_c * a1)
            a2 = (R[1, 2] + R[2, 1]) / (2.0 * one_c * a1)
        else:
            a2 = math.sqrt(d2 if d2 > 0.0 else 0.0)
            a0 = (R[0, 2] + R[2, 0]) / (2.0 * one_c * a2)
            a1 = (R[1, 2] + R[2, 1]) / (2.0 * one_c * a2)
        n = math.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
        a0 /= n
        a1 /= n
        a2 /= n
        dot = sx * a0 + sy * a1 + sz * a2
        lower = a0 < 0.0 or (a0 == 0.0 and a1 < 0.0) or (a0 == 0.0 and a1 == 0.0 and a2 < 0.0)
        if dot < -1e-12 or (dot <= 1e-12 and lower):
            a0, a1, a2 = -a0, -a1, -a2
        return np.array([theta * a0, theta * a1, theta * a2])
    s = theta / sn
    return np.array([s * sx, s * sy, s * sz])


unit_axes = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
).filter(lambda v: 0.1 < np.linalg.norm(v)).map(lambda v: np.asarray(v) / np.linalg.norm(v))


def _scaled(angles):
    return st.tuples(unit_axes, angles).map(lambda p: p[0] * p[1])


# chart vectors from every branch of the maps: generic angles, the
# small-angle series, the pi-shell and its neighborhood, exact poles
POLES = [np.pi * e for e in np.vstack([np.eye(3), -np.eye(3)])]
vectors = st.one_of(
    _scaled(st.floats(0.0, np.pi)),
    _scaled(st.floats(0.0, 1e-8)),
    _scaled(st.just(np.pi)),
    _scaled(st.floats(np.pi - 1e-6, np.pi)),
    _scaled(st.floats(np.pi - 1e-3, np.pi)),  # both sides of the near-pi switch
    st.sampled_from(POLES),
    st.just(np.zeros(3)),
)
stacks = st.lists(vectors, min_size=1, max_size=40).map(np.array)


@settings(max_examples=200, deadline=None)
@given(stacks)
def test_rot_exp_many_matches_rot_exp(psis):
    many = rot_exp_many(psis)
    for i, psi in enumerate(psis):
        assert np.abs(many[i] - reference_exp(psi)).max() <= TOL
        assert np.array_equal(rot_exp(psi), many[i])


@settings(max_examples=200, deadline=None)
@given(stacks)
def test_rot_log_many_matches_rot_log(psis):
    # both signs of every vector: on the pi-shell they are one rotation
    Rs = rot_exp_many(np.vstack([psis, -psis]))
    many = rot_log_many(Rs)
    for i, R in enumerate(Rs):
        one = reference_log(R)
        if np.trace(R) < -1.0 + 1e-7:
            # near-pi rows: the symmetric-part axis and the half-sphere rule
            # must reproduce the reference exactly
            assert np.array_equal(many[i], one)
        else:
            assert np.abs(many[i] - one).max() <= TOL
        assert np.array_equal(rot_log(R), many[i])


@settings(max_examples=200, deadline=None)
@given(vectors, vectors)
def test_geodesic_distance_is_a_one_row_kernel_call(psi_i, psi_j):
    Ri, Rj = rot_exp_many([psi_i, psi_j])
    d = so3.geodesic_distance(Ri, Rj)
    assert abs(d - so3.geodesic_distance(Rj, Ri)) <= TOL
    assert d == consecutive_geodesic_steps(np.stack([Ri, Rj]))[0]
    assert 0.0 <= d <= np.pi
    assert so3.geodesic_distance(Ri, Ri) == 0.0


def test_rot_log_many_pi_shell_and_poles_on_half_sphere():
    rng = np.random.default_rng(0)
    axes = rng.normal(size=(500, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    psis = np.vstack([np.pi * axes, -np.pi * axes, POLES])
    logs = rot_log_many(rot_exp_many(psis))
    x, y, z = logs.T
    assert not ((x < 0) | ((x == 0) & (y < 0)) | ((x == 0) & (y == 0) & (z < 0))).any()
    assert np.abs(np.linalg.norm(logs, axis=1) - np.pi).max() <= 1e-9
    # both signs of every pi rotation land on the same chart point
    assert np.array_equal(logs[:500], logs[500:1000])
    poles = np.array([[np.pi, 0, 0], [0, np.pi, 0], [0, 0, np.pi]] * 2)
    assert np.abs(logs[-6:] - poles).max() <= 1e-15
    # their norms round up to 2 ulps above pi; the distance stays in [0, pi]
    distances = [so3.geodesic_distance(np.eye(3), R) for R in rot_exp_many(psis)]
    assert min(distances) >= 3.0 and max(distances) <= np.pi


def test_empty_stacks():
    assert rot_exp_many(np.empty((0, 3))).shape == (0, 3, 3)
    assert rot_log_many(np.empty((0, 3, 3))).shape == (0, 3)
