"""The array kernels agree with the scalar chart maps row by row."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from orifuse._kernels import rot_exp, rot_exp_many, rot_log, rot_log_many

TOL = 1e-12

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
    st.sampled_from(POLES),
    st.just(np.zeros(3)),
)
stacks = st.lists(vectors, min_size=1, max_size=40).map(np.array)


@settings(max_examples=200, deadline=None)
@given(stacks)
def test_rot_exp_many_matches_rot_exp(psis):
    many = rot_exp_many(psis)
    for i, psi in enumerate(psis):
        assert np.abs(many[i] - rot_exp(psi)).max() <= TOL


@settings(max_examples=200, deadline=None)
@given(stacks)
def test_rot_log_many_matches_rot_log(psis):
    Rs = np.array([rot_exp(psi) for psi in psis])
    many = rot_log_many(Rs)
    for i, R in enumerate(Rs):
        one = rot_log(R)
        if np.trace(R) < -1.0 + 1e-7:
            # pi-shell rows: the half-sphere rule must pick the same sign
            assert np.array_equal(many[i], one)
        else:
            assert np.abs(many[i] - one).max() <= TOL


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


def test_empty_stacks():
    assert rot_exp_many(np.empty((0, 3))).shape == (0, 3, 3)
    assert rot_log_many(np.empty((0, 3, 3))).shape == (0, 3)
