import numpy as np
import pytest

from orifuse import so3
from orifuse.errors import NotARotation, SeriesTooShort


def random_rotation(rng):
    v = rng.normal(size=3)
    v = v / np.linalg.norm(v) * rng.uniform(0, np.pi - 1e-3)
    return so3.exp_map(v)


def quat_from_axis_angle(psi):
    # unit quaternion oracle, used only in tests
    angle = np.linalg.norm(psi)
    if angle < 1e-300:
        return np.array([1.0, 0.0, 0.0, 0.0])
    axis = psi / angle
    return np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis])


def test_exp_identity():
    assert np.allclose(so3.exp_map([0.0, 0.0, 0.0]), np.eye(3))


def test_exp_half_turn_x():
    assert np.allclose(so3.exp_map([np.pi, 0, 0]), np.diag([1.0, -1.0, -1.0]), atol=1e-15)


def test_log_identity():
    assert np.array_equal(so3.log_map(np.eye(3)), np.zeros(3))


def test_log_half_turn_x():
    # sign fixed by the half-sphere rule (x > 0)
    assert np.allclose(so3.log_map(np.diag([1.0, -1.0, -1.0])), [np.pi, 0, 0])


def test_roundtrip_via_point_value():
    v = np.array([1.2614, 1.0512, 1.5767])
    assert np.linalg.norm(so3.log_map(so3.exp_map(v)) - v) < 1e-12


def test_roundtrip_small_vector():
    v = np.array([0.3, -0.2, 0.1])
    R = so3.exp_map(v)
    assert np.linalg.norm(so3.log_map(R) - v) < 1e-12
    # rotation angle equals the norm (trace oracle)
    angle = np.arccos((np.trace(R) - 1.0) / 2.0)
    assert abs(angle - np.linalg.norm(v)) < 1e-12


def test_roundtrip_property():
    rng = np.random.default_rng(7)
    for _ in range(3000):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0, np.pi - 1e-6)
        assert np.linalg.norm(so3.log_map(so3.exp_map(v)) - v) < 1e-9


def test_exp_orthogonality_up_to_4pi():
    rng = np.random.default_rng(8)
    for _ in range(500):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0, 4 * np.pi)
        R = so3.exp_map(v)
        assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-12


def test_boundary_half_sphere_rule():
    rng = np.random.default_rng(9)
    for _ in range(500):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        w = so3.log_map(so3.exp_map(np.pi * axis))
        x, y, z = w
        in_excluded = (x < 0) or (x == 0 and y < 0) or (x == 0 and y == 0 and z < 0)
        assert not in_excluded
        assert abs(np.linalg.norm(w) - np.pi) <= 1e-9


def test_boundary_pole_tie():
    # exact pole: z >= 0 wins
    for sign in (1.0, -1.0):
        w = so3.log_map(so3.exp_map([0.0, 0.0, sign * np.pi]))
        assert w[2] >= 0
        assert np.allclose(w, [0, 0, np.pi])


def test_geodesic_distance_zero_and_single_axis():
    rng = np.random.default_rng(10)
    R = random_rotation(rng)
    assert so3.geodesic_distance(R, R) == 0.0
    for theta in (0.3, 1.5, np.pi):
        d = so3.geodesic_distance(np.eye(3), so3.exp_map([theta, 0, 0]))
        assert abs(d - theta) < 1e-12


def test_geodesic_distance_trace_oracle():
    Ri = so3.exp_map([0.5, 0, 0])
    Rj = so3.exp_map([0, 0.5, 0])
    expected = np.arccos((np.trace(Ri.T @ Rj) - 1.0) / 2.0)
    assert abs(so3.geodesic_distance(Ri, Rj) - expected) < 1e-10


def test_geodesic_distance_properties():
    rng = np.random.default_rng(11)
    for _ in range(200):
        Ri, Rj, Q = (random_rotation(rng) for _ in range(3))
        d = so3.geodesic_distance(Ri, Rj)
        assert 0.0 <= d <= np.pi + 1e-12
        assert abs(d - so3.geodesic_distance(Rj, Ri)) < 1e-10
        # left invariance
        assert abs(d - so3.geodesic_distance(Q @ Ri, Q @ Rj)) < 1e-10


def test_project_to_frame():
    rng = np.random.default_rng(12)
    R = random_rotation(rng)
    assert np.allclose(so3.project_to_frame(R, R), np.zeros(3))
    assert np.allclose(so3.project_to_frame(so3.exp_map([0.2, 0, 0]), np.eye(3)), [0.2, 0, 0])
    for _ in range(100):
        R_a = random_rotation(rng)
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0, np.pi - 1e-3)
        assert np.linalg.norm(so3.project_to_frame(R_a @ so3.exp_map(v), R_a) - v) < 1e-9


def test_recover_orientation():
    rng = np.random.default_rng(13)
    R_a = random_rotation(rng)
    assert np.allclose(so3.recover_orientation([0, 0, 0], R_a), R_a)
    R = random_rotation(rng)
    rec = so3.recover_orientation(so3.log_map(R_a.T @ R), R_a)
    assert np.linalg.norm(rec - R) < 1e-10


def test_recover_orientation_wraps_beyond_ball():
    # ||v|| = 1.5 pi maps to the same rotation as the wrapped equivalent;
    # oracle compares unit quaternions up to double cover
    rng = np.random.default_rng(14)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    v = 1.5 * np.pi * axis
    wrapped = v * (1.0 - 2.0 * np.pi / np.linalg.norm(v))
    R1 = so3.recover_orientation(v, np.eye(3))
    R2 = so3.exp_map(wrapped)
    assert np.linalg.norm(R1 - R2) < 1e-12
    q1 = quat_from_axis_angle(v)
    q2 = quat_from_axis_angle(wrapped)
    assert abs(abs(np.dot(q1, q2)) - 1.0) < 1e-12


def test_not_a_rotation_rejected():
    with pytest.raises(NotARotation):
        so3.log_map(np.diag([1.0, 1.0, -1.0]))  # reflection
    with pytest.raises(NotARotation):
        so3.log_map(1.01 * np.eye(3))
    with pytest.raises(NotARotation):
        so3.geodesic_distance(np.eye(3), np.full((3, 3), np.nan))


@pytest.mark.parametrize("k", [0, 3, 6])
def test_log_map_many_names_first_bad_entry(k):
    rng = np.random.default_rng(16)
    Rs = np.stack([random_rotation(rng) for _ in range(7)])
    scaled, reflection, nan = 1.01 * np.eye(3), np.diag([-1.0, 1.0, 1.0]), np.full((3, 3), np.nan)
    for bad in (scaled, reflection, nan):
        stack = Rs.copy()
        stack[k] = bad
        stack[k + 1:] = reflection  # later failures must not be reported first
        with pytest.raises(NotARotation, match=f"entry {k} "):
            so3.log_map_many(stack)
    one_by_one = np.array([so3.log_map(R) for R in Rs])
    assert np.abs(so3.log_map_many(Rs) - one_by_one).max() <= 1e-12


def test_orthonormalize_repairs_drift():
    rng = np.random.default_rng(15)
    R = random_rotation(rng)
    noisy = R + 1e-5 * rng.normal(size=(3, 3))
    assert not so3.is_rotation(noisy)
    fixed = so3.orthonormalize(noisy)
    assert so3.is_rotation(fixed, tol=1e-12)
    assert np.linalg.norm(fixed - R) < 1e-4
    with pytest.raises(NotARotation):
        so3.orthonormalize(np.diag([1.0, 1.0, -1.0]))


def test_finite_difference_velocity_constant_and_linear():
    const = np.tile([0.1, 0.2, 0.3], (50, 1))
    assert np.allclose(so3.finite_difference_velocity(const, 0.01), 0.0)
    t = np.arange(50) * 0.01
    c = np.array([0.5, -1.0, 2.0])
    linear = np.outer(t, c)
    vel = so3.finite_difference_velocity(linear, 0.01)
    assert np.allclose(vel, np.tile(c, (50, 1)), atol=1e-12)


def test_finite_difference_velocity_analytic():
    t = np.arange(0, 2, 1e-3)
    series = np.stack([np.sin(t), np.zeros_like(t), np.zeros_like(t)], axis=1)
    vel = so3.finite_difference_velocity(series, 1e-3)
    assert np.abs(vel[:, 0] - np.cos(t)).max() < 1e-5


def test_finite_difference_velocity_too_short():
    with pytest.raises(SeriesTooShort):
        so3.finite_difference_velocity(np.zeros((1, 3)), 0.1)
