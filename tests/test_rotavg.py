import math

import numpy as np
import pytest

from orifuse import rotavg, so3
from orifuse._kernels import memory_average_many
from orifuse.rotavg import (
    D_TH_DEFAULT,
    E_PSI_DEFAULT,
    HISTORY_CAPACITY,
    FusionState,
    WeightedPair,
)


def rot_x(theta):
    return so3.exp_map([theta, 0.0, 0.0])


def sweep(thetas, state, wi=0.5, wj=0.5):
    outs = []
    turns = []
    for th in thetas:
        R, state = rotavg.weighted_average_memory(WeightedPair(np.eye(3), rot_x(th), wi, wj), state)
        outs.append(R)
        turns.append(state.n_turns)
    return np.stack(outs), turns, state


def test_stateless_midpoint():
    R = rotavg.weighted_average_stateless(WeightedPair(np.eye(3), rot_x(np.pi / 2), 0.5, 0.5))
    assert so3.geodesic_distance(R, rot_x(np.pi / 4)) < 1e-12


def test_stateless_endpoint_weights():
    Ri, Rj = rot_x(0.2), rot_x(1.1)
    assert so3.geodesic_distance(
        rotavg.weighted_average_stateless(WeightedPair(Ri, Rj, 0.0, 1.0)), Rj) < 1e-12
    assert so3.geodesic_distance(
        rotavg.weighted_average_stateless(WeightedPair(Ri, Rj, 1.0, 0.0)), Ri) < 1e-12


def test_stateless_single_axis_closed_form():
    # d = (1/3) * 0.6 from Ri at 0.3: lands at 0.5
    R = rotavg.weighted_average_stateless(
        WeightedPair(so3.exp_map([0, 0, 0.3]), so3.exp_map([0, 0, 0.9]), 2.0, 1.0))
    assert so3.geodesic_distance(R, so3.exp_map([0, 0, 0.5])) < 1e-12


def test_stateless_coincident_pair():
    R = rot_x(0.7)
    assert np.array_equal(rotavg.weighted_average_stateless(WeightedPair(R, R, 0.3, 0.7)), R)


def test_init_state_defaults():
    state = rotavg.init_fusion_state(np.eye(3), rot_x(0.8))
    assert state.n_turns == 0
    assert D_TH_DEFAULT == 0.15
    assert abs(E_PSI_DEFAULT - math.cos(50 * math.pi / 180)) < 1e-15
    assert state.history.shape == (5, 3)


def test_init_state_zero_sentinel():
    state = rotavg.init_fusion_state(rot_x(0.4), rot_x(0.4))
    assert state.n_hist == 0


def test_stationary_pair_stays_put():
    R = rot_x(0.4)
    state = rotavg.init_fusion_state(R, R)
    for _ in range(10):
        out, state = rotavg.weighted_average_memory(WeightedPair(R, R, 0.3, 0.7), state)
        assert np.array_equal(out, R)
    assert state.n_turns == 0


def test_memory_matches_stateless_before_any_flip():
    rng = np.random.default_rng(31)
    Ri = so3.exp_map(rng.normal(size=3) * 0.3)
    state = None
    for step in range(50):
        Rj = Ri @ so3.exp_map([0.2 + 0.01 * step, 0.1, 0.0])
        pair = WeightedPair(Ri, Rj, 0.4, 0.6)
        if state is None:
            state = rotavg.init_fusion_state(Ri, Rj)
        mem, state = rotavg.weighted_average_memory(pair, state)
        direct = rotavg.weighted_average_stateless(pair)
        assert np.abs(mem - direct).max() < 1e-12
    assert state.n_turns == 0


def test_boundary_crossing_continuity_and_turns():
    thetas = np.linspace(0.9 * np.pi, 1.1 * np.pi, 2001)
    state = rotavg.init_fusion_state(np.eye(3), rot_x(thetas[0]))
    outs, turns, state = sweep(thetas, state)
    # output tracks rot_x(theta/2) through the crossing
    for i in range(0, 2001, 200):
        assert so3.geodesic_distance(outs[i], rot_x(thetas[i] / 2)) < 1e-12
    assert turns[0] == 0 and turns[-1] == 1
    steps = [so3.geodesic_distance(outs[i], outs[i + 1]) for i in range(2000)]
    assert max(steps) < 2 * np.median(steps) + 1e-12
    # the stateless path jumps by about pi * Wj at the same crossing
    prev = None
    jump = 0.0
    for th in thetas:
        R = rotavg.weighted_average_stateless(WeightedPair(np.eye(3), rot_x(th), 0.5, 0.5))
        if prev is not None:
            jump = max(jump, so3.geodesic_distance(prev, R))
        prev = R
    assert jump > 1.0


def test_boundary_crossing_reversible():
    thetas = np.linspace(0.9 * np.pi, 1.1 * np.pi, 1001)
    state = rotavg.init_fusion_state(np.eye(3), rot_x(thetas[0]))
    fwd, _, state = sweep(thetas, state)
    back, _, state = sweep(thetas[::-1], state)
    assert state.n_turns == 0
    for i in range(0, 1001, 100):
        assert so3.geodesic_distance(back[i], fwd[1000 - i]) < 1e-9


def test_pole_crossing_continuity():
    thetas = np.concatenate([np.linspace(0.1, -0.1, 501), np.linspace(-0.1, 0.1, 501)])
    state = rotavg.init_fusion_state(np.eye(3), rot_x(0.1))
    outs, turns, state = sweep(thetas, state)
    steps = [so3.geodesic_distance(outs[i], outs[i + 1]) for i in range(len(outs) - 1)]
    assert max(steps) < 5e-4
    assert min(turns) == -1
    assert state.n_turns == 0  # closed sweep restores the counter


def test_closed_multi_crossing_sweep_counter_integrity():
    # cross pi and the pole several times, returning to the start
    up = np.linspace(0.5, 1.2 * np.pi, 800)
    down = np.linspace(1.2 * np.pi, -0.3, 1200)
    back = np.linspace(-0.3, 0.5, 400)
    thetas = np.concatenate([up, down, back])
    state = rotavg.init_fusion_state(np.eye(3), rot_x(thetas[0]))
    outs, turns, state = sweep(thetas, state)
    assert state.n_turns == 0
    steps = [so3.geodesic_distance(outs[i], outs[i + 1]) for i in range(len(outs) - 1)]
    assert max(steps) <= 10 * np.median(steps)


def test_step_api_is_one_memory_average_many_call():
    # criterion 7's closed sweep across the pi boundary and the pole
    thetas = np.concatenate([
        np.linspace(0.5, 1.2 * np.pi, 600),
        np.linspace(1.2 * np.pi, -0.3, 900),
        np.linspace(-0.3, 0.5, 300),
    ])
    outs, turns, _ = sweep(thetas, rotavg.init_fusion_state(np.eye(3), rot_x(thetas[0])))
    Ris = np.tile(np.eye(3), (thetas.size, 1, 1))
    Rjs = np.stack([rot_x(th) for th in thetas])
    w = np.full(thetas.size, 0.5)
    many, many_turns = memory_average_many(
        Ris, Rjs, w, w, D_TH_DEFAULT, E_PSI_DEFAULT, HISTORY_CAPACITY
    )
    assert np.array_equal(np.array(turns), many_turns)
    assert len(set(turns)) > 1
    assert np.abs(outs - many).max() <= 1e-12


def test_continuity_theorem_bound_general_motion():
    # both inputs and weights vary; the output step stays bounded by the
    # input rate even across multiple boundary and pole crossings
    dt = 1e-3
    t = np.arange(0.0, 6.0, dt)
    state = None
    prev = None
    max_step = 0.0
    rate = 1.6
    for k, tk in enumerate(t):
        Ri = so3.exp_map([0.1 * np.sin(0.5 * tk), 0.05 * tk, 0.0])
        Rj = Ri @ so3.exp_map([rate * tk, 0.0, 0.0])
        wj = 0.5 + 0.4 * np.sin(1.3 * tk)
        pair = WeightedPair(Ri, Rj, 1.0 - wj, wj)
        if state is None:
            state = rotavg.init_fusion_state(Ri, Rj)
        out, state = rotavg.weighted_average_memory(pair, state)
        if prev is not None:
            max_step = max(max_step, so3.geodesic_distance(prev, out))
        prev = out
    # input angular rate ~1.7 rad/s, weight rate ~0.52/s over a pi range
    assert max_step < 5.0 * dt * (rate + 1.0)


def test_outlier_direction_uses_history():
    # a zero-distance step in the middle of a sweep is bridged by history
    state = rotavg.init_fusion_state(np.eye(3), rot_x(0.5))
    seq = [0.5, 0.52, 0.54, 0.0, 0.56, 0.58]
    outs = []
    for th in seq:
        out, state = rotavg.weighted_average_memory(
            WeightedPair(np.eye(3), rot_x(th), 0.5, 0.5), state)
        outs.append(out)
    # the zero-distance sample collapses to Ri, later steps recover
    assert so3.geodesic_distance(outs[3], np.eye(3)) < 1e-12
    assert so3.geodesic_distance(outs[-1], rot_x(0.29)) < 1e-12
    assert state.n_turns == 0


def test_history_capacity_bounded():
    state = rotavg.init_fusion_state(np.eye(3), rot_x(0.3))
    for k in range(20):
        _, state = rotavg.weighted_average_memory(
            WeightedPair(np.eye(3), rot_x(0.3 + 0.01 * k), 0.5, 0.5), state)
    assert state.n_hist <= 5
    assert np.allclose(np.linalg.norm(state.history, axis=1), 1.0)


def test_weighted_pair_validation():
    with pytest.raises(ValueError):
        WeightedPair(np.eye(3), np.eye(3), 0.0, 0.0)
    with pytest.raises(ValueError):
        WeightedPair(np.eye(3), np.eye(3), -0.1, 0.5)


def test_state_copy_is_independent():
    state = rotavg.init_fusion_state(np.eye(3), rot_x(0.5))
    clone = state.copy()
    _, state2 = rotavg.weighted_average_memory(
        WeightedPair(np.eye(3), rot_x(0.6), 0.5, 0.5), state)
    assert np.array_equal(clone.history, rotavg.init_fusion_state(np.eye(3), rot_x(0.5)).history)
    assert isinstance(state2, FusionState)
