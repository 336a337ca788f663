import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orifuse import rotavg, so3
from orifuse._kernels import (
    D_TH_DEFAULT,
    E_PSI_DEFAULT,
    HISTORY_CAPACITY,
    consecutive_geodesic_steps,
    memory_average_many,
    memory_average_step,
    rot_exp,
    rot_exp_many,
    rot_log_many,
    stateless_average,
)
from orifuse.rotavg import FusionState, WeightedPair


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
    R = stateless_average(np.eye(3), rot_x(np.pi / 2), 0.5, 0.5)
    assert so3.geodesic_distance(R, rot_x(np.pi / 4)) < 1e-12


def test_stateless_endpoint_weights():
    Ri, Rj = rot_x(0.2), rot_x(1.1)
    assert so3.geodesic_distance(stateless_average(Ri, Rj, 0.0, 1.0), Rj) < 1e-12
    assert so3.geodesic_distance(stateless_average(Ri, Rj, 1.0, 0.0), Ri) < 1e-12


def test_stateless_single_axis_closed_form():
    # d = (1/3) * 0.6 from Ri at 0.3: lands at 0.5
    R = stateless_average(so3.exp_map([0, 0, 0.3]), so3.exp_map([0, 0, 0.9]), 2.0, 1.0)
    assert so3.geodesic_distance(R, so3.exp_map([0, 0, 0.5])) < 1e-12


def test_stateless_coincident_pair():
    R = rot_x(0.7)
    assert np.array_equal(stateless_average(R, R, 0.3, 0.7), R)


def test_init_state_defaults():
    state = rotavg.init_fusion_state(np.eye(3), rot_x(0.8))
    assert state.n_turns == 0
    assert D_TH_DEFAULT == 0.15
    assert abs(E_PSI_DEFAULT - math.cos(50 * math.pi / 180)) < 1e-15
    assert HISTORY_CAPACITY == 5
    assert state.history == ()


def test_init_state_zero_sentinel():
    state = rotavg.init_fusion_state(rot_x(0.4), rot_x(0.4))
    assert state == FusionState(0, ())


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
        direct = stateless_average(Ri, Rj, 0.4, 0.6)
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
        R = stateless_average(np.eye(3), rot_x(th), 0.5, 0.5)
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
    many, many_turns, _ = memory_average_many(Ris, Rjs, w, w)
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
    assert len(state.history) == HISTORY_CAPACITY
    assert np.allclose(np.linalg.norm(state.history, axis=1), 1.0)


def test_weighted_pair_validation():
    with pytest.raises(ValueError):
        WeightedPair(np.eye(3), np.eye(3), 0.0, 0.0)
    with pytest.raises(ValueError):
        WeightedPair(np.eye(3), np.eye(3), -0.1, 0.5)


def test_a_step_leaves_its_input_state_unchanged():
    state = rotavg.init_fusion_state(np.eye(3), rot_x(0.5))
    _, state2 = rotavg.weighted_average_memory(
        WeightedPair(np.eye(3), rot_x(0.6), 0.5, 0.5), state)
    assert state == FusionState(0, ())
    assert isinstance(state2, FusionState) and len(state2.history) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        state2.n_turns = 1


# A plain per-row reference of the memory average's dispatch in floats: the
# history mean, the flip test, the turn step and the scale formula, all one
# row at a time, so the kernel's array-wide scales must reproduce its bits.
# The relative logs come from the kernels' own chart map, which
# tests/test_kernels.py checks on its own.

def reference_history_mean(hist):
    """Mean of the non-zero past directions, re-normalized (see reference_run)."""
    m0 = m1 = m2 = 0.0
    count = 0
    for h0, h1, h2 in hist:
        if h0 * h0 + h1 * h1 + h2 * h2 > 0.25:
            m0 += h0
            m1 += h1
            m2 += h2
            count += 1
    if count == 0:
        return (0.0, 0.0, 0.0)
    n = math.sqrt(m0 * m0 + m1 * m1 + m2 * m2)
    if n < 1e-12:
        for h in reversed(hist):
            if h[0] * h[0] + h[1] * h[1] + h[2] * h[2] > 0.25:
                return h
    return (m0 / n, m1 / n, m2 / n)


def reference_run(Ris, Rjs, Wis, Wjs, n_turns=0, hist=(), cap=HISTORY_CAPACITY,
                  d_th=D_TH_DEFAULT, e_psi=E_PSI_DEFAULT):
    """The memory average one row at a time; returns (Rs, turns, hist)."""
    hist = [tuple(h) for h in hist]
    logs = rot_log_many(np.matmul(np.transpose(Ris, (0, 2, 1)), Rjs))
    out, turns = [], []
    for Ri, psi, Wi, Wj in zip(Ris, logs.tolist(), Wis, Wjs):
        x, y, z = psi
        d_ij = math.sqrt(x * x + y * y + z * z)
        psi_c = (x / d_ij, y / d_ij, z / d_ij) if d_ij >= 1e-12 else (0.0, 0.0, 0.0)
        psi_p = reference_history_mean(hist) if hist else psi_c
        wsum = Wi + Wj
        R = Ri
        if wsum > 0.0:
            direction = psi_c
            dot = psi_p[0] * psi_c[0] + psi_p[1] * psi_c[1] + psi_p[2] * psi_c[2]
            if dot > e_psi:
                pass
            elif -dot > e_psi:
                n_turns += 1 if (d_ij > d_th) == (n_turns % 2 == 0) else -1
                hist.clear()
            else:
                direction = psi_p
            if n_turns % 2 == 0:
                scale = Wj * (n_turns * math.pi + d_ij) / wsum
            else:
                scale = -(Wj * ((n_turns + 1) * math.pi - d_ij) / wsum)
            R = Ri @ rot_exp([scale * direction[0], scale * direction[1], scale * direction[2]])
        hist.append(psi_c)
        if len(hist) > cap:
            del hist[0]
        out.append(R)
        turns.append(n_turns)
    return np.array(out), np.array(turns), hist


unit_axes = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
).filter(lambda v: 0.1 < np.linalg.norm(v)).map(lambda v: np.asarray(v) / np.linalg.norm(v))
# what a row of a run does: move along the sweep axis, coincide, step off
# perpendicular to it, sit exactly on the pi-shell, or carry two zero weights
ROW_KINDS = ("sweep", "sweep", "sweep", "coincident", "outlier", "pi", "unweighted")


@st.composite
def pair_runs(draw):
    """Pairs whose relative angle sweeps across the pi boundary or the pole."""
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=40))
    n = len(kinds)
    axis = draw(unit_axes)
    perp = np.cross(axis, draw(unit_axes))
    perp = perp / np.linalg.norm(perp) if np.linalg.norm(perp) > 1e-3 else np.zeros(3)
    start = draw(st.sampled_from([np.pi - 0.4, np.pi, -0.4, 0.0, 0.4, 3 * np.pi - 0.4]))
    step = draw(st.sampled_from([0.02, 0.1, 0.16, 0.3])) * draw(st.sampled_from([1.0, -1.0]))
    drift = draw(unit_axes) * draw(st.floats(0.0, 0.1))
    base = draw(unit_axes) * draw(st.floats(0.0, np.pi))
    Ris = rot_exp_many(base + np.arange(n)[:, None] * drift)
    angles = start + step * np.arange(n)
    rel = angles[:, None] * axis
    w = np.array([[draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))] for _ in range(n)])
    for i, kind in enumerate(kinds):
        if kind == "outlier":
            rel[i] = angles[i] * perp
        elif kind == "pi":
            rel[i] = np.pi * axis
        elif kind == "unweighted":
            w[i] = 0.0
    Rjs = np.matmul(Ris, rot_exp_many(rel))
    coincident = np.array([k == "coincident" for k in kinds])
    Rjs[coincident] = Ris[coincident]
    return Ris, Rjs, w[:, 0].copy(), w[:, 1].copy()


@settings(max_examples=300, deadline=None)
@given(pair_runs())
def test_memory_average_many_matches_the_per_row_reference(run):
    Ris, Rjs, Wis, Wjs = run
    Rs, turns, history = memory_average_many(Ris, Rjs, Wis, Wjs)
    ref_Rs, ref_turns, ref_history = reference_run(Ris, Rjs, Wis.tolist(), Wjs.tolist())
    assert np.array_equal(turns, ref_turns)
    assert np.array_equal(Rs, ref_Rs)
    assert history == tuple(ref_history)


# hand-made histories: cancelling pairs, zero sentinels, a full aligned one
U = (0.6, 0.0, 0.8)
V = (-0.6, -0.0, -0.8)
ZERO = (0.0, 0.0, 0.0)
HISTORIES = [[U, V], [(0.0, 0.6, 0.8), U, V], [ZERO] * 3, [ZERO, U, ZERO, V], [U] * 5, [ZERO], []]


@settings(max_examples=300, deadline=None)
@given(pair_runs(), st.sampled_from(HISTORIES), st.integers(-3, 3),
       st.sampled_from([(D_TH_DEFAULT, E_PSI_DEFAULT), (0.5, 0.9), (0.05, 0.1)]))
def test_memory_average_step_from_a_given_history_matches_the_reference(run, past, n_turns,
                                                                        thresholds):
    # step after step from the given state, the run continues the reference's
    Ris, Rjs, Wis, Wjs = run
    d_th, e_psi = thresholds
    ref_Rs, ref_turns, ref_hist = reference_run(Ris, Rjs, Wis.tolist(), Wjs.tolist(), n_turns,
                                                past, HISTORY_CAPACITY, d_th, e_psi)
    hist = np.zeros((HISTORY_CAPACITY, 3))
    hist[:len(past)] = np.reshape(past, (-1, 3))
    turns, n_hist = n_turns, len(past)
    for i in range(len(Ris)):
        R, turns, n_hist = memory_average_step(Ris[i], Rjs[i], Wis[i], Wjs[i], turns, hist,
                                               n_hist, d_th, e_psi)
        assert np.array_equal(R, ref_Rs[i])
        assert turns == ref_turns[i]
    assert np.array_equal(hist[:n_hist], np.reshape(ref_hist, (-1, 3)))
    if (d_th, e_psi) != (D_TH_DEFAULT, E_PSI_DEFAULT) or np.any(Wis + Wjs <= 0.0):
        return  # weighted_average_memory takes neither
    state = FusionState(n_turns, tuple(past))
    for i in range(len(Ris)):
        R, state = rotavg.weighted_average_memory(WeightedPair(Ris[i], Rjs[i], Wis[i], Wjs[i]),
                                                  state)
        assert np.array_equal(R, ref_Rs[i])
        assert state.n_turns == ref_turns[i]
    assert state.history == tuple(ref_hist)


@st.composite
def smooth_pair_runs(draw):
    """Smooth Ri, Rj and positive weights whose relative rotation crosses the pole and the pi-shell.

    Ri^T Rj = exp(s u): s swings through at least one full sine cycle from below 0 to above
    pi, and the unit axis u drifts by at most 0.3 rad.  The row count keeps every relative
    step below 0.12 rad.
    """
    lo, hi = draw(st.floats(-1.0, -0.2)), draw(st.floats(np.pi + 0.2, 2.5 * np.pi))
    cycles, phase = draw(st.floats(1.0, 2.0)), draw(st.floats(0.0, 2 * np.pi))
    drift = draw(st.floats(0.0, 0.3))
    n = int(np.ceil(((hi - lo) * np.pi * cycles + hi * drift * np.pi) / 0.12)) + 1
    tau = np.linspace(0.0, 1.0, n)
    s = (lo + hi) / 2 + (hi - lo) / 2 * np.sin(2 * np.pi * cycles * tau + phase)
    axes = draw(unit_axes) + drift * np.sin(np.pi * tau)[:, None] * draw(unit_axes)
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    Ris = rot_exp_many(draw(unit_axes) * draw(st.floats(0.0, np.pi))
                       + tau[:, None] * draw(unit_axes) * draw(st.floats(0.0, 2.0))
                       + (tau**2)[:, None] * draw(unit_axes) * draw(st.floats(0.0, 2.0)))
    Rjs = np.matmul(Ris, rot_exp_many(s[:, None] * axes))
    Wis = draw(st.floats(0.1, 1.0)) + 0.5 * np.sin(
        2 * np.pi * draw(st.floats(0.2, 2.0)) * tau + draw(st.floats(0.0, 2 * np.pi)))**2
    Wjs = draw(st.floats(0.1, 1.0)) + draw(st.floats(0.0, 1.0)) * np.exp(
        -((tau - draw(st.floats(0.0, 1.0))) / draw(st.floats(0.05, 0.5)))**2)
    return Ris, Rjs, Wis, Wjs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(smooth_pair_runs())
def test_memory_average_steps_are_bounded_by_the_input_steps(run):
    # within the sampling bound (relative steps below 0.15 rad) the output moves by at
    # most twice the steps of Ri and Rj plus the weight change times the lifted angle
    # (|N| + 1) pi it scales, through every turn at the pi-shell and the pole
    Ris, Rjs, Wis, Wjs = run
    assert consecutive_geodesic_steps(np.matmul(Ris.transpose(0, 2, 1), Rjs)).max() < 0.15
    Rs, turns, _ = memory_average_many(Ris, Rjs, Wis, Wjs)
    assert len(set(turns.tolist())) > 1
    w = Wjs / (Wis + Wjs)
    bound = (consecutive_geodesic_steps(Ris) + consecutive_geodesic_steps(Rjs)
             + np.abs(np.diff(w)) * (np.abs(turns[1:]) + 1) * np.pi)
    assert np.all(consecutive_geodesic_steps(Rs) <= 2.0 * bound)
