"""Property: the array-wide row builder matches a per-via list merge bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orifuse import gmm, kmp, so3
from orifuse.errors import ConfigError

TOL = kmp.VIA_TIME_TOL


def list_merge_rows(ref, vias, R_aux, lambda_a):
    """Reference implementation: each via scans the row list for a time within
    VIA_TIME_TOL and replaces the first hit or is appended; NaN acceleration
    blocks stand for (1/lambda_a) I until the augmentation fills them."""
    times = list(ref.times)
    means = [m for m in ref.means]
    covs = [c for c in ref.covariances]
    acc = [np.full((3, 3), np.nan) for _ in times]
    for vp in vias:
        t, eta, cov = kmp.transform_via_point(vp, R_aux)
        if cov.shape == (9, 9):
            cov6 = cov[:6, :6]
            acc_block = cov[6:, 6:]
        else:
            cov6 = cov
            acc_block = np.full((3, 3), np.nan)
        hits = [i for i, ti in enumerate(times) if abs(ti - t) <= TOL]
        if hits:
            i = hits[0]
            times[i], means[i], covs[i], acc[i] = t, eta, cov6, acc_block
        else:
            times.append(t)
            means.append(eta)
            covs.append(cov6)
            acc.append(acc_block)
    order = np.argsort(np.asarray(times), kind="stable")
    times = np.asarray(times)[order]
    means = np.asarray(means)[order]
    covs = np.asarray(covs)[order]
    acc = np.asarray(acc)[order]
    if lambda_a is None:
        return times, means, covs
    n = times.shape[0]
    means9 = np.zeros((n, 9))
    means9[:, :6] = means
    covs9 = np.zeros((n, 9, 9))
    covs9[:, :6, :6] = covs
    covs9[:, 6:, 6:] = np.eye(3) / lambda_a
    explicit = ~np.isnan(acc).any(axis=(1, 2))
    covs9[explicit, 6:, 6:] = acc[explicit]
    return times, means9, covs9


# (where the via time lies, reference index, offset in (-1, 1), acceleration block)
VIA = st.tuples(
    st.sampled_from(["on", "near", "off", "outside"]),
    st.integers(0, 20),
    st.floats(-0.9, 0.9),
    st.sampled_from([None, "var", "cov9"]),
)


def via_time(times, kind, i, offset):
    i %= times.size
    if kind == "on":
        return times[i]
    if kind == "near":
        return times[i] + offset * TOL
    if kind == "off":
        return 0.5 * (times[i] + times[i + 1]) if i + 1 < times.size else times[-1] + 0.5
    return times[0] - 1.0 + offset if offset < 0 else times[-1] + 1.0 + offset


def make_via(rng, t, acc):
    rotation = so3.exp_map(rng.normal(size=3) * 0.5)
    omega = rng.normal(size=3) * 0.2
    if acc == "cov9":
        return kmp.ViaPointSpec(t, rotation, omega, np.diag(rng.uniform(0.1, 1.0, 9)))
    return kmp.ViaPointSpec(t, rotation, omega, relaxed_axis="y",
                            acceleration_var=0.25 if acc == "var" else None)


# Grid steps stay above 2 VIA_TIME_TOL, as on any reference grid the pipeline builds,
# so a via-point is within tolerance of at most one reference row.
@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.floats(1e-6, 2.0), min_size=1, max_size=10),
    t0=st.floats(-5.0, 5.0),
    specs=st.lists(VIA, max_size=4),
    lambda_a=st.sampled_from([None, 10.0, 1e5]),
    seed=st.integers(0, 2**16),
)
def test_extend_reference_matches_list_merge(steps, t0, specs, lambda_a, seed):
    rng = np.random.default_rng(seed)
    times = t0 + np.concatenate([[0.0], np.cumsum(steps)])
    n = times.size
    ref = gmm.ReferenceTrajectory(times, rng.normal(size=(n, 6)), rng.normal(size=(n, 6, 6)))
    vias = [make_via(rng, via_time(times, kind, i, off), acc) for kind, i, off, acc in specs]
    R_aux = so3.exp_map(rng.normal(size=3) * 0.3)
    via_t = np.sort([vp.t for vp in vias])
    if np.any(np.diff(via_t) <= TOL):
        with pytest.raises(ValueError, match="share one time"):
            kmp.extend_reference(ref, vias, R_aux, lambda_a)
        return
    if lambda_a is None and any(acc is not None for *_, acc in specs):
        with pytest.raises(ConfigError, match="no lambda_a"):
            kmp.extend_reference(ref, vias, R_aux, lambda_a)
        return
    got = kmp.extend_reference(ref, vias, R_aux, lambda_a)
    want = list_merge_rows(ref, vias, R_aux, lambda_a)
    for array, expected in zip((got.times, got.means, got.covariances), want):
        assert array.shape == expected.shape
        assert array.tobytes() == expected.tobytes()
    assert np.all(np.diff(got.times) > 0)
