"""Every caller of the rotation check gives the same verdict on the same entry."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orifuse import io, so3
from orifuse.errors import NotARotation

# each kind replaces one entry of a stack of rotations; only "noise" stays
# within the orthogonality tolerance
KINDS = ("nan", "inf", "reflection", "scaled", "noise")


def perturb(R, kind, rng):
    if kind == "nan":
        out = R.copy()
        out[rng.integers(3), rng.integers(3)] = np.nan
        return out
    if kind == "inf":
        out = R.copy()
        out[rng.integers(3), rng.integers(3)] = -np.inf
        return out
    if kind == "reflection":
        return R @ np.diag([1.0, 1.0, -1.0])
    if kind == "scaled":
        return R * (1.0 + 1e-6)
    return R + 1e-12 * rng.uniform(-1.0, 1.0, size=(3, 3))


def write_demo(path, rotations):
    lines = ["# orifuse-demo v1 dt=0.1 n=%d frame=world rep=matrix" % len(rotations)]
    for i, R in enumerate(rotations):
        lines.append(",".join(format(v, ".17g") for v in [0.1 * i] + list(R.ravel())))
    Path(path).write_text("\n".join(lines) + "\n")


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 7), st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
def test_every_caller_gives_one_verdict(n, k, kind, seed):
    k %= n
    rng = np.random.default_rng(seed)
    rotations = np.stack([so3.exp_map(rng.uniform(-1.8, 1.8, size=3)) for _ in range(n)])
    rotations[k] = perturb(rotations[k], kind, rng)
    bad = kind != "noise"
    flagged = (np.arange(n) == k) & bad

    assert [so3.is_rotation(R) for R in rotations] == list(~flagged)
    assert np.array_equal(so3.non_rotations(rotations), flagged)
    if bad:
        with pytest.raises(NotARotation):
            so3.check_rotation(rotations[k])
        with pytest.raises(NotARotation, match=f"entry {k} "):
            so3.log_map_many(rotations)
    else:
        so3.check_rotation(rotations[k])
        so3.log_map_many(rotations)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "demo.csv"
        write_demo(path, rotations)
        if bad:
            with pytest.raises(NotARotation, match=re.escape(f"row {k} ")):
                io.load_demo(path)
        else:
            assert np.array_equal(io.load_demo(path).rotations, rotations)
        # the repair touches exactly the flagged rows; non-finite entries and
        # reflections cannot be repaired and are named instead
        if kind in ("nan", "inf", "reflection"):
            with pytest.raises(NotARotation, match=re.escape(f"row {k} ")):
                io.load_demo(path, reorthonormalize=True)
            return
        repaired = io.load_demo(path, reorthonormalize=True).rotations
    assert np.array_equal(repaired[~flagged], rotations[~flagged])
    assert not so3.non_rotations(repaired).any()


@pytest.mark.parametrize("k", [0, 2, 4])
def test_zero_quaternion_names_its_row(tmp_path, k):
    quats = np.tile([np.cos(0.4), 0.0, 0.0, np.sin(0.4)], (5, 1))
    quats[k] = 0.0
    lines = ["# orifuse-demo v1 dt=0.1 n=5 frame=world rep=quat"]
    lines += [",".join(format(v, ".17g") for v in [0.1 * i] + list(q))
              for i, q in enumerate(quats)]
    path = tmp_path / "quat.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NotARotation, match=re.escape(f"row {k}: zero quaternion")):
        io.load_demo(path)
