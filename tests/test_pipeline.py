import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from orifuse import kmp, so3
from orifuse.demo_gen import generate_demos
from orifuse.pipeline import reproduce_with_via_points

CFG = kmp.KernelConfig(l=0.01, lam=1.0)
GRID = np.linspace(0.0, 10.0, 201)
VIA = kmp.ViaPointSpec(4.0, so3.exp_map([0.7028, 1.1713, 0.4685]),
                       np.array([0.0069, 0.2103, 0.2138]), relaxed_axis="y")


@pytest.fixture(scope="module")
def demos():
    return generate_demos("s61-like", 2, seed=0)


def _run(demos, cache, vias=(VIA,)):
    return reproduce_with_via_points(demos, VIA.rotation, list(vias), CFG, GRID,
                                     n_components=3, seed=0, gmm_cache=cache).trajectory


def _regressions(cache):
    return {key: value for key, value in cache.items() if key[0] == "regression"}


def test_a_regression_is_kept_the_second_time_it_is_seen(demos, monkeypatch):
    builds = []
    original = kmp.build_model

    def counting(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(kmp, "build_model", counting)
    uncached = _run(demos, None)
    cache = {}
    first = _run(demos, cache)
    # first sight: a marker, no trajectory
    assert not any(isinstance(v, kmp.OrientationTrajectory) for v in _regressions(cache).values())
    second = _run(demos, cache)
    third = _run(demos, cache)
    assert len(builds) == 3
    assert third is second and first is not second
    for traj in (first, second):
        for name in ("times", "rotations", "omega_world"):
            assert getattr(traj, name).tobytes() == getattr(uncached, name).tobytes()
    # a different via set is a different key, seen once and not kept
    other = kmp.ViaPointSpec(4.0, VIA.rotation, VIA.omega)
    _run(demos, cache, vias=[other])
    kept = [v for v in _regressions(cache).values() if isinstance(v, kmp.OrientationTrajectory)]
    assert len(builds) == 4 and kept == [second]


def test_writing_into_a_memo_hit_raises(demos):
    cache = {}
    first = _run(demos, cache)
    first.rotations[0, 0, 0] = first.rotations[0, 0, 0]  # not kept, so still writable
    _run(demos, cache)
    hit = _run(demos, cache)
    with pytest.raises(ValueError):
        hit.times[0] = 1.0
    with pytest.raises(ValueError):
        hit.rotations[0] = np.eye(3)
    with pytest.raises(ValueError):
        hit.omega_world[:] = 0.0


def test_threads_sharing_the_memo_get_the_uncached_bytes(demos):
    # more threads than cores, switching often: whichever builds and stores race,
    # every result holds the bytes of an uncached run
    uncached = _run(demos, None)
    cache = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(_run, demos, cache) for _ in range(12)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for traj in results:
        for name in ("times", "rotations", "omega_world"):
            assert getattr(traj, name).tobytes() == getattr(uncached, name).tobytes()
