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


def _run(demos, cache):
    return reproduce_with_via_points(demos, VIA.rotation, [VIA], CFG, GRID,
                                     n_components=3, seed=0, gmm_cache=cache).trajectory


def _same_bytes(traj, reference):
    for name in ("times", "rotations", "omega_world"):
        assert getattr(traj, name).tobytes() == getattr(reference, name).tobytes()


def test_a_run_with_a_shared_cache_has_the_uncached_bytes(demos):
    uncached = _run(demos, None)
    cache = {}
    first, second = _run(demos, cache), _run(demos, cache)
    # the cache holds the one mixture; each run builds its own trajectory
    assert len(cache) == 1 and first is not second
    for traj in (first, second):
        _same_bytes(traj, uncached)


def test_a_cache_shared_by_two_demonstration_sets_keeps_them_apart(demos):
    # same chart, components and seed: only the demonstrations tell the mixtures apart
    others = generate_demos("s61-like", 2, seed=1)
    uncached = [_run(d, None) for d in (demos, others)]
    cache = {}
    for d, reference in zip((demos, others), uncached):
        _same_bytes(_run(d, cache), reference)
    assert len(cache) == 2


def test_threads_sharing_the_memo_get_the_uncached_bytes(demos):
    # more threads than cores, switching often, sharing one mixture cache: whichever
    # fits and stores race, every result holds the bytes of an uncached run
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
    assert len(cache) == 1
    for traj in results:
        _same_bytes(traj, uncached)
