"""Self-tests of the span recorder, the wrappers and the metric lists.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import dataclasses
import json
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def make_span(sid, start, end, parent=None, thread=1):
    return spans.Span(sid, f"s{sid}", start, parent, thread, None, end)


def fake_module():
    mod = types.ModuleType("fake")

    def inner():
        return 1

    def outer():
        return mod.inner() + 1

    mod.inner, mod.outer = inner, outer
    return mod


def test_parent_links_follow_nesting():
    mod = fake_module()
    rec = spans.Recorder(clock=FakeClock())
    rec.request = 7
    patcher = spans.Patcher(rec, [mod])
    patcher.wrap("outer", mod, "outer")
    patcher.wrap("inner", mod, "inner", counter=lambda a, k, r: {"result": r})
    with rec.span("root"):
        assert mod.outer() == 2
    patcher.restore()
    by_name = {sp.name: sp for sp in rec.take()}
    assert by_name["root"].parent is None
    assert by_name["outer"].parent == by_name["root"].id
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].counts == {"result": 1}
    assert {sp.request for sp in by_name.values()} == {7}


def test_self_time_is_duration_minus_children():
    tree = [make_span(0, 0, 10), make_span(1, 1, 4, 0), make_span(2, 2, 3, 1),
            make_span(3, 5, 6, 0)]
    assert spans.self_times(tree) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_concurrent_threads_share_instants():
    both = [make_span(0, 0, 4, thread=1), make_span(1, 2, 6, thread=2)]
    assert spans.self_times(both) == {0: 3.0, 1: 3.0}
    # a parent waits while its child runs on another thread
    handoff = [make_span(0, 0, 10, thread=1), make_span(1, 2, 8, parent=0, thread=2)]
    own = spans.self_times(handoff)
    assert own == {0: 4.0, 1: 6.0}
    assert sum(own.values()) == 10.0


def test_summarize_combines_counts():
    tree = [make_span(0, 0, 10), make_span(1, 1, 4, 0), make_span(2, 5, 6, 0)]
    tree[1].name = tree[2].name = "child"
    tree[1].counts, tree[2].counts = {"n": 3, "dim": 5}, {"n": 4, "dim": 2}
    table = spans.summarize(tree, {"dim": max})
    assert table["child"]["calls"] == 2
    assert table["child"]["self_s"] == 4.0
    assert table["child"]["counts"] == {"n": 7, "dim": 5}


def test_thread_local_stacks_with_two_workers():
    mod = fake_module()
    rec = spans.Recorder()
    patcher = spans.Patcher(rec, [mod])
    patcher.wrap("outer", mod, "outer")
    patcher.wrap("inner", mod, "inner")
    barrier = threading.Barrier(2, timeout=10)

    def task(_):
        barrier.wait()  # both workers are inside spans at the same time
        return mod.outer()

    executor = spans.traced_executor(rec, ThreadPoolExecutor)
    try:
        with rec.span("root") as root:
            with executor(max_workers=2) as pool:
                assert list(pool.map(task, range(4))) == [2] * 4
    finally:
        patcher.restore()
    recorded = {sp.id: sp for sp in rec.take()}
    outers = [sp for sp in recorded.values() if sp.name == "outer"]
    inners = [sp for sp in recorded.values() if sp.name == "inner"]
    assert len(outers) == len(inners) == 4
    assert len({sp.thread for sp in outers}) == 2
    assert all(sp.parent == root.id for sp in outers)
    for sp in inners:
        parent = recorded[sp.parent]
        assert parent.name == "outer" and parent.thread == sp.thread
    own = spans.self_times(list(recorded.values()))
    assert sum(own.values()) == pytest.approx(root.end - root.start, rel=1e-9)


def attribute_snapshot():
    snap = {(m.__name__, a): v for m in layers.orifuse_modules() for a, v in vars(m).items()}
    kmp = sys.modules["orifuse.kmp"]
    snap["KmpModel.predict_many"] = vars(kmp.KmpModel)["predict_many"]
    return snap


def small_lambda_sweep(scene, names):
    doc = workloads.lambda_sweep_config(scene, names)
    doc["grid"] = 201
    doc["sweep"]["values"] = [10.0, 1e3, 1e5]
    return doc


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("perfbench")
    workload = dataclasses.replace(workloads.WORKLOADS["lambda-sweep"], config=small_lambda_sweep)
    _, cli, config = run.set_up(workload, 3, work / "inputs")
    return workload, cli, config, work


def test_traced_sweep_with_two_jobs_links_every_span(small_run):
    workload, cli, config, work = small_run
    rec = spans.Recorder()
    patcher = layers.install(rec)
    try:
        _, _, error = run.protocol_call(cli, workload, config, work / "links", rec)
    finally:
        patcher.restore()
    assert error is None
    recorded = {sp.id: sp for sp in rec.take()}
    roots = [sp for sp in recorded.values() if sp.parent is None]
    assert [sp.name for sp in roots] == [layers.ROOT_SPAN]
    assert len({sp.thread for sp in recorded.values()}) >= 2
    for sp in recorded.values():
        while sp.parent is not None:
            parent = recorded[sp.parent]
            assert parent.start <= sp.start and sp.end <= parent.end
            sp = parent
        assert sp is roots[0]


def test_wrappers_never_leak_into_untraced_calls(small_run):
    workload, cli, config, work = small_run
    before = attribute_snapshot()
    call, table = run.traced_call(cli, workload, config, work / "traced", 1)
    assert call.error is None
    assert table["pipeline.reproduce"]["calls"] == 4  # warm-up trial plus 3 rows
    assert attribute_snapshot() == before
    _, _, error = run.protocol_call(cli, workload, config, work / "plain", None)
    assert error is None
    assert attribute_snapshot() == before
    assert ((work / "traced" / "table.csv").read_bytes()
            == (work / "plain" / "table.csv").read_bytes())
    assert 1.0 - run.COVERAGE_TOL <= call.layer["trace.coverage"] <= 1.0
    assert call.layer["cli.sweep.useful_trial_ratio"] == 3 / 4


def test_metric_lists_match_benchmark_json(small_run):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(layers.per_layer_spec())
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    workload, cli, config, work = small_run
    call, _ = run.traced_call(cli, workload, config, work / "names", 1)
    measured = set(call.layer) | {"trace.wall_s", "trace.overhead_s", "proc.cpu_s",
                                  "proc.cpu_util"}
    assert measured == {name for name, _, _ in layers.per_layer_spec()}


def test_seeds_rotate_the_scene_without_changing_chart_coordinates():
    q = workloads.world_rotation(5)
    assert q @ q.T == pytest.approx(workloads.world_rotation(0), abs=1e-15)
    plain, rotated = workloads.make_scene(0), workloads.make_scene(5)
    assert not (rotated.rotation == plain.rotation).all()
    for a, b in ((plain.demos[0].rotations[0], plain.demos[3].rotations[100]),
                 (plain.exp_map(workloads.PSI_START), plain.exp_map(workloads.PSI_BOUNDARY))):
        ra, rb = q @ a, q @ b
        assert ra.T @ rb == pytest.approx(a.T @ b, abs=1e-12)
    assert rotated.demos[3].rotations[100] == pytest.approx(q @ plain.demos[3].rotations[100],
                                                            abs=1e-15)
