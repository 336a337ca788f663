#!/usr/bin/env python3
"""End-to-end benchmark of the orifuse CLI protocols, with a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload target-sweep --seed 0 --seconds 40 --trace 0

The program is imported from the checkout's ``src/`` and driven in process
through ``orifuse.cli.main(argv)``.  Workloads (see workloads.py):

    target-sweep  orifuse sweep over 12 rotated IOVP targets, grid 2001, --jobs 1
    lambda-sweep  orifuse sweep over 8 lambda_a values, grid 2001, --jobs 2

A run sets the inputs up SETUP_REPS times (fresh orifuse import, demo
generation, demo and config files), half of them before and half after it
makes protocol calls for --seconds seconds, at least MIN_CALLS of them: one
process, at most two trial threads and, unless the environment says
otherwise, one BLAS thread.  Splitting the set-ups samples the host's load at
two moments, which steadies their median on a shared host.  Every call must
exit 0 and write files byte-identical to the first call's, and the first
call's files must pass the workload's gates.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced calls; the traced ones run with span wrappers installed (layers.py)
and give the per-layer metrics, and the difference between the two kinds of
call is the tracing overhead.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import filecmp
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread per trial thread keeps a run within two busy threads.  On a
# 2-CPU host with OpenBLAS's default of one thread per CPU, a single competing
# process made EM fits 3x slower; with one thread they kept their normal
# speed.  OpenBLAS reads these variables when it loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 40
MIN_CALLS = 2
COVERAGE_TOL = 0.10
UNREADABLE_ERR = np.pi  # reported as the via error when no output could be read
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("max_via_err_rad", "rad"))


@dataclass
class Call:
    index: int
    traced: bool
    wall_s: float
    cpu_s: float
    error: str | None = None
    layer: dict = field(default_factory=dict)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def set_up(workload, seed, directory):
    """Import orifuse afresh, generate the scene and write the input files."""
    gc.collect()  # the previous set-up's garbage is not collected inside the timing
    start = time.perf_counter()
    for name in [n for n in sys.modules if n == "orifuse" or n.startswith("orifuse.")]:
        del sys.modules[name]
    cli = importlib.import_module("orifuse.cli")
    scene = workloads.make_scene(seed)
    config = workloads.write_inputs(workload, scene, directory)
    return time.perf_counter() - start, cli, config


def git_commit():
    """The checkout's commit, or None outside a git repository."""
    # the ceiling keeps git from reporting a repository that merely contains the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "orifuse").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "orifuse_using_numba": bool(sys.modules["orifuse._kernels"].USING_NUMBA),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def protocol_call(cli, workload, config, out, recorder):
    """One cli.main call; returns (wall seconds, cpu seconds, error or None)."""
    argv = [*workload.argv, "--config", str(config), "--out", str(out)]
    captured = io.StringIO()
    error = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(captured), redirect_stderr(captured):
            if recorder is None:
                rc = cli.main(argv)
            else:
                with recorder.span(layers.ROOT_SPAN):
                    rc = cli.main(argv)
        if rc != 0:
            error = f"exit code {rc}: {captured.getvalue().strip()}"
    except Exception:  # a crash is a failed call, recorded with its traceback
        error = traceback.format_exc()
    return time.perf_counter() - t0, time.process_time() - cpu0, error


class OutputCheck:
    """Gates on the first call's files; byte comparison for every later call."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.figures = None
        self.gate_error = None

    def verify(self, out):
        if self.reference is None:
            self.reference = out
            try:
                self.figures = self.workload.check(out)
            except workloads.GateFailure as exc:
                self.figures, self.gate_error = exc.figures, f"gate: {exc}"
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self.gate_error = f"unreadable output: {exc!r}"
            return self.gate_error
        ref_names = sorted(p.name for p in self.reference.iterdir())
        names = sorted(p.name for p in out.iterdir())
        if names != ref_names:
            return f"output files {names} differ from the first call's {ref_names}"
        for name in names:
            if not filecmp.cmp(self.reference / name, out / name, shallow=False):
                return f"{name} is not byte-identical to the first call's"
        return self.gate_error


def traced_call(cli, workload, config, out, index):
    recorder = spans.Recorder()
    recorder.request = index
    patcher = layers.install(recorder)
    try:
        wall, cpu, error = protocol_call(cli, workload, config, out, recorder)
    finally:
        patcher.restore()
    table = spans.summarize(recorder.take(), layers.COUNT_REDUCERS)
    rows = workloads.table_rows(out) if error is None else 0
    call = Call(index, True, wall, cpu, error,
                layers.call_metrics(table, wall, workload.trial_span, rows))
    return call, table


def measure(workload, args, cli, config, work):
    check = OutputCheck(workload)
    calls = []
    tables = []
    deadline = time.perf_counter() + args.seconds
    while len(calls) < MIN_CALLS or time.perf_counter() < deadline:
        index = len(calls)
        out = work / f"call{index:03d}"
        if args.trace and index % 2 == 1:
            call, table = traced_call(cli, workload, config, out, index)
            tables.append(table)
        else:
            call = Call(index, False, *protocol_call(cli, workload, config, out, None))
        if call.error is None:
            call.error = check.verify(out)
        if out != check.reference:
            shutil.rmtree(out, ignore_errors=True)
        calls.append(call)
    return calls, tables, check


COUNT_KEYS = {f"{name}.{key}" for name, key in layers.COUNTS}


def exact_counts(layer):
    return {k: v for k, v in layer.items() if k.endswith(".calls") or k in COUNT_KEYS}


def per_layer_metrics(calls):
    """Medians over traced calls, plus cpu and overhead from both kinds of call."""
    traced = [c for c in calls if c.traced and c.error is None]
    plain = [c for c in calls if not c.traced and c.error is None]
    if not traced or not plain:
        return {}, "no successful traced and untraced call to compare"
    problems = []
    if any(exact_counts(c.layer) != exact_counts(traced[0].layer) for c in traced):
        problems.append("computed work counts differ between identical calls")
    metrics = {k: statistics.median(c.layer[k] for c in traced) for k in traced[0].layer}
    if metrics["trace.coverage"] < 1.0 - COVERAGE_TOL:
        problems.append(f"wrapped functions account for only {metrics['trace.coverage']:.3f} "
                        "of the traced wall time")
    traced_wall = statistics.median(c.wall_s for c in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(c.wall_s for c in plain)
    metrics["proc.cpu_s"] = statistics.median(c.cpu_s for c in plain)
    metrics["proc.cpu_util"] = statistics.median(c.cpu_s / c.wall_s for c in plain)
    return metrics, "; ".join(problems)


def print_report(workload, args, setup_times, calls, check, tables):
    walls = [c.wall_s for c in calls if not c.traced]
    failed = sum(c.error is not None for c in calls)
    figures = check.figures or {}
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"  wall_s            {statistics.median(walls):.4f} s  median of {len(walls)} "
          f"untraced calls (min {min(walls):.4f}, max {max(walls):.4f})")
    print("  calls             " + " ".join(
        f"{'T' if c.traced else ''}{c.wall_s:.3f}/{c.cpu_s:.3f}" for c in calls)
        + "  (wall/cpu seconds; T = traced)")
    half = SETUP_REPS // 2
    print(f"  setup_s           {statistics.median(setup_times):.4f} s  median of "
          f"{len(setup_times)} set-ups (before the calls "
          f"{statistics.median(setup_times[:half]):.4f}, after "
          f"{statistics.median(setup_times[half:]):.4f})")
    print(f"  peak_rss_mb       {peak_rss_mb():.1f} MB")
    print(f"  failed_frac       {failed / len(calls):.4f}  ({failed}/{len(calls)} calls)")
    err = figures.get("max_via_err_rad")
    print(f"  max_via_err_rad   {'n/a' if err is None else f'{err:.4e}'} rad")
    ratio = figures.get("continuity_ratio")
    ratio = "n/a (no fused trajectory)" if ratio is None else f"{ratio:.4f}"
    print(f"  continuity_ratio  {ratio}")
    for c in calls:
        if c.error:
            print(f"  call {c.index} failed: {c.error}")
    if tables:
        wall = next(c.wall_s for c in calls if c.traced)
        print(f"  spans of the first traced call (traced wall {wall:.4f} s):")
        print(f"    {'span':40s} {'calls':>6s} {'self_s':>9s} {'share':>7s} "
              f"{'total_s':>9s}  computed counts")
        table = tables[0]
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            counts = " ".join(f"{k}={v}" for k, v in sorted(row["counts"].items()))
            print(f"    {name:40s} {row['calls']:6d} {row['self_s']:9.4f} "
                  f"{row['self_s'] / wall:7.2%} {row['total_s']:9.4f}  {counts}")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, args, work):
    setup_times = []
    for _ in range(SETUP_REPS // 2):
        elapsed, cli, config = set_up(workload, args.seed, work / "inputs")
        setup_times.append(elapsed)
    loaded = Path(sys.modules["orifuse"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        print(f"perfbench: imported orifuse from {loaded}, not from {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))
    calls, tables, check = measure(workload, args, cli, config, work)
    for _ in range(SETUP_REPS - SETUP_REPS // 2):
        setup_times.append(set_up(workload, args.seed, work / "inputs")[0])
    print_report(workload, args, setup_times, calls, check, tables)
    failed = sum(c.error is not None for c in calls)
    correct = failed == 0
    if args.trace:
        metrics, problem = per_layer_metrics(calls)
        if problem:
            print(f"  trace check failed: {problem}")
            correct = False
        units = {name: unit for name, unit, _ in layers.per_layer_spec()}
    else:
        via_err = (check.figures or {}).get("max_via_err_rad")
        metrics = {
            "wall_s": statistics.median(c.wall_s for c in calls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "max_via_err_rad": UNREADABLE_ERR if via_err is None else via_err,
        }
        units = dict(END_TO_END)
    result = {
        "correct": correct,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"  metrics not measured: {missing}")
        result["correct"] = False
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "orifuse" / "__init__.py").is_file():
        print(f"perfbench: no orifuse sources at {SRC / 'orifuse'}; run it from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{os.getpid()}"
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(workloads.WORKLOADS[args.workload], args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
