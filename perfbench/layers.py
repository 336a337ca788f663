"""Which orifuse functions the traced run wraps, and the per-layer metrics.

Each entry names a span after the layer (module) and the function it times.
Counters return exact work counts computed from the arguments and results,
so they repeat bit for bit between runs of the same protocol.  The so3 layer
includes the array kernels of ``orifuse._kernels`` that it is built on.
"""

import sys

from spans import Patcher, traced_executor

ROOT_SPAN = "cli.main"


def _fit_gmm(args, kwargs, result):
    return {"em_iters": len(result.log_likelihoods)}


def _build_model(args, kwargs, result):
    ext, cfg = args[0], args[1]
    dim = len(ext) * cfg.n_blocks * 3
    return {"gram_dim": dim, "chol_gflop": dim**3 / 3.0 / 1e9}


def _predict_many(args, kwargs, result):
    model = args[0]
    points = result.shape[0]
    nb = model.cfg.n_blocks
    # the contraction "pqab,bqr->apr": one multiply-add per (a, b, p, q, r)
    flops = 2 * points * model.times.shape[0] * nb * nb * 3
    return {"points": points, "gflop": flops / 1e9}


def _fuse(args, kwargs, result):
    components = args[0]
    return {"steps": len(result.times) * (len(components) - 1)}


def _rows(args, kwargs, result):
    return {"rows": len(result)}


# (span name, module, attribute, counter); KmpModel.predict_many is a method
WRAPPED = (
    ("io.load_config", "io", "load_config", None),
    ("io.load_demos", "io", "load_demos", None),
    ("io.save_table", "io", "save_table", None),
    ("pipeline.reproduce", "pipeline", "reproduce_with_via_points", None),
    ("pipeline.fit_projected_mixture", "pipeline", "fit_projected_mixture", None),
    ("gmm.project", "gmm", "project_demonstrations", None),
    ("gmm.fit_gmm", "gmm", "fit_gmm", _fit_gmm),
    ("gmm.extract_reference", "gmm", "extract_reference", None),
    ("kmp.extend_reference", "kmp", "extend_reference", None),
    ("kmp.augment_for_acceleration", "kmp", "augment_for_acceleration", None),
    ("kmp.build_model", "kmp", "build_model", _build_model),
    ("kmp.reproduce_orientation_trajectory", "kmp", "reproduce_orientation_trajectory", None),
    ("kmp.angular_velocities", "kmp", "angular_velocities", None),
    ("so3.log_map_many", "so3", "log_map_many", _rows),
    ("so3.rot_exp_many", "_kernels", "rot_exp_many", _rows),
    ("so3.rot_log_many", "_kernels", "rot_log_many", _rows),
    ("fusion.build_component_trajectories", "fusion", "build_component_trajectories", None),
    ("fusion.fuse", "fusion", "fuse", _fuse),
    ("fusion.continuity_stats", "fusion", "continuity_stats", None),
    ("fusion.acceleration_cost", "fusion", "acceleration_cost", None),
)
METHODS = (("kmp.predict_many", "kmp", "KmpModel", "predict_many", _predict_many),)
SPAN_NAMES = (ROOT_SPAN,) + tuple(w[0] for w in WRAPPED) + tuple(m[0] for m in METHODS)
COUNT_REDUCERS = {"gram_dim": max}

# computed work counts reported as "<span>.<count>"
COUNTS = (
    ("gmm.fit_gmm", "em_iters"),
    ("kmp.build_model", "gram_dim"),
    ("kmp.build_model", "chol_gflop"),
    ("kmp.predict_many", "points"),
    ("kmp.predict_many", "gflop"),
    ("fusion.fuse", "steps"),
    ("so3.log_map_many", "rows"),
    ("so3.rot_exp_many", "rows"),
    ("so3.rot_log_many", "rows"),
)


RATIOS = ("pipeline.mixture_cache.hit_ratio", "cli.sweep.useful_trial_ratio",
          "trace.coverage", "proc.cpu_util")


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, as BENCHMARK.json lists them."""
    spec = []
    for name in SPAN_NAMES:
        spec += [(f"{name}.s", "s", "lower"), (f"{name}.calls", "count", "lower")]
    for name, key in COUNTS:
        unit = "GFLOP" if key.endswith("gflop") else "count"
        spec.append((f"{name}.{key}", unit, "lower"))
    spec += [(name, "ratio", "higher") for name in RATIOS]
    spec += [("proc.cpu_s", "s", "lower"), ("trace.wall_s", "s", "lower"),
             ("trace.overhead_s", "s", "lower")]
    return spec


def orifuse_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "orifuse" or name.startswith("orifuse.")]


def install(recorder):
    """Wrap every traced function; returns the Patcher that undoes it."""
    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in orifuse_modules()}
    patcher = Patcher(recorder, orifuse_modules())
    try:
        for name, module, attr, counter in WRAPPED:
            patcher.wrap(name, mods[module], attr, counter)
        for name, module, cls, attr, counter in METHODS:
            patcher.wrap_method(name, getattr(mods[module], cls), attr, counter)
        cli = mods["cli"]
        executor = traced_executor(recorder, cli.ThreadPoolExecutor)
        patcher.replace(cli, "ThreadPoolExecutor", executor)
    except BaseException:
        patcher.restore()
        raise
    return patcher


def call_metrics(table, wall_s, trial_span, table_rows):
    """Per-layer figures of one traced protocol call from its span summary.

    trial_span is (span name, spans per sweep trial); table_rows is the
    number of rows the sweep wrote.  trace.coverage is the share of the
    traced wall time spent inside wrapped functions, that is, outside the
    root span's own time.
    """
    def row(name):
        return table.get(name, {"calls": 0, "self_s": 0.0, "counts": {}})

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = row(name)["self_s"]
        out[f"{name}.calls"] = row(name)["calls"]
    for name, key in COUNTS:
        out[f"{name}.{key}"] = row(name)["counts"].get(key, 0)
    lookups = row("pipeline.fit_projected_mixture")["calls"]
    fits = row("gmm.fit_gmm")["calls"]
    out["pipeline.mixture_cache.hit_ratio"] = 1.0 - fits / lookups if lookups else 0.0
    span, per_trial = trial_span
    trials = row(span)["calls"] / per_trial
    out["cli.sweep.useful_trial_ratio"] = table_rows / trials if trials else 0.0
    wrapped = sum(r["self_s"] for name, r in table.items() if name != ROOT_SPAN)
    out["trace.coverage"] = wrapped / wall_s
    return out
