"""Command-line front end.

Subcommands cover the desk-scale experiment protocols: demonstration
generation, learning, via-point adaptation, multi-via fusion, and comparison
sweeps.  Identical configuration and seed produce bitwise-identical output
files, whatever the BLAS thread count.  Every command but gen-demos reads its
settings from one validated io.RunConfig: --config and --out are required,
and --seed and --grid override the config's gmm seed and grid.  A sweep
prepares what its trials share, then runs its tasks on one pool of --jobs
threads.  A lambda_a sweep fits its chart's mixture and builds its first
value's model once; every other value solves only its acceleration weight
from that model's factor (kmp.RowFactor.solve).  Its values are split into
one group per job, each of at most LAMBDA_GROUP_ROWS grid rows, and each
task reproduces a group as one batch (kmp.reproduce_orientation_trajectories).
A target-rotation sweep fits every chart's mixture in one call, builds the
components of the vias that do not turn once, and each of its tasks is one
trial.

Exit codes, owned by errors.py: 0 success, 1 any other OrifuseError,
2 configuration, 3 input parsing or timing, 4 numeric failure, 5 via-domain
overlap, 6 output I/O.
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import demo_gen, fusion, io, kmp, so3
from ._kernels import geodesic_distances
from .errors import ConfigError, IoError, OrifuseError
from .pipeline import (check_kernel, check_vias, demo_grid, fit_projected_mixture,
                       regression_rows, reproduce_with_via_points)

# most grid rows a lambda_a sweep reproduces in one batch, one task on the --jobs pool;
# it bounds a group's arrays, and on a grid of more rows each value is a group of its own
LAMBDA_GROUP_ROWS = 2**16


def _add_common(sub):
    sub.add_argument("--config", required=True, help="JSON run configuration")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--seed", type=int, default=None, help="override the config's gmm seed")
    sub.add_argument("--grid", type=int, default=None, help="override the config's grid size")


def _output_dir(path):
    """The directory path, made with its parents; IoError (exit 6) when it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot make the output directory {out}: {exc}") from exc
    return out


def _load_run(args):
    """(config, output dir, demos) of a command reading --config.

    io.load_config applies --seed and --grid before its checks.  A sweep needs
    a sweep axis.  fuse, eval and target-rotation sweeps take one chart per
    via-point (per-iovp); every other command takes one chart, and a
    first-demo-start chart is resolved into aux_rotation here.  These checks
    run before the demonstrations load, and pipeline.check_vias and
    pipeline.check_kernel after, before the output directory is made.
    """
    cfg = io.load_config(args.config, seed=args.seed, grid=args.grid)
    if args.command == "sweep" and cfg.sweep_axis is None:
        raise ConfigError("config has no sweep axis; set sweep.axis to "
                          "'lambda_a' or 'target-rotation'")
    per_iovp = args.command in ("fuse", "eval") or (
        args.command == "sweep" and cfg.sweep_axis == "target-rotation")
    if per_iovp != (cfg.aux_policy == "per-iovp"):
        raise ConfigError(f"{args.command} needs aux_frame policy 'per-iovp'" if per_iovp else
                          f"{args.command} needs one chart, not aux_frame policy 'per-iovp'")
    demos = io.load_demos(cfg.demo_paths)
    if cfg.aux_policy == "first-demo-start":
        cfg = replace(cfg, aux_rotation=demos[0].rotations[0])
    check_vias(demos, cfg.via_points, demo_grid(demos, cfg.grid))
    check_kernel(demos, cfg.kernel.l)
    return cfg, _output_dir(args.out), demos


def _via_targets(cfg, times):
    """Each via's nearest index in times and its world-frame target, stacked (V, 3, 3)."""
    near = [int(np.argmin(np.abs(times - via.t))) for via in cfg.via_points]
    targets = np.reshape([via.target_rotation(cfg.aux_rotation) for via in cfg.via_points],
                         (-1, 3, 3))
    return near, targets


def _via_errors(cfg, traj):
    """Each via's (geodesic, omega) error in traj at its nearest grid time.

    The geodesic errors are so3.geodesic_distance's, from one stack of
    relative rotations and one log; the via targets were checked at load and
    traj's rotations come from the exp map, so neither is checked again.
    """
    near, targets = _via_targets(cfg, traj.times)
    angles = geodesic_distances(traj.rotations[near], targets)
    return [(float(angle), float(np.linalg.norm(traj.omega_world[i] - via.omega)))
            for angle, i, via in zip(angles, near, cfg.via_points)]


def _cmd_gen_demos(args):
    if args.count < 1 or args.samples < 2 or not 0 < args.duration < np.inf or args.seed < 0:
        raise ConfigError("gen-demos needs count >= 1, samples >= 2, a finite duration > 0 and "
                          f"seed >= 0; got {args.count}, {args.samples}, {args.duration} "
                          f"and {args.seed}")
    out = _output_dir(args.out)
    demos = demo_gen.generate_demos(
        args.profile, args.count, args.seed, duration=args.duration, samples=args.samples
    )
    for i, demo in enumerate(demos):
        io.save_demo(out / f"demo_{i:02d}.csv", demo)
    print(f"wrote {len(demos)} '{args.profile}' demonstrations to {out}")
    return 0


def _cmd_learn(args):
    cfg, out, demos = _load_run(args)
    result = reproduce_with_via_points(
        demos, cfg.aux_rotation, [], cfg.kernel, demo_grid(demos, cfg.grid),
        n_components=cfg.components, seed=cfg.seed,
    )
    io.save_mixture(out / "mixture.json", result.mixture)
    traj = result.trajectory
    io.save_trajectory(out / "trajectory.csv", traj)
    io.save_metrics(out / "metrics.csv", {
        "em_iterations": len(result.mixture.log_likelihoods),
        "log_likelihood": float(result.mixture.log_likelihoods[-1]),
        "acceleration_cost": fusion.trajectory_acceleration_cost(traj),
    })
    print(f"learned mixture and reproduction written to {out}")
    return 0


def _cmd_adapt(args):
    cfg, out, demos = _load_run(args)
    traj = reproduce_with_via_points(
        demos, cfg.aux_rotation, cfg.via_points, cfg.kernel, demo_grid(demos, cfg.grid),
        n_components=cfg.components, seed=cfg.seed,
    ).trajectory
    errors = _via_errors(cfg, traj)
    io.save_trajectory(out / "trajectory.csv", traj)
    metrics = {"acceleration_cost": fusion.trajectory_acceleration_cost(traj)}
    for idx, (rot_err, omega_err) in enumerate(errors):
        metrics[f"via{idx}_geodesic_err"] = rot_err
        metrics[f"via{idx}_omega_err"] = omega_err
    io.save_metrics(out / "metrics.csv", metrics)
    print(f"adaptation written to {out}")
    return 0


def _components(cfg, demos, vias, gmm_cache=None):
    """One component trajectory per via, via 0 the baseline.

    fusion.build_component_trajectories builds them; with no via, the one
    component is the run at the first demonstration's start.
    """
    baseline, iovps = (vias[0], vias[1:]) if vias else (None, [])
    components, _ = fusion.build_component_trajectories(
        demos, baseline, iovps, cfg.kernel, demo_grid(demos, cfg.grid),
        n_components=cfg.components, seed=cfg.seed, gmm_cache=gmm_cache,
    )
    return components


def _relaxed_and_strict(cfg, demos, vias, gmm_cache=None):
    """The relaxed and the strict component lists of vias (see _components).

    A via's strict form drops its relaxed axis and orientation_var.  A via
    with neither is its own strict form, so its one component serves both
    lists; every other via adds a strict component.
    """
    loose = [k for k, via in enumerate(vias)
             if via.relaxed_axis is not None or via.orientation_var is not None]
    strict_vias = [replace(vias[k], relaxed_axis=None, orientation_var=None) for k in loose]
    built = _components(cfg, demos, vias + strict_vias, gmm_cache)
    relaxed = built[:len(built) - len(loose)]
    strict = dict(zip(loose, built[len(relaxed):]))
    return relaxed, [strict.get(k, component) for k, component in enumerate(relaxed)]


def _fusion_metrics(fused, iovps):
    metrics = {"acceleration_cost": fusion.trajectory_acceleration_cost(fused)}
    max_step, median_step = fusion.continuity_stats(fused.rotations)
    metrics["continuity_max_step"] = max_step
    metrics["continuity_median_step"] = median_step
    metrics["continuity_ratio"] = max_step / median_step if median_step > 0 else np.inf
    for k, iovp in enumerate(iovps, start=1):
        i = int(np.argmin(np.abs(fused.times - iovp.t)))
        axis = iovp.relaxed_axis
        if axis is None:
            err = so3.geodesic_distance(fused.rotations[i], iovp.rotation)
        else:
            err = fusion.axis_alignment_error(fused.rotations[i], iovp.rotation, axis)
        metrics[f"iovp{k}_axis_err"] = err
    return metrics


def _cmd_fuse(args):
    cfg, out, demos = _load_run(args)
    memory = not args.no_memory
    components = _components(cfg, demos, cfg.via_points)
    iovps = cfg.via_points[1:]
    fused = fusion.fuse(components, fusion.weight_curves_for(iovps), memory=memory)
    for k, comp in enumerate(components):
        io.save_trajectory(out / f"component_{k}.csv", comp)
    io.save_trajectory(out / "trajectory.csv", fused)
    metrics = _fusion_metrics(fused, iovps)
    metrics["memory"] = memory
    io.save_metrics(out / "metrics.csv", metrics)
    print(f"fused trajectory ({len(components)} components) written to {out}")
    return 0


def _comparison(vias, relaxed, strict):
    """Relaxed and strict fusion of vias (via 0 the baseline) plus their comparison row.

    relaxed and strict are the component lists of _relaxed_and_strict.  The
    row holds cost_iovp, cost_strict, max_axis_err, continuity_ratio_iovp and
    continuity_ratio_strict.
    """
    iovps = vias[1:]
    curves = fusion.weight_curves_for(iovps)
    fused_i, fused_s = fusion.fuse(relaxed, curves), fusion.fuse(strict, curves)
    m_i = _fusion_metrics(fused_i, iovps)
    m_s = _fusion_metrics(fused_s, [])
    axis_errs = [m_i[k] for k in m_i if k.endswith("_axis_err")]
    row = [m_i["acceleration_cost"], m_s["acceleration_cost"],
           max(axis_errs) if axis_errs else 0.0,
           m_i["continuity_ratio"], m_s["continuity_ratio"]]
    return fused_i, fused_s, row


_COMPARISON_COLUMNS = ["cost_iovp", "cost_strict", "max_axis_err", "continuity_ratio_iovp",
                       "continuity_ratio_strict"]


def _cmd_eval(args):
    cfg, out, demos = _load_run(args)
    vias = cfg.via_points
    fused_i, fused_s, row = _comparison(vias, *_relaxed_and_strict(cfg, demos, vias))
    io.save_trajectory(out / "trajectory_iovp.csv", fused_i)
    io.save_trajectory(out / "trajectory_strict.csv", fused_s)
    io.save_table(out / "table.csv", _COMPARISON_COLUMNS, [row])
    print(f"comparison written to {out}")
    return 0


def _turned(via, i):
    """Step i of a target-rotation sweep: via's target turned by (i - 6) pi / 6 about its y axis."""
    turn = so3.exp_map([0.0, (int(i) - 6) * np.pi / 6.0, 0.0])
    return replace(via, rotation=via.rotation @ turn)


def _cmd_sweep(args):
    jobs = min(4, os.cpu_count() or 1) if args.jobs is None else args.jobs
    if jobs < 1:
        raise ConfigError(f"the sweep needs at least one job, got {jobs}")
    cfg, out, demos = _load_run(args)
    cache = {}
    if cfg.sweep_axis == "lambda_a":
        # every value runs in the one chart and changes only the weight of the zero
        # acceleration targets, so the mixture and the first value's model are built
        # once, before them; every other value runs only stage 2 of the regression,
        # from that model's factor, and a group of values is reproduced as one batch
        first = float(cfg.sweep_values[0])
        _, rows = regression_rows(demos, cfg.aux_rotation, cfg.via_points, first,
                                  cfg.components, cfg.seed, cache)
        built = kmp.build_model(rows, replace(cfg.kernel, lambda_a=first))
        grid = demo_grid(demos, cfg.grid)
        columns = ["lambda_a", "acceleration_cost", "max_via_err"]
        near, targets = _via_targets(cfg, grid)
        values = [float(value) for value in cfg.sweep_values]
        # one group per job, each of at most LAMBDA_GROUP_ROWS grid rows
        size = max(1, min(LAMBDA_GROUP_ROWS // grid.shape[0], (len(values) + jobs - 1) // jobs))
        tasks = [values[lo:lo + size] for lo in range(0, len(values), size)]

        def run(group):
            models = [built if lam_a == first else built.factor.solve(lam_a) for lam_a in group]
            trajs = kmp.reproduce_orientation_trajectories(models, cfg.aux_rotation, grid)
            # max_via_err is the largest of _via_errors' geodesic errors, 0 without vias
            return [[lam_a, fusion.trajectory_acceleration_cost(traj),
                     float(geodesic_distances(traj.rotations[near], targets).max(initial=0.0))]
                    for lam_a, traj in zip(group, trajs)]
    else:
        # only the last via turns, so the others' components are built once, before the
        # trials; every chart's mixture is fitted before them too, in one call.  A turn
        # moves no via's time or speed, so _load_run's checks hold for every trial
        *fixed, last = cfg.via_points
        vias = fixed + [_turned(last, i) for i in cfg.sweep_values]
        fit_projected_mixture(demos, [via.target_rotation() for via in vias], cfg.components,
                              cfg.seed, cache)
        fixed_relaxed, fixed_strict = (_relaxed_and_strict(cfg, demos, fixed, cache)
                                       if fixed else ([], []))
        columns = ["i"] + _COMPARISON_COLUMNS
        tasks = cfg.sweep_values

        def run(i):
            turned = _turned(last, i)
            relaxed, strict = _relaxed_and_strict(cfg, demos, [turned], cache)
            _, _, row = _comparison(fixed + [turned], fixed_relaxed + relaxed,
                                    fixed_strict + strict)
            return [[int(i)] + row]

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        rows = [row for table in pool.map(run, tasks) for row in table]
    io.save_table(out / "table.csv", columns, rows)
    print(f"sweep table ({len(rows)} trials) written to {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orifuse",
        description="Orientation trajectory learning, adaptation and fusion on SO(3).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen-demos", help="generate seeded synthetic demonstrations")
    gen.add_argument("--profile", default="s61-like",
                     choices=["s61-like", "single-axis", "random-geodesic"])
    gen.add_argument("--count", type=int, default=5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=".")
    gen.add_argument("--duration", type=float, default=demo_gen.DURATION)
    gen.add_argument("--samples", type=int, default=demo_gen.SAMPLES)
    gen.set_defaults(func=_cmd_gen_demos)

    learn = subs.add_parser("learn", help="fit the mixture and reproduce without via-points")
    _add_common(learn)
    learn.set_defaults(func=_cmd_learn)

    adapt = subs.add_parser("adapt", help="adapt the learned trajectory towards via-points")
    _add_common(adapt)
    adapt.set_defaults(func=_cmd_adapt)

    fuse = subs.add_parser("fuse", help="fuse per-via-point component trajectories")
    _add_common(fuse)
    fuse.add_argument("--no-memory", action="store_true",
                      help="diagnostic: disable the memory-based average")
    fuse.set_defaults(func=_cmd_fuse)

    ev = subs.add_parser("eval", help="compare relaxed against strict via handling")
    _add_common(ev)
    ev.set_defaults(func=_cmd_eval)

    sweep = subs.add_parser("sweep", help="run the configured parameter sweep")
    _add_common(sweep)
    sweep.add_argument("--jobs", type=int, default=None,
                       help="concurrent trials, or value groups of a lambda_a sweep")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OrifuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
