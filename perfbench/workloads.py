"""Benchmark scenes, run configurations and output gates of the workloads.

Every workload runs the acceptance scene: five ``s61-like`` demonstrations of
201 samples made by ``orifuse.demo_gen`` (profile seed 0, the acceptance
seed) and the via-point targets of the acceptance suite.  The benchmark seed
draws one world rotation Q and applies it to the whole scene: every
demonstration rotation, via target and via angular velocity.  Chart
coordinates, relative rotations, via errors and acceleration costs are
invariant under a common left rotation, so every seed asks for the same work
and must pass the same gates while the program reads different numbers.
Seed 0 keeps Q = I, the unrotated acceptance scene.

The gates read the sweep table the program wrote and check its rows against
the protocol's expectations.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEMO_PROFILE = "s61-like"
DEMO_COUNT = 5
DEMO_SAMPLES = 201
PROFILE_SEED = 0

PSI_START = np.array([1.2614, 1.0512, 1.5767])
PSI_MID_2 = np.array([0.7028, 1.1713, 0.4685])
PSI_TILT = np.array([-0.5236, 0.0, 0.0])
PSI_BOUNDARY = np.array([0.0, 2.2214, -2.2214])
PSI_BOUNDARY = PSI_BOUNDARY / np.linalg.norm(PSI_BOUNDARY) * np.pi  # on the pi-shell
PSI_ACC_MID = np.array([1.7639, 0.7560, 2.0159])
PSI_ACC_GOAL = np.array([0.7935, 1.3224, 0.0])

AXIS_ERR_LIMIT = 1e-2
VIA_ERR_LIMIT = 1e-3
MIN_RELAXED_WINS = 11


class GateFailure(Exception):
    """The program's output violates a correctness gate.

    figures carries what was measured before the violation was found.
    """

    def __init__(self, message, figures):
        super().__init__(message)
        self.figures = figures


@dataclass(frozen=True)
class Scene:
    rotation: np.ndarray  # Q, applied on the left to everything
    demos: list           # orifuse Demonstration objects, already rotated
    exp_map: object       # orifuse.so3.exp_map, used to place the via targets

    def via(self, t, psi, omega, **extra):
        doc = {"t": t, "rotation": (self.rotation @ self.exp_map(psi)).tolist(),
               "omega": (self.rotation @ np.asarray(omega, dtype=float)).tolist()}
        doc.update(extra)
        return doc


def world_rotation(seed):
    """Q(seed): identity for seed 0, otherwise a rotation drawn from the seed."""
    if seed == 0:
        return np.eye(3)
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def make_scene(seed):
    from orifuse import demo_gen, so3
    from orifuse.gmm import Demonstration

    q = world_rotation(seed)
    demos = demo_gen.generate_demos(DEMO_PROFILE, DEMO_COUNT, PROFILE_SEED,
                                    samples=DEMO_SAMPLES)
    if seed != 0:
        demos = [Demonstration(d.times, np.einsum("ij,njk->nik", q, d.rotations))
                 for d in demos]
    return Scene(q, demos, so3.exp_map)


def _iovp_vias(scene):
    """Baseline plus the three IOVPs of the acceptance fusion protocol."""
    return [
        scene.via(0.0, PSI_START, [0.0, 0.0, 0.0]),
        scene.via(4.0, PSI_MID_2, [0.0069, 0.2103, 0.2138], relaxed_axis="y"),
        scene.via(7.0, PSI_TILT, [0.0, 0.15, 0.2598], relaxed_axis="z"),
        scene.via(10.0, PSI_BOUNDARY, [0.0, 0.0, 0.0], relaxed_axis="y"),
    ]


def _base_config(demo_names):
    return {"schema_version": 1, "demos": demo_names,
            "gmm": {"components": 5, "seed": 0}, "kernel": {"l": 0.01, "lambda": 1.0}}


def target_sweep_config(scene, demo_names):
    return dict(_base_config(demo_names), aux_frame="per-iovp", grid=2001,
                via_points=_iovp_vias(scene),
                sweep={"axis": "target-rotation", "values": list(range(12))})


LAMBDA_VALUES = np.logspace(1.0, 5.0, 8).tolist()


def lambda_sweep_config(scene, demo_names):
    # the three strict via-points of the acceleration-sweep criterion
    vias = [
        scene.via(0.0, PSI_START, [0.0, 0.0, 0.0], velocity_var=1e3),
        scene.via(5.0, PSI_ACC_MID, [0.1, 0.0, 0.0], velocity_var=1e3),
        scene.via(10.0, PSI_ACC_GOAL, [-0.1, 0.0, 0.0], velocity_var=1e3),
    ]
    return dict(_base_config(demo_names), aux_frame="first-demo-start", grid=2001,
                via_points=vias, sweep={"axis": "lambda_a", "values": LAMBDA_VALUES})


def write_inputs(workload, scene, directory):
    """Write the demonstration files and the run configuration; returns its path."""
    from orifuse import io

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for i, demo in enumerate(scene.demos):
        names.append(f"demo_{i:02d}.csv")
        io.save_demo(directory / names[-1], demo)
    path = directory / f"{workload.name}.json"
    path.write_text(json.dumps(workload.config(scene, names), indent=1))
    return path


# --- reading outputs -------------------------------------------------------

def read_table(path):
    lines = Path(path).read_text().splitlines()
    header = lines[1].split(",")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[2:]])
    return {name: rows[:, j] for j, name in enumerate(header)}


# --- gates ------------------------------------------------------------------

def check_target_sweep(out):
    table = read_table(out / "table.csv")
    figures = {"max_via_err_rad": float(table["max_axis_err"].max()),
               "continuity_ratio": float(max(table["continuity_ratio_iovp"].max(),
                                             table["continuity_ratio_strict"].max()))}
    if list(table["i"]) != list(range(12)):
        raise GateFailure(f"sweep rows {list(table['i'])}, expected 0..11", figures)
    wins = int(np.sum(table["cost_iovp"] <= table["cost_strict"]))
    if wins < MIN_RELAXED_WINS:
        raise GateFailure(f"relaxed cost <= strict cost in {wins}/12 rows, "
                          f"expected >= {MIN_RELAXED_WINS}", figures)
    if not figures["max_via_err_rad"] < AXIS_ERR_LIMIT:
        raise GateFailure(f"axis error {figures['max_via_err_rad']:.3g} >= "
                          f"{AXIS_ERR_LIMIT}", figures)
    return figures


def check_lambda_sweep(out):
    table = read_table(out / "table.csv")
    figures = {"max_via_err_rad": float(table["max_via_err"].max()), "continuity_ratio": None}
    if not np.array_equal(table["lambda_a"], np.array(LAMBDA_VALUES)):
        raise GateFailure("sweep rows do not match the requested lambda_a values", figures)
    costs = table["acceleration_cost"]
    if np.any(np.diff(costs) > 0):
        raise GateFailure(f"cost increases with lambda_a: {costs.tolist()}", figures)
    if not figures["max_via_err_rad"] < VIA_ERR_LIMIT:
        raise GateFailure(f"via error {figures['max_via_err_rad']:.3g} >= {VIA_ERR_LIMIT}",
                          figures)
    return figures


def table_rows(out):
    return len((out / "table.csv").read_text().splitlines()) - 2


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple       # subcommand and flags; --config and --out are appended
    config: object    # (scene, demo file names) -> config document
    check: object     # output dir -> quality figures, or raises GateFailure
    trial_span: tuple  # (span name, spans per sweep trial)


WORKLOADS = {
    w.name: w for w in (
        Workload("target-sweep", ("sweep", "--jobs", "1"), target_sweep_config,
                 check_target_sweep, ("fusion.fuse", 2)),
        Workload("lambda-sweep", ("sweep", "--jobs", "2"), lambda_sweep_config,
                 check_lambda_sweep, ("pipeline.reproduce", 1)),
    )
}
