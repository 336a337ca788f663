"""Durable text formats: demonstrations, trajectories, metrics, run configs.

Numeric tables are comma-separated with a single ``#``-prefixed header line
carrying ``key=value`` tokens; every float renders with 17 significant digits
so files round-trip bit-exactly and diffs stay meaningful.  Run configuration
is a JSON document with an explicit schema version.  All parsing is
locale-independent (``.`` decimal separator).
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fusion, kmp, so3
from .errors import (
    ConfigError,
    InconsistentTiming,
    IoError,
    NotARotation,
    ParseError,
)
from .gmm import DEFAULT_COMPONENTS, Demonstration, GaussianMixture

SCHEMA_VERSION = 1
DT_TOL = 1e-9
# the grids a run configuration may ask for (exit 2 outside them); every command
# reports an acceleration cost, which needs three samples
MIN_GRID = 3
MAX_GRID = 10**6

_DEMO_MAGIC = "orifuse-demo"
_TRAJ_MAGIC = "orifuse-trajectory"


def _fmt(x):
    return format(float(x), ".17g")


def _cell(value):
    """A metric or table cell: integers and booleans as integers, other numbers as _fmt."""
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    return _fmt(value)


def _numeric_rows(*blocks):
    """One line of comma-separated _fmt cells per row of the column-stacked blocks."""
    return [",".join(map(_fmt, row)) for row in np.column_stack(blocks).tolist()]


def _write_text(path, text):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_lines(path, lines):
    _write_text(path, "\n".join(lines) + "\n")


def _parse_header(path, line, magic):
    tokens = line.lstrip("#").split()
    if tokens[:2] != [magic, f"v{SCHEMA_VERSION}"]:
        raise ParseError(f"expected a '{magic} v{SCHEMA_VERSION}' header", path=path, line=1)
    fields = {}
    for tok in tokens[1:]:
        if "=" in tok:
            key, val = tok.split("=", 1)
            fields[key] = val
    return fields


def _read_table(path, magic):
    """(header fields, numeric rows) of a table file; a header n= must count the rows."""
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=path) from exc
    lines = raw.splitlines()
    if not lines:
        raise ParseError("empty file", path=path, line=1)
    header = _parse_header(path, lines[0], magic)
    rows = []
    width = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise ParseError(
                f"expected {width} columns, found {len(parts)}", path=path, line=lineno
            )
        row = np.empty(width)
        for col, part in enumerate(parts):
            try:
                row[col] = float(part)
            except ValueError:
                raise ParseError(
                    f"not a number: {part.strip()!r}", path=path, line=lineno, column=col + 1
                ) from None
        rows.append(row)
    data = np.vstack(rows) if rows else np.empty((0, 0))
    if "n" in header and header["n"] != str(len(data)):
        raise ParseError(f"header says n={header['n']} but the file has {len(data)} rows",
                         path=path, line=1)
    return header, data


def _quats_to_matrices(quats, path):
    """Rotation matrices of (N, 4) wxyz quaternion rows; a zero row is named."""
    w, x, y, z = quats.T
    n = w * w + x * x + y * y + z * z
    zero = np.flatnonzero(n < 1e-12)
    if zero.size:
        raise NotARotation(f"{path}: row {zero[0]}: zero quaternion")
    s = 2.0 / n
    return np.stack(
        [
            1.0 - s * (y * y + z * z), s * (x * y - w * z), s * (x * z + w * y),
            s * (x * y + w * z), 1.0 - s * (x * x + z * z), s * (y * z - w * x),
            s * (x * z - w * y), s * (y * z + w * x), 1.0 - s * (x * x + y * y),
        ],
        axis=1,
    ).reshape(-1, 3, 3)


def save_demo(path, demo):
    """Write a demonstration as rows of t plus the row-major rotation."""
    n = len(demo)
    blocks = [demo.times, demo.rotations.reshape(n, 9)]
    if demo.positions is not None:
        blocks.append(demo.positions)
    header = f"# {_DEMO_MAGIC} v{SCHEMA_VERSION} dt={_fmt(demo.dt)} n={n} frame=world rep=matrix"
    _write_lines(path, [header] + _numeric_rows(*blocks))


def load_demo(path, reorthonormalize=False):
    """Parse and validate one demonstration file.

    Rotations are stored row-major (or as wxyz quaternions when the header
    says ``rep=quat``).  Matrices failing the orthogonality tolerance raise
    NotARotation with their row index unless reorthonormalize repairs them
    explicitly via polar decomposition.
    """
    path = Path(path)
    header, data = _read_table(path, _DEMO_MAGIC)
    rep, frame = header.get("rep", "matrix"), header.get("frame", "world")
    if rep not in ("matrix", "quat") or frame != "world":
        raise ParseError(f"header says rep={rep} frame={frame}; a demonstration needs "
                         "rep=matrix or rep=quat and frame=world", path=path, line=1)
    rot_cols = 4 if rep == "quat" else 9
    if data.size == 0 or data.shape[1] not in (1 + rot_cols, 1 + rot_cols + 3):
        raise ParseError(
            f"expected 1+{rot_cols} (+3 optional position) columns", path=path, line=2
        )
    times = data[:, 0]
    steps = np.diff(times)
    uneven = np.flatnonzero((steps <= 0) | (np.abs(steps - steps[:1]) > DT_TOL))
    if uneven.size:
        row = uneven[0] + 1
        raise ParseError(f"row {row}: timestamps must increase in even steps; this row is "
                         f"{float(steps[row - 1])} s after the previous one, row 1 is "
                         f"{float(steps[0])} s after row 0", path=path)
    if "dt" in header and steps.size:
        try:
            header_dt = float(header["dt"])
        except ValueError:
            header_dt = np.nan
        if not abs(header_dt - float(steps[0])) <= DT_TOL:
            raise ParseError(f"header says dt={header['dt']} but the rows are "
                             f"{float(steps[0])} s apart", path=path, line=1)
    if rep == "quat":
        rotations = _quats_to_matrices(data[:, 1:5], path)
    else:
        rotations = data[:, 1:10].reshape(-1, 3, 3)
    bad = np.flatnonzero(so3.non_rotations(rotations))
    if bad.size and not reorthonormalize:
        raise NotARotation(f"{path}: row {bad[0]} fails the rotation check")
    for i in bad:
        rotations[i] = so3.orthonormalize(rotations[i], name=f"{path}: row {i}")
    positions = data[:, 1 + rot_cols:] if data.shape[1] == 1 + rot_cols + 3 else None
    return Demonstration(times, rotations, positions)


def load_demos(paths, reorthonormalize=False):
    """Load a demonstration set; all files must share one sampling step."""
    demos = [load_demo(p, reorthonormalize=reorthonormalize) for p in paths]
    if not demos:
        raise ParseError("no demonstration files given")
    dts = [d.dt for d in demos]
    if max(dts) - min(dts) > DT_TOL:
        raise InconsistentTiming(
            f"sampling steps differ by more than {DT_TOL}: {sorted(set(dts))}"
        )
    return demos


def save_trajectory(path, traj):
    """Write a kmp.OrientationTrajectory as t, psi, R (row-major), omega, weight columns.

    A trajectory without weights (a regression run) writes the single column
    W_0 = 1.  psi is the angle-axis chart coordinate of R in the world chart;
    its sign flips where the trajectory crosses the chart boundary, which is
    expected and does not indicate a discontinuity of R itself.
    """
    n = len(traj)
    weights = np.ones((n, 1)) if traj.weights is None else traj.weights
    k = weights.shape[1] - 1
    psis = so3.log_map_many(traj.rotations) if n else np.empty((0, 3))
    rows = _numeric_rows(traj.times, psis, traj.rotations.reshape(n, 9), traj.omega_world,
                         weights)
    _write_lines(path, [f"# {_TRAJ_MAGIC} v{SCHEMA_VERSION} n={n} k={k}"] + rows)


def load_trajectory(path):
    """Inverse of save_trajectory; the weights always hold the columns W_0..W_K."""
    path = Path(path)
    header, data = _read_table(path, _TRAJ_MAGIC)
    k = header.get("k", "0")
    if not k.isdecimal():
        raise ParseError(f"header says k={k}; k must be a non-negative integer",
                         path=path, line=1)
    want = 1 + 3 + 9 + 3 + (int(k) + 1)
    if data.size == 0:
        data = np.empty((0, want))
    if data.shape[1] != want:
        raise ParseError(f"expected {want} columns, found {data.shape[1]}", path=path, line=2)
    return kmp.OrientationTrajectory(data[:, 0], data[:, 4:13].reshape(-1, 3, 3),
                                     data[:, 13:16], data[:, 16:])


def save_metrics(path, metrics):
    """Write scalar metrics as deterministic key,value rows."""
    lines = [f"{key},{_cell(value)}" for key, value in metrics.items()]
    _write_lines(path, ["# orifuse-metrics v1"] + lines)


def save_table(path, columns, rows):
    """Write a comparison table with named columns (sweep/eval output)."""
    lines = [",".join(map(_cell, row)) for row in rows]
    _write_lines(path, ["# orifuse-table v1", ",".join(columns)] + lines)


def save_mixture(path, mixture):
    """Serialize a fitted mixture to JSON (floats keep full precision)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "priors": mixture.priors.tolist(),
        "means": mixture.means.tolist(),
        "covariances": mixture.covariances.tolist(),
    }
    _write_text(path, json.dumps(doc, indent=1))


def load_mixture(path):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse mixture file: {exc}", path=path) from exc
    return GaussianMixture(
        np.asarray(doc["priors"], dtype=float),
        np.asarray(doc["means"], dtype=float),
        np.asarray(doc["covariances"], dtype=float),
    )


@dataclass(frozen=True)
class RunConfig:
    demo_paths: list
    components: int
    seed: int
    kernel: kmp.KernelConfig
    grid: int
    aux_policy: str
    # the one chart of the run: "explicit" and "via" resolve at load, "first-demo-start"
    # once the demonstrations are loaded; None for "per-iovp"
    aux_rotation: np.ndarray | None
    via_points: list
    sweep_axis: str | None
    sweep_values: list


# the keys each section of a run configuration may hold; a kernel key maps to its
# kmp.KernelConfig field, a via key but t, rotation, psi and omega to the ViaPointSpec one
_KEYS = {
    "top level": ("schema_version", "demos", "aux_frame", "gmm", "kernel", "grid",
                  "via_points", "sweep"),
    "gmm": ("components", "seed"),
    "kernel": {"l": "l", "lambda": "lam", "lambda_a": "lambda_a"},
    "aux_frame": ("policy", "rotation", "index"),
    "sweep": ("axis", "values"),
    "via_points": ("t", "rotation", "psi", "omega", "relaxed_axis", "eps_strict",
                   "eps_loose", "orientation_var", "velocity_var", "acceleration_var",
                   "weight_half_width", "frame"),
}
# why a retired key is gone, appended to its unknown-key message
_RETIRED = {
    "memory": "the memory average always runs; 'fuse --no-memory' is the diagnostic ablation",
    "delta_t_via": f"via velocities are stepped by the fixed {kmp.DEFAULT_DELTA_T:g} s",
}


# the keys that take strings; every other key takes numbers, and "1e0" is not one
_STRING_KEYS = ("demos", "aux_frame", "policy", "axis", "relaxed_axis", "frame")


def _holds(value, kind):
    """Whether value is a kind or a list holding one at any depth."""
    if isinstance(value, list):
        return any(_holds(item, kind) for item in value)
    return isinstance(value, kind)


def _section(doc, section, path):
    """doc, once it is a JSON object holding only keys that _KEYS lists for section.

    No key takes true or false, and only _STRING_KEYS take strings, in a list or not;
    a nested object is a section of its own and is checked when it is read.  Unknown
    keys are named first.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: {section} must be a JSON object")
    for key in doc:
        if key not in _KEYS[section]:
            hint = f": {_RETIRED[key]}" if key in _RETIRED else ""
            raise ConfigError(f"{path}: {section}: {key!r} is not a configuration key{hint}")
    for key, value in doc.items():
        if _holds(value, bool):
            raise ConfigError(f"{path}: {section}: {key!r} takes no true or false")
        if key not in _STRING_KEYS and _holds(value, str):
            raise ConfigError(f"{path}: {section}: {key!r} takes JSON numbers, not strings")
    return doc


def _parse_via(doc, path):
    if "t" not in _section(doc, "via_points", path):
        raise ConfigError(f"{path}: via-point entry is missing 't'")
    try:
        if doc.get("rotation") is not None:
            rotation = np.asarray(doc["rotation"], dtype=float).reshape(3, 3)
        elif doc.get("psi") is not None:
            rotation = so3.exp_map(doc["psi"])
        else:
            raise ConfigError(f"{path}: via-point needs 'rotation' or 'psi'")
        omega = doc.get("omega")
        return kmp.ViaPointSpec(
            float(doc["t"]), rotation, np.zeros(3) if omega is None else omega,
            **{key: value for key, value in doc.items()
               if key not in ("t", "rotation", "psi", "omega") and value is not None},
        )
    except (NotARotation, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: via at t={doc['t']}: {exc}") from exc


def load_config(path, seed=None, grid=None):
    """Parse and check a JSON run configuration in one pass; seed and grid override its own."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    version = _section(doc, "top level", path).get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported schema_version {version!r}")
    try:
        return _parse_config(doc, path, seed, grid)
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed value: {exc}") from exc


def _parse_config(doc, path, seed, grid):
    demos = doc.get("demos")
    if not isinstance(demos, list) or not demos:
        raise ConfigError(f"{path}: 'demos' must be a non-empty list of paths")
    demo_paths = [path.parent / p for p in demos]
    gmm_doc = _section(doc.get("gmm", {}), "gmm", path)
    # JSON integers only: 2.9 and "300" are errors, not 2 and 300
    ints = {"gmm.components": gmm_doc.get("components", DEFAULT_COMPONENTS),
            "gmm.seed": gmm_doc.get("seed", 0), "grid": doc.get("grid", 200)}
    for key, value in ints.items():
        if not isinstance(value, int):
            raise ConfigError(f"{path}: {key} must be an integer, got {value!r}")
    components = ints["gmm.components"]
    seed = ints["gmm.seed"] if seed is None else seed
    grid = ints["grid"] if grid is None else grid
    if components < 1 or seed < 0 or not MIN_GRID <= grid <= MAX_GRID:
        raise ConfigError(f"{path}: gmm components must be >= 1, the seed >= 0, and the grid "
                          f"must have at least {MIN_GRID} points and at most {MAX_GRID}; got "
                          f"{components}, {seed} and {grid}")
    kernel_doc = _section(doc.get("kernel", {}), "kernel", path)
    try:
        kernel = kmp.KernelConfig(**{name: float(kernel_doc[key])
                                     for key, name in _KEYS["kernel"].items()
                                     if kernel_doc.get(key) is not None})
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: kernel: {exc}") from exc
    vias = [_parse_via(v, path) for v in doc.get("via_points", [])]
    if np.any(np.diff([v.t for v in vias]) <= kmp.VIA_TIME_TOL):
        raise ConfigError(f"{path}: via-point times must be increasing; two via-points "
                          f"may not share a time (within {kmp.VIA_TIME_TOL:g} s)")
    aux = doc.get("aux_frame", "first-demo-start")
    policy = _section(aux, "aux_frame", path).get("policy") if isinstance(aux, dict) else aux
    aux_rotation = None
    if policy == "explicit":
        aux_rotation = np.asarray(aux.get("rotation"), dtype=float).reshape(3, 3)
        if not so3.is_rotation(aux_rotation):
            raise ConfigError(f"{path}: explicit aux_frame is not a rotation")
    elif policy == "via":
        index = aux.get("index", 0)
        if not (isinstance(index, int) and 0 <= index < len(vias)):
            raise ConfigError(f"{path}: aux_frame via index {index!r} out of range")
        aux_rotation = vias[index].target_rotation()
    elif policy == "per-iovp":
        # the non-interference principle is checked before any computation
        fusion.weight_curves_for(vias[1:])
        if any(via.frame == "aux" for via in vias):
            raise ConfigError(
                f"{path}: per-iovp runs need world-frame via targets (frame=aux is ambiguous)"
            )
    elif policy != "first-demo-start":
        raise ConfigError(f"{path}: unknown aux_frame policy {policy!r}")
    sweep = _section(doc.get("sweep") or {}, "sweep", path)
    sweep_axis, values = sweep.get("axis"), sweep.get("values", [])
    if sweep_axis not in (None, "lambda_a", "target-rotation"):
        raise ConfigError(f"{path}: unknown sweep axis {sweep_axis!r}")
    if sweep_axis is not None and not values:
        raise ConfigError(f"{path}: a {sweep_axis} sweep needs a non-empty list of values")
    if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        raise ConfigError(f"{path}: sweep values must be a list of finite numbers")
    if sweep_axis == "lambda_a" and any(v <= 0 for v in values):
        raise ConfigError(f"{path}: lambda_a sweep values must be positive")
    if sweep_axis == "target-rotation" and not (vias and all(v == int(v) for v in values)):
        raise ConfigError(f"{path}: a target-rotation sweep needs whole-number values and "
                          "a via-point to turn")
    return RunConfig(
        demo_paths=demo_paths,
        components=components,
        seed=seed,
        kernel=kernel,
        grid=grid,
        aux_policy=policy,
        aux_rotation=aux_rotation,
        via_points=vias,
        sweep_axis=sweep_axis,
        sweep_values=values,
    )
