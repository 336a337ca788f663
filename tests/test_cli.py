import json
import re
from pathlib import Path

import numpy as np
import pytest

import orifuse
from orifuse import cli, io, so3
from orifuse.cli import main
from orifuse.demo_gen import generate_demos
from orifuse._kernels import rot_exp_many, rot_log_many


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("demos")
    assert run_cli("gen-demos", "--profile", "s61-like", "--count", "5",
                   "--seed", "0", "--out", path) == 0
    return path


def write_config(path, demo_dir, **overrides):
    doc = {
        "schema_version": 1,
        "demos": [str(demo_dir / f"demo_{i:02d}.csv") for i in range(5)],
        "gmm": {"components": 5, "seed": 0},
        "kernel": {"l": 0.01, "lambda": 1.0},
        "grid": 201,
        "via_points": [
            {"t": 0.0, "psi": [1.2614, 1.0512, 1.5767], "omega": [0, 0, 0]},
            {"t": 4.0, "psi": [1.5456, 1.0304, 2.0608], "omega": [0.1, 0.1, 0.0]},
            {"t": 10.0, "psi": [0.9137, 1.3705, 0.9137], "omega": [0.0, 0.3, 0.3]},
        ],
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc, indent=1))
    return path


def test_gen_demos_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("gen-demos", "--count", "3", "--seed", "9", "--out", out) == 0
    for i in range(3):
        assert (a / f"demo_{i:02d}.csv").read_text() == (b / f"demo_{i:02d}.csv").read_text()


def test_gen_demos_single_axis_profile(tmp_path):
    assert run_cli("gen-demos", "--profile", "single-axis", "--count", "2",
                   "--seed", "1", "--out", tmp_path) == 0
    demo = io.load_demo(tmp_path / "demo_00.csv")
    chart = rot_log_many(np.ascontiguousarray(demo.rotations))
    assert np.abs(chart[:, 1:]).max() < 1e-12


def test_gen_demos_s61_profile_endpoint_spread(demo_dir):
    demos = io.load_demos(sorted(demo_dir.glob("demo_*.csv")))
    starts = np.stack([d.rotations[0] for d in demos])
    goals = np.stack([d.rotations[-1] for d in demos])
    goal_spread = max(
        so3.geodesic_distance(goals[i], goals[j])
        for i in range(5) for j in range(i + 1, 5)
    )
    start_spread = max(
        so3.geodesic_distance(starts[i], starts[j])
        for i in range(5) for j in range(i + 1, 5)
    )
    assert goal_spread < 0.2
    assert start_spread > 0.1


def test_adapt_outputs_and_determinism(tmp_path, demo_dir):
    config = write_config(tmp_path / "config.json", demo_dir)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("adapt", "--config", config, "--out", out1) == 0
    assert run_cli("adapt", "--config", config, "--out", out2) == 0
    assert (out1 / "trajectory.csv").read_text() == (out2 / "trajectory.csv").read_text()
    assert (out1 / "metrics.csv").read_text() == (out2 / "metrics.csv").read_text()
    metrics = dict(
        line.split(",") for line in (out1 / "metrics.csv").read_text().splitlines()[1:]
    )
    assert float(metrics["via1_geodesic_err"]) < 1e-3
    assert float(metrics["via1_omega_err"]) < 1e-3


def test_learn_outputs(tmp_path, demo_dir):
    config = write_config(tmp_path / "config.json", demo_dir, via_points=[])
    out = tmp_path / "learn"
    assert run_cli("learn", "--config", config, "--out", out) == 0
    assert (out / "mixture.json").exists()
    mix = io.load_mixture(out / "mixture.json")
    assert mix.n_components == 5
    traj = io.load_trajectory(out / "trajectory.csv")
    assert len(traj) == 201
    assert np.array_equal(traj.weights, np.ones((201, 1)))  # the single column W_0 = 1


def test_fuse_k0_matches_adapt_bitwise(tmp_path, demo_dir):
    # a fuse run with no IOVPs degenerates to the baseline adaptation, also
    # when the via carries its own acceleration variance
    start = {"t": 0.0, "psi": [1.2614, 1.0512, 1.5767], "omega": [0, 0, 0]}
    cases = [
        ({"l": 0.01, "lambda": 1.0}, start),
        ({"l": 0.01, "lambda": 1.0, "lambda_a": 100.0}, dict(start, acceleration_var=1e-6)),
    ]
    for n, (kernel, via) in enumerate(cases):
        fuse_cfg = write_config(tmp_path / f"fuse{n}.json", demo_dir, kernel=kernel,
                                via_points=[via], aux_frame="per-iovp")
        adapt_cfg = write_config(tmp_path / f"adapt{n}.json", demo_dir, kernel=kernel,
                                 via_points=[via], aux_frame={"policy": "via", "index": 0})
        out_f, out_a = tmp_path / f"f{n}", tmp_path / f"a{n}"
        assert run_cli("fuse", "--config", fuse_cfg, "--out", out_f) == 0
        assert run_cli("adapt", "--config", adapt_cfg, "--out", out_a) == 0
        assert (out_f / "trajectory.csv").read_text() == (out_a / "trajectory.csv").read_text()


def test_exit_codes(tmp_path, demo_dir):
    # config failure
    bad = tmp_path / "bad.json"
    bad.write_text("{\"schema_version\": 99}")
    assert run_cli("adapt", "--config", bad, "--out", tmp_path / "x") == 2
    # parse failure
    broken_demo = tmp_path / "broken.csv"
    broken_demo.write_text("# orifuse-demo v1 dt=0.1 n=1 frame=world rep=matrix\n0,nope,0,0,0,1,0,0,0,1\n")
    cfg = write_config(tmp_path / "cfg.json", demo_dir, demos=[str(broken_demo)])
    assert run_cli("adapt", "--config", cfg, "--out", tmp_path / "x") == 3
    # overlap failure (detected at config load)
    vias = [
        {"t": 0.0, "psi": [1.2614, 1.0512, 1.5767]},
        {"t": 4.0, "psi": [0.7, 1.1, 0.4], "relaxed_axis": "y", "weight_half_width": 2.4},
        {"t": 5.0, "psi": [0.5, 0.9, 0.3], "relaxed_axis": "z", "weight_half_width": 2.4},
    ]
    overlap = write_config(tmp_path / "overlap.json", demo_dir,
                           via_points=vias, aux_frame="per-iovp")
    assert run_cli("fuse", "--config", overlap, "--out", tmp_path / "x") == 5
    # numeric failure: via-point on the chart boundary of the aux frame
    boundary_via = [{"t": 0.0, "psi": [np.pi - 1e-9, 0.0, 0.0], "frame": "aux"}]
    numeric = write_config(tmp_path / "numeric.json", demo_dir, via_points=boundary_via)
    assert run_cli("adapt", "--config", numeric, "--out", tmp_path / "x") == 4


# the documented exit code of every error type the package exports
EXIT_CODES = {
    "OrifuseError": 1,
    "ConfigError": 2,
    "ParseError": 3,
    "InconsistentTiming": 3,
    "NotARotation": 4,
    "SeriesTooShort": 4,
    "DegenerateData": 4,
    "FactorizationFailure": 4,
    "ChartBoundaryError": 4,
    "DomainOverlap": 5,
    "IoError": 6,
}
ERROR_TYPES = [obj for obj in vars(orifuse).values()
               if isinstance(obj, type) and issubclass(obj, orifuse.OrifuseError)]


def documented_exit_codes(text):
    """{code: meaning} of the "Exit codes ...: 0 success, 1 ..." sentence in text."""
    sentence = re.search(r"Exit codes[^:]*:(.*?)\.\s*(?:\n\s*\n|\Z)", text, re.S).group(1)
    items = (" ".join(item.replace("`", "").split()) for item in sentence.split(","))
    return {int(code): meaning for code, meaning in (item.split(" ", 1) for item in items)}


def test_every_exported_error_has_a_documented_exit_code():
    assert sorted(cls.__name__ for cls in ERROR_TYPES) == sorted(EXIT_CODES)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    documented = documented_exit_codes(readme)
    assert documented == documented_exit_codes(cli.__doc__)
    assert set(documented) == {0} | set(EXIT_CODES.values())


@pytest.mark.parametrize("error", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_each_error_type_exits_with_its_code(monkeypatch, capsys, error):
    def fail(args):
        raise error("injected")

    monkeypatch.setattr(cli, "_cmd_adapt", fail)
    assert run_cli("adapt", "--config", "run.json", "--out", "out") == EXIT_CODES[error.__name__]
    assert "injected" in capsys.readouterr().err


def test_demo_header_dt_must_match_its_rows(tmp_path, demo_dir, capsys):
    # a demo whose header claims ten times its row step is a parse error on line 1
    lines = (demo_dir / "demo_00.csv").read_text().splitlines()
    dt = next(tok for tok in lines[0].split() if tok.startswith("dt="))
    demo = tmp_path / "demo.csv"
    demo.write_text("\n".join([lines[0].replace(dt, "dt=0.5")] + lines[1:]) + "\n")
    cfg = write_config(tmp_path / "cfg.json", demo_dir,
                       demos=[str(demo), str(demo_dir / "demo_01.csv")])
    assert run_cli("adapt", "--config", cfg, "--out", tmp_path / "out") == 3
    assert f"{demo}:1: header says dt=0.5" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [("rep=matrix", "rep=euler"),
                                      ("frame=world", "frame=body")])
def test_demo_header_rep_and_frame_must_be_known(tmp_path, demo_dir, capsys, old, new):
    # a rep or frame the loader cannot honour is a parse error on line 1, not a matrix
    # file in the world frame
    lines = (demo_dir / "demo_00.csv").read_text().splitlines()
    assert old in lines[0]
    demo = tmp_path / "demo.csv"
    demo.write_text("\n".join([lines[0].replace(old, new)] + lines[1:]) + "\n")
    cfg = write_config(tmp_path / "cfg.json", demo_dir,
                       demos=[str(demo), str(demo_dir / "demo_01.csv")])
    assert run_cli("adapt", "--config", cfg, "--out", tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert f"{demo}:1: header says" in err and new in err


def test_sweep_empty_values(tmp_path, demo_dir, capsys):
    # a sweep axis without values, or no axis, is a configuration error, not a header-only
    # table; it is found before the demonstrations load and the output directory is made
    missing_demo = [str(tmp_path / "missing.csv")]
    for n, (sweep, message) in enumerate([
            ({"axis": "lambda_a", "values": []}, "needs a non-empty list of values"),
            ({"axis": "lambda_a"}, "needs a non-empty list of values"),
            (None, "config has no sweep axis")]):
        cfg = write_config(tmp_path / f"cfg{n}.json", demo_dir, demos=missing_demo, sweep=sweep)
        out = tmp_path / f"sweep{n}"
        assert run_cli("sweep", "--config", cfg, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_sweep_lambda_a_cost_column_non_increasing(tmp_path, demo_dir):
    vias = [
        {"t": 0.0, "psi": [1.2614, 1.0512, 1.5767], "omega": [0, 0, 0],
         "velocity_var": 1e3},
        {"t": 5.0, "psi": [1.7639, 0.7560, 2.0159], "omega": [0.1, 0, 0],
         "velocity_var": 1e3},
        {"t": 10.0, "psi": [0.7935, 1.3224, 0.0], "omega": [-0.1, 0, 0],
         "velocity_var": 1e3},
    ]
    cfg = write_config(tmp_path / "cfg.json", demo_dir, via_points=vias,
                       grid=501, sweep={"axis": "lambda_a", "values": [10.0, 1e3, 1e5]})
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", cfg, "--out", out, "--jobs", "2") == 0
    lines = (out / "table.csv").read_text().splitlines()[2:]
    rows = [line.split(",") for line in lines]
    assert [float(r[0]) for r in rows] == [10.0, 1e3, 1e5]  # assembled in trial order
    costs = [float(r[1]) for r in rows]
    assert costs[0] >= costs[1] >= costs[2]


_PSI3 = np.array([0.0, 2.2214, -2.2214])
# the baseline and the three IOVPs of the acceptance fusion protocol; the last
# target lies on the pi-shell
IOVP_VIAS = [
    {"t": 0.0, "psi": [1.2614, 1.0512, 1.5767], "omega": [0, 0, 0]},
    {"t": 4.0, "psi": [0.7028, 1.1713, 0.4685], "omega": [0.0069, 0.2103, 0.2138],
     "relaxed_axis": "y"},
    {"t": 7.0, "psi": [-0.5236, 0.0, 0.0], "omega": [0.0, 0.15, 0.2598],
     "relaxed_axis": "z"},
    {"t": 10.0, "psi": (_PSI3 / np.linalg.norm(_PSI3) * np.pi).tolist(), "omega": [0, 0, 0],
     "relaxed_axis": "y"},
]


def test_eval_compares_relaxed_and_strict(tmp_path, demo_dir):
    cfg = write_config(tmp_path / "cfg.json", demo_dir, via_points=IOVP_VIAS,
                       aux_frame="per-iovp", grid=1001)
    out = tmp_path / "eval"
    assert run_cli("eval", "--config", cfg, "--out", out) == 0
    lines = (out / "table.csv").read_text().splitlines()
    header = lines[1].split(",")
    row = dict(zip(header, map(float, lines[2].split(","))))
    assert row["cost_iovp"] <= row["cost_strict"]
    assert row["max_axis_err"] < 1e-2
    assert (out / "trajectory_iovp.csv").exists()
    assert (out / "trajectory_strict.csv").exists()


def test_seed_override_lands_in_the_config(tmp_path, demo_dir):
    config = write_config(tmp_path / "config.json", demo_dir, via_points=[])
    seeded = write_config(tmp_path / "seeded.json", demo_dir, via_points=[],
                          gmm={"components": 5, "seed": 123})
    out1, out2 = tmp_path / "flag", tmp_path / "config"
    assert run_cli("learn", "--config", config, "--seed", "123", "--out", out1) == 0
    assert run_cli("learn", "--config", seeded, "--out", out2) == 0
    for name in ("mixture.json", "trajectory.csv", "metrics.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


FUSE_VIAS = [
    {"t": 0.0, "psi": [1.2614, 1.0512, 1.5767], "omega": [0, 0, 0]},
    {"t": 4.0, "psi": [0.7028, 1.1713, 0.4685], "omega": [0.0069, 0.2103, 0.2138],
     "relaxed_axis": "y"},
]


def fuse_exit_code(tmp_path, demo_dir, capsys, **via_overrides):
    vias = [FUSE_VIAS[0], dict(FUSE_VIAS[1], **via_overrides)]
    cfg = write_config(tmp_path / "fuse.json", demo_dir, via_points=vias, aux_frame="per-iovp")
    code = run_cli("fuse", "--config", cfg, "--out", tmp_path / "out")
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command, overrides, key, section", [
    ("adapt", {"grdi": 301}, "grdi", "top level"),
    ("adapt", {"gmm": {"component": 3, "seed": 0}}, "component", "gmm"),
    ("adapt", {"kernel": {"l": 0.01, "lamda": 10.0}}, "lamda", "kernel"),
    ("adapt", {"aux_frame": {"policy": "via", "indx": 1}}, "indx", "aux_frame"),
    ("sweep", {"sweep": {"axis": "lambda_a", "value": [10.0]}}, "value", "sweep"),
    ("fuse", {"aux_frame": "per-iovp", "via_points": [
        FUSE_VIAS[0], {"t": 4.0, "psi": [0.7028, 1.1713, 0.4685], "relaxed_axes": "y"}]},
     "relaxed_axes", "via_points"),
])
def test_unknown_key_names_itself_and_its_section(tmp_path, demo_dir, capsys, command,
                                                  overrides, key, section):
    # each typo would otherwise fall back to a default: a strict via, the default
    # lambda, 5 components, a 200-point grid, the chart at via 0, a sweep with no trials
    cfg = write_config(tmp_path / "cfg.json", demo_dir, **overrides)
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", out) == 2
    assert f"{section}: '{key}' is not a configuration key" in capsys.readouterr().err
    assert not out.exists()


def test_huge_sweep_value_is_a_config_error(tmp_path, demo_dir, capsys):
    cfg = write_config(tmp_path / "cfg.json", demo_dir,
                       sweep={"axis": "lambda_a", "values": [10.0, 10**400]})
    assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "too large" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [1e200, -1e300])
def test_a_huge_whole_target_rotation_step_is_a_config_error(tmp_path, demo_dir, capsys, value):
    # whole, but its turn (i - 6) pi / 6 would overflow rot_exp's squared angle
    cfg = readme_fusion_config(tmp_path, demo_dir,
                               sweep={"axis": "target-rotation", "values": [value]})
    assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "sweep.values: a target-rotation sweep needs whole-number values of at most 2**53" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below", ["", "sub"])
@pytest.mark.parametrize("command", ["adapt", "gen-demos"])
def test_an_output_path_on_a_file_exits_6_and_names_it(tmp_path, demo_dir, capsys, command,
                                                        below):
    # --out naming an existing file, or a path below one, cannot be made a directory
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / below
    argv = ["gen-demos", "--count", "1", "--samples", "3", "--out", out]
    if command == "adapt":
        argv = ["adapt", "--config", write_config(tmp_path / "cfg.json", demo_dir), "--out", out]
    assert run_cli(*argv) == 6
    assert f"cannot make the output directory {out}" in capsys.readouterr().err


@pytest.mark.parametrize("kind, code", [("config", 2), ("demo", 3)])
def test_a_file_that_is_not_utf8_names_itself(tmp_path, demo_dir, capsys, kind, code):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe{")
    cfg = bad if kind == "config" else write_config(tmp_path / "cfg.json", demo_dir,
                                                    demos=[str(bad)])
    assert run_cli("adapt", "--config", cfg, "--out", tmp_path / "out") == code
    err = capsys.readouterr().err
    assert str(bad) in err and "can't decode byte 0xff" in err
    assert not (tmp_path / "out").exists()


def test_target_rotation_step_6_is_the_eval_row(tmp_path, demo_dir):
    # step i turns the last via's target by (i - 6) pi / 6, so step 6 leaves it as it is
    cfg = write_config(tmp_path / "cfg.json", demo_dir, via_points=IOVP_VIAS,
                       aux_frame="per-iovp", sweep={"axis": "target-rotation", "values": [6, 0]})
    assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "sweep", "--grid", 201) == 0
    assert run_cli("eval", "--config", cfg, "--out", tmp_path / "eval", "--grid", 201) == 0
    sweep = (tmp_path / "sweep" / "table.csv").read_text().splitlines()
    header, row = (tmp_path / "eval" / "table.csv").read_text().splitlines()[1:]
    assert sweep[1:3] == ["i," + header, "6," + row]
    assert sweep[3].startswith("0,") and sweep[3] != "0," + row


def readme_config(tmp_path, demo_dir, example, name, **overrides):
    """The README's JSON example after the text example on the demo_dir demonstrations."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    doc = json.loads(readme.split(example)[1].split("```json\n")[1].split("```")[0])
    doc["demos"] = [str(demo_dir / Path(path).name) for path in doc["demos"]]
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def readme_fusion_config(tmp_path, demo_dir, name="fuse.json", **overrides):
    """The README's per-iovp example on the demo_dir demonstrations, with overrides."""
    return readme_config(tmp_path, demo_dir, "A per-iovp fusion configuration", name,
                         **overrides)


@pytest.mark.parametrize("lam", [1e-8, 1e-9, 1e-12, 1e-16])
def test_a_tiny_ridge_factor_still_meets_the_strict_via(tmp_path, demo_dir, lam):
    # on the README run configuration the weight-space solve keeps its strict via and a
    # calm trajectory down to lambda 1e-16 (via error 4.1e-5 to 4.8e-5 rad, acceleration
    # cost 0.47 to 0.48); the dense solve missed the via by 3.9e-2 rad at lambda 1e-8,
    # with an acceleration cost of 4.0, and could not factor at 1e-9
    config = readme_config(tmp_path, demo_dir, "A run configuration is JSON", "run.json",
                           kernel={"l": 0.01, "lambda": lam})
    assert run_cli("adapt", "--config", config, "--out", tmp_path / "out") == 0
    metrics = dict(line.split(",") for line in
                   (tmp_path / "out" / "metrics.csv").read_text().splitlines()[1:])
    assert float(metrics["via0_geodesic_err"]) < 1e-3
    assert float(metrics["acceleration_cost"]) < 1.0


@pytest.mark.parametrize("l, lambda_a, code", [(1.7e308, None, 2), (1e154, None, 2),
                                               (1e77, 100.0, 2), (1e74, None, 2),
                                               (1e73, 100.0, 0)])
def test_a_kernel_too_narrow_for_the_demonstrations_exits_2_and_names_l(
        tmp_path, demo_dir, capsys, l, lambda_a, code):
    # the README per-iovp example at grid 30: l times the squared time differences of the
    # 10 s demonstrations overflowed in the kernel's derivative table, with a RuntimeWarning,
    # before any check named l; the bound is 4.1e76 on l x 30^2, so 1e73 still runs
    kernel = {"l": l, "lambda": 1.0} if lambda_a is None else {
        "l": l, "lambda": 1.0, "lambda_a": lambda_a}
    cfg = readme_fusion_config(tmp_path, demo_dir, kernel=kernel)
    assert run_cli("fuse", "--config", cfg, "--out", tmp_path / "out", "--grid", 30) == code
    assert (f"kernel.l {l:g} is too large" in capsys.readouterr().err) == (code == 2)
    assert (tmp_path / "out").exists() == (code == 0)


def test_demonstrations_whose_squared_chart_velocities_overflow_exit_4(tmp_path, capsys):
    # a sampling step of about 1.7e-157 s makes psi_dot reach 1.8e154 rad/s: its square
    # overflowed in the k-means++ seeding, which then drew from NaN probabilities
    paths = []
    for i, demo in enumerate(generate_demos("s61-like", 3, 0, samples=60)):
        paths.append(tmp_path / f"demo_{i}.csv")
        io.save_demo(paths[-1], orifuse.Demonstration(demo.times * 1e-155, demo.rotations))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "demos": [str(p) for p in paths],
        "gmm": {"components": 3, "seed": 0}, "kernel": {"l": 1.0, "lambda": 1.0},
        "grid": 30, "via_points": [], "aux_frame": "first-demo-start",
    }))
    assert run_cli("learn", "--config", cfg, "--out", tmp_path / "out") == 4
    assert "squared deviations of the rows overflow" in capsys.readouterr().err


def readme_target_sweep(tmp_path, demo_dir):
    """The README's per-iovp example as a target-rotation sweep over steps 5, 6 and 7."""
    return readme_fusion_config(tmp_path, demo_dir, "sweep.json",
                                sweep={"axis": "target-rotation", "values": [5, 6, 7]})


def count_calls(monkeypatch, module, name):
    """A list that gains one entry per call of module.name."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def builds(monkeypatch):
    """One entry per kmp.build_model call, that is per regression built."""
    from orifuse import kmp

    return count_calls(monkeypatch, kmp, "build_model")


@pytest.fixture
def fits(monkeypatch):
    """One entry per gmm.fit_gmm call, that is per mixture fitted."""
    from orifuse import gmm

    return count_calls(monkeypatch, gmm, "fit_gmm")


def test_target_sweep_builds_each_distinct_regression_once(tmp_path, demo_dir, builds):
    # the baseline (strict already) and both forms of IOVPs 1 and 2 are built once before
    # the trials; each of the 3 trials builds both forms of its turned IOVP 3
    cfg = readme_target_sweep(tmp_path, demo_dir)
    for jobs in (1, 2):
        builds.clear()
        assert run_cli("sweep", "--config", cfg, "--out", tmp_path / f"sweep{jobs}",
                       "--jobs", jobs) == 0
        assert len(builds) == 5 + 3 * 2, jobs


@pytest.fixture
def solves(monkeypatch):
    """The lambda_a of every kmp.RowFactor.solve call, that is of every stage 2 of a build."""
    from orifuse import kmp

    calls = []
    original = kmp.RowFactor.solve

    def counting(self, lambda_a):
        calls.append(lambda_a)
        return original(self, lambda_a)

    monkeypatch.setattr(kmp.RowFactor, "solve", counting)
    return calls


def test_lambda_sweep_fits_its_mixture_once_and_builds_one_model_per_value(
        tmp_path, demo_dir, monkeypatch, solves, fits):
    # the one chart's mixture and the first value's model are built before the trials,
    # whatever --jobs is: one stage 1, and one stage 2 per value, the other values' in
    # their trials
    from orifuse import kmp

    factors = count_calls(monkeypatch, kmp, "factor_rows")
    cfg = write_config(tmp_path / "cfg.json", demo_dir,
                       sweep={"axis": "lambda_a", "values": [10.0, 1e3, 1e5]})
    for jobs in (1, 2):
        for calls in (solves, fits, factors):
            calls.clear()
        assert run_cli("sweep", "--config", cfg, "--out", tmp_path / f"sweep{jobs}",
                       "--grid", 201, "--jobs", jobs) == 0
        assert (len(fits), len(factors), len(solves)) == (1, 1, 3), jobs


def test_eval_builds_the_baseline_component_once(tmp_path, demo_dir, builds):
    # 4 relaxed components and the strict forms of the 3 IOVPs: the baseline has no
    # relaxed axis, so its one component serves both fusions
    cfg = readme_fusion_config(tmp_path, demo_dir)
    assert run_cli("eval", "--config", cfg, "--out", tmp_path / "eval") == 0
    assert len(builds) == 7


def sweep_rows_are_turned_eval_rows(tmp_path, cfg, builds):
    """Check each target-rotation sweep row against eval on its turned config.

    Step i turns the last via by (i - 6) pi / 6 about its y axis, so the row
    must equal, cell for cell, the eval row of the config whose last via has
    the product as its rotation.  Returns the sweep's build count.
    """
    builds.clear()
    assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "sweep") == 0
    sweep_builds = len(builds)
    rows = (tmp_path / "sweep" / "table.csv").read_text().splitlines()[2:]
    doc = json.loads(cfg.read_text())
    values = doc.pop("sweep")["values"]
    last = doc["via_points"][-1]
    target = so3.exp_map(last.pop("psi"))
    for row, i in zip(rows, values, strict=True):
        turn = so3.exp_map([0.0, (i - 6) * np.pi / 6.0, 0.0])
        doc["via_points"][-1] = dict(last, rotation=(target @ turn).tolist())
        turned = tmp_path / f"turned_{i}.json"
        turned.write_text(json.dumps(doc))
        assert run_cli("eval", "--config", turned, "--out", tmp_path / f"eval_{i}") == 0
        assert row == f"{i}," + (tmp_path / f"eval_{i}" / "table.csv").read_text().splitlines()[2]
    return sweep_builds


def test_target_sweep_rows_are_eval_rows_of_the_turned_config(tmp_path, demo_dir, builds):
    assert sweep_rows_are_turned_eval_rows(
        tmp_path, readme_target_sweep(tmp_path, demo_dir), builds) == 11


def test_one_via_target_sweep_turns_the_baseline(tmp_path, demo_dir, builds):
    # nothing is fixed and the turned via is the baseline: one component per trial, and
    # no run at the first demonstration's start
    readme = json.loads(readme_fusion_config(tmp_path, demo_dir).read_text())
    cfg = readme_fusion_config(tmp_path, demo_dir, "one.json",
                               via_points=readme["via_points"][:1],
                               sweep={"axis": "target-rotation", "values": [5, 7]})
    assert sweep_rows_are_turned_eval_rows(tmp_path, cfg, builds) == 2


def test_relaxed_via_needs_eps_strict_below_eps_loose(tmp_path, demo_dir, capsys):
    code, err = fuse_exit_code(tmp_path, demo_dir, capsys, eps_strict=1e3, eps_loose=1e3)
    assert code == 2
    assert "eps_strict < eps_loose" in err


def test_zero_weight_half_width_is_a_config_error(tmp_path, demo_dir, capsys):
    code, err = fuse_exit_code(tmp_path, demo_dir, capsys, weight_half_width=0)
    assert code == 2
    assert "weight_half_width" in err


def test_grid_override_is_validated(tmp_path, demo_dir, capsys):
    cfg = write_config(tmp_path / "fuse.json", demo_dir, via_points=FUSE_VIAS,
                       aux_frame="per-iovp")
    assert run_cli("fuse", "--config", cfg, "--out", tmp_path / "out", "--grid", "1") == 2
    assert "grid must have at least 3 points" in capsys.readouterr().err


PER_IOVP = {"via_points": FUSE_VIAS, "aux_frame": "per-iovp"}


@pytest.mark.parametrize("command, overrides", [
    ("learn", {}), ("adapt", {}), ("fuse", PER_IOVP), ("eval", PER_IOVP),
    ("sweep", {"sweep": {"axis": "lambda_a", "values": [10.0]}}),
])
def test_a_grid_of_two_exits_at_load(tmp_path, demo_dir, capsys, command, overrides):
    # the acceleration cost every command reports needs three samples; a grid of two
    # exits 2 before the output directory is made, not 4 after learn or fuse wrote files
    cfg = write_config(tmp_path / "cfg.json", demo_dir, **overrides)
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", out, "--grid", 2) == 2
    assert "grid must have at least 3 points" in capsys.readouterr().err
    assert not out.exists()


def test_grid_has_an_upper_limit(tmp_path, demo_dir, capsys):
    # a grid beyond io.MAX_GRID exits 2 at load, from the config and from --grid alike
    huge = write_config(tmp_path / "huge.json", demo_dir, grid=10**400)
    assert run_cli("adapt", "--config", huge, "--out", tmp_path / "a") == 2
    assert "at most 1000000" in capsys.readouterr().err
    cfg = write_config(tmp_path / "cfg.json", demo_dir)
    assert run_cli("adapt", "--config", cfg, "--out", tmp_path / "b", "--grid", 10**400) == 2
    assert "at most 1000000" in capsys.readouterr().err


def test_lambda_sweep_rows_are_adapt_metrics_at_each_value(tmp_path, demo_dir):
    # a trial solves stage 2 from the factor of the first value's model, adapt builds its
    # own: each row must equal, cell for cell, the adapt metrics at its lambda_a.  The via
    # at t = 4 has its own acceleration variance 1/10, the default's at the first value,
    # and must keep it at the others
    values = [10.0, 1e3, 1e5]
    doc = json.loads(write_config(tmp_path / "base.json", demo_dir).read_text())
    doc["via_points"][1]["acceleration_var"] = 0.1
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(dict(doc, sweep={"axis": "lambda_a", "values": values})))
    assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "sweep") == 0
    rows = (tmp_path / "sweep" / "table.csv").read_text().splitlines()[2:]
    for row, value in zip(rows, values, strict=True):
        doc["kernel"]["lambda_a"] = value
        adapt = tmp_path / f"adapt_{value:g}.json"
        adapt.write_text(json.dumps(doc))
        assert run_cli("adapt", "--config", adapt, "--out", tmp_path / f"adapt_{value:g}") == 0
        lines = (tmp_path / f"adapt_{value:g}" / "metrics.csv").read_text().splitlines()[1:]
        metrics = dict(line.split(",") for line in lines)
        errors = [float(v) for k, v in metrics.items() if k.endswith("_geodesic_err")]
        lam_a, cost, max_err = row.split(",")
        assert float(lam_a) == value
        assert cost == metrics["acceleration_cost"]
        assert float(max_err) == max(errors)


@pytest.mark.parametrize("lam, values, message", [
    (1e10, [1.0, 1e-300], r"kernel.lambda 1e\+10 times the largest row covariance entry "
                          r"\(1e\+300\) overflows"),
    (1e-300, [1.0, 1e30], "lambda[*]Sigma of the row at t=0 is not positive definite"),
])
def test_a_lambda_sweep_value_without_a_factor_exits_4(tmp_path, demo_dir, capsys, lam,
                                                       values, message):
    # the first value factors; at the second, lambda / lambda_a of the default
    # acceleration rows overflows or rounds to 0, which the trial's stage 2 reports
    cfg = write_config(tmp_path / "cfg.json", demo_dir, kernel={"l": 0.01, "lambda": lam},
                       sweep={"axis": "lambda_a", "values": values})
    assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "sweep") == 4
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "sweep" / "table.csv").exists()


def test_sweep_runs_each_trial_once(tmp_path, demo_dir, solves):
    cfg = write_config(tmp_path / "cfg.json", demo_dir,
                       sweep={"axis": "lambda_a", "values": [10.0, 1e3, 1e5]})
    assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "sweep", "--jobs", "2") == 0
    assert sorted(solves) == [10.0, 1e3, 1e5]
    rows = (tmp_path / "sweep" / "table.csv").read_text().splitlines()[2:]
    assert [float(r.split(",")[0]) for r in rows] == [10.0, 1e3, 1e5]


def test_sweep_needs_a_positive_job_count(tmp_path, demo_dir, capsys):
    cfg = write_config(tmp_path / "cfg.json", demo_dir,
                       sweep={"axis": "lambda_a", "values": [10.0]})
    assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "sweep", "--jobs", "0") == 2
    assert "at least one job" in capsys.readouterr().err
    assert not (tmp_path / "sweep" / "table.csv").exists()


@pytest.mark.parametrize("command, aux_frame, sweep", [
    ("fuse", "first-demo-start", None),
    ("eval", "first-demo-start", None),
    ("sweep", "first-demo-start", {"axis": "target-rotation", "values": [0]}),
    ("learn", "per-iovp", None),
    ("adapt", "per-iovp", None),
    ("sweep", "per-iovp", {"axis": "lambda_a", "values": [10.0]}),
])
def test_each_command_needs_its_chart_policy(tmp_path, demo_dir, command, aux_frame, sweep):
    # fuse, eval and target-rotation sweeps take one chart per via; the rest one chart
    cfg = write_config(tmp_path / "cfg.json", demo_dir, aux_frame=aux_frame, sweep=sweep)
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", out) == 2
    assert not list(out.glob("*"))


def test_an_unused_sweep_section_does_not_pick_the_chart(tmp_path, demo_dir):
    cfg = write_config(tmp_path / "cfg.json", demo_dir,
                       sweep={"axis": "target-rotation", "values": [0]})
    assert run_cli("adapt", "--config", cfg, "--out", tmp_path / "out") == 0


def test_sweep_table_does_not_depend_on_the_job_count(tmp_path, demo_dir):
    # every trial runs on the pool: the lambda_a trials share the mixture fitted before
    # them, the target-rotation ones the components of the vias that do not turn
    lambda_cfg = write_config(tmp_path / "cfg.json", demo_dir,
                              sweep={"axis": "lambda_a", "values": [10.0, 1e3, 1e5]})
    for name, cfg in (("lambda", lambda_cfg), ("target", readme_target_sweep(tmp_path, demo_dir))):
        for jobs in (1, 2):
            assert run_cli("sweep", "--config", cfg, "--out", tmp_path / f"{name}{jobs}",
                           "--grid", 201, "--jobs", jobs) == 0
        assert (tmp_path / f"{name}1" / "table.csv").read_bytes() == \
            (tmp_path / f"{name}2" / "table.csv").read_bytes()


def test_lambda_sweep_groups_do_not_change_the_table(tmp_path, demo_dir, monkeypatch):
    # groups of at most 1, 2 and 3 values on a 201-point grid against one group of all 5
    # (one job): at one and two jobs, every table must have the same bytes
    cfg = write_config(tmp_path / "cfg.json", demo_dir,
                       sweep={"axis": "lambda_a", "values": [10.0, 1e3, 1e5, 1.0, 1e2]})
    assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "all", "--grid", 201,
                   "--jobs", 1) == 0
    expected = (tmp_path / "all" / "table.csv").read_bytes()
    for size in (1, 2, 3):
        monkeypatch.setattr(cli, "LAMBDA_GROUP_ROWS", 201 * size)
        for jobs in (1, 2):
            out = tmp_path / f"groups{size}_jobs{jobs}"
            assert run_cli("sweep", "--config", cfg, "--out", out, "--grid", 201,
                           "--jobs", jobs) == 0
            assert (out / "table.csv").read_bytes() == expected, (size, jobs)


def test_via_errors_are_the_geodesic_distances_bitwise(tmp_path, demo_dir):
    cfg = io.load_config(write_config(tmp_path / "cfg.json", demo_dir))
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 10.0, 201)
    traj = orifuse.OrientationTrajectory(times, rot_exp_many(rng.normal(size=(201, 3))),
                                         rng.normal(size=(201, 3)))
    errors = cli._via_errors(cfg, traj)
    assert len(errors) == len(cfg.via_points)
    for (rot_err, omega_err), via in zip(errors, cfg.via_points):
        i = int(np.argmin(np.abs(times - via.t)))
        assert rot_err == so3.geodesic_distance(traj.rotations[i],
                                                via.target_rotation(cfg.aux_rotation))
        assert omega_err == float(np.linalg.norm(traj.omega_world[i] - via.omega))


def test_acceleration_block_needs_lambda_a(tmp_path, demo_dir, capsys):
    start = {"t": 0.0, "psi": [1.2614, 1.0512, 1.5767], "omega": [0, 0, 0]}
    cfg = write_config(tmp_path / "cfg.json", demo_dir,
                       via_points=[dict(start, acceleration_var=1e-6)])
    assert run_cli("adapt", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "no lambda_a" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ("--count", "0"),
    ("--samples", "1"),
    ("--duration", "0"),
    ("--duration", "-1"),
    ("--duration", "nan"),
    ("--seed", "-1"),
    ("--duration", "inf"),
])
def test_gen_demos_rejects_values_it_cannot_use(tmp_path, capsys, flags):
    assert run_cli("gen-demos", "--out", tmp_path, *flags) == 2
    assert "gen-demos needs" in capsys.readouterr().err
    assert not list(tmp_path.glob("demo_*.csv"))


def test_aux_frame_forms(tmp_path, demo_dir, capsys):
    doc = json.loads(write_config(tmp_path / "x.json", demo_dir).read_text())
    for k in range(3):
        via_cfg = write_config(tmp_path / f"via{k}.json", demo_dir,
                               aux_frame={"policy": "via", "index": k})
        target = so3.exp_map(doc["via_points"][k]["psi"])
        assert np.array_equal(io.load_config(via_cfg).aux_rotation, target)
    # the via-anchored chart is the explicit chart at that via's world target
    explicit = write_config(tmp_path / "explicit.json", demo_dir,
                            aux_frame={"policy": "explicit", "rotation": target.tolist()})
    for cfg, out in [(via_cfg, "v"), (explicit, "e")]:
        assert run_cli("adapt", "--config", cfg, "--out", tmp_path / out) == 0
    assert (tmp_path / "v" / "trajectory.csv").read_bytes() == \
        (tmp_path / "e" / "trajectory.csv").read_bytes()
    cfg = io.load_config(write_config(tmp_path / "first.json", demo_dir,
                                      aux_frame={"policy": "first-demo-start"}))
    assert cfg.aux_policy == "first-demo-start" and cfg.aux_rotation is None
    for name, overrides in [("index", {"aux_frame": {"policy": "via", "index": 3}}),
                            ("negative", {"aux_frame": {"policy": "via", "index": -1}}),
                            ("memory", {"memory": False})]:
        cfg = write_config(tmp_path / f"{name}.json", demo_dir, **overrides)
        assert run_cli("adapt", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "--no-memory" in capsys.readouterr().err


def test_via_points_may_not_share_a_time(tmp_path, demo_dir, capsys):
    # the second via would replace the first one's regression row
    first = {"t": 5.0, "psi": [1.7639, 0.7560, 2.0159], "omega": [0.1, 0.0, 0.0]}
    second = {"t": 5.0, "psi": [0.7935, 1.3224, 0.0], "omega": [-0.1, 0.0, 0.0]}
    for n, t in enumerate([5.0, 5.0 + 0.5e-9]):
        cfg = write_config(tmp_path / f"cfg{n}.json", demo_dir,
                           via_points=[first, dict(second, t=t)])
        assert run_cli("adapt", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "may not share a time" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_non_finite_via_time_is_a_config_error(tmp_path, demo_dir, capsys):
    vias = [{"t": 0.0, "psi": [1.2614, 1.0512, 1.5767]},
            {"t": float("inf"), "psi": [0.9137, 1.3705, 0.9137]}]
    cfg = write_config(tmp_path / "cfg.json", demo_dir, via_points=vias)
    assert run_cli("adapt", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "via at t=inf: t must be finite" in capsys.readouterr().err


def test_delta_t_via_is_not_a_config_key(tmp_path, demo_dir, capsys):
    cfg = write_config(tmp_path / "cfg.json", demo_dir, delta_t_via=1e-3)
    assert run_cli("adapt", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "'delta_t_via' is not a configuration key" in capsys.readouterr().err
