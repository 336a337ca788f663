import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orifuse import cli, gmm, io, kmp, pipeline, so3
from orifuse._kernels import rot_exp_many
from orifuse.demo_gen import generate_demos
from orifuse.errors import (
    ConfigError,
    DomainOverlap,
    InconsistentTiming,
    NotARotation,
    OrifuseError,
    ParseError,
)


@pytest.fixture()
def demo():
    return generate_demos("s61-like", 1, seed=4)[0]


def test_demo_roundtrip_bitwise(tmp_path, demo):
    path = tmp_path / "demo.csv"
    io.save_demo(path, demo)
    text = path.read_text()
    loaded = io.load_demo(path)
    assert np.array_equal(loaded.times, demo.times)
    assert np.array_equal(loaded.rotations, demo.rotations)
    io.save_demo(path, loaded)
    assert path.read_text() == text  # canonical form is a fixed point


def test_demo_with_positions_roundtrip(tmp_path, demo):
    rng = np.random.default_rng(0)
    with_pos = gmm.Demonstration(demo.times, demo.rotations, rng.normal(size=(len(demo), 3)))
    path = tmp_path / "demo.csv"
    io.save_demo(path, with_pos)
    loaded = io.load_demo(path)
    assert loaded.positions is not None
    assert np.array_equal(loaded.positions, with_pos.positions)


def test_reflection_rejected_with_row_index(tmp_path):
    lines = [
        "# orifuse-demo v1 dt=0.1 n=2 frame=world rep=matrix",
        "0,1,0,0,0,1,0,0,0,1",
        "0.1,1,0,0,0,1,0,0,0,-1",  # det = -1
    ]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NotARotation, match="row 1"):
        io.load_demo(path)


def test_parse_error_carries_location(tmp_path):
    lines = [
        "# orifuse-demo v1 dt=0.1 n=2 frame=world rep=matrix",
        "0,1,0,0,0,1,0,0,0,1",
        "0.1,1,0,oops,0,1,0,0,0,1",
    ]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        io.load_demo(path)
    assert err.value.line == 3
    assert err.value.column == 4


def test_reorthonormalize_flag(tmp_path, demo):
    noisy = demo.rotations.copy()
    noisy[3] += 1e-6  # beyond the 1e-8 tolerance
    path = tmp_path / "noisy.csv"
    rows = ["# orifuse-demo v1 dt=0.05 n=%d frame=world rep=matrix" % len(demo)]
    for t, R in zip(demo.times, noisy):
        rows.append(",".join([format(t, ".17g")] + [format(v, ".17g") for v in R.ravel()]))
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(NotARotation):
        io.load_demo(path)
    fixed = io.load_demo(path, reorthonormalize=True)
    assert so3.is_rotation(fixed.rotations[3], tol=1e-12)


def test_quaternion_demo_input(tmp_path):
    # wxyz quaternion rows are converted on load
    angle, axis = 0.8, np.array([0.0, 0.0, 1.0])
    q = [np.cos(angle / 2), 0.0, 0.0, np.sin(angle / 2)]
    lines = [
        "# orifuse-demo v1 dt=0.1 n=2 frame=world rep=quat",
        "0,1,0,0,0",
        "0.1," + ",".join(format(v, ".17g") for v in q),
    ]
    path = tmp_path / "quat.csv"
    path.write_text("\n".join(lines) + "\n")
    loaded = io.load_demo(path)
    assert so3.geodesic_distance(loaded.rotations[1], so3.exp_map(angle * axis)) < 1e-12


def _demo_lines(tmp_path, demo):
    io.save_demo(tmp_path / "demo.csv", demo)
    return (tmp_path / "demo.csv").read_text().splitlines()


def test_uneven_sampling_is_a_parse_error(tmp_path, demo):
    # a deleted row leaves one doubled step; the row after the gap is named
    lines = _demo_lines(tmp_path, demo)
    del lines[51]
    lines[0] = lines[0].replace(f"n={len(demo)}", f"n={len(demo) - 1}")
    path = tmp_path / "gap.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="row 50: timestamps must increase in even steps"):
        io.load_demo(path)


def test_header_row_count_must_match(tmp_path, demo):
    lines = _demo_lines(tmp_path, demo)
    path = tmp_path / "short.csv"
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ParseError, match=f"n={len(demo)} but the file has {len(demo) - 1} rows"):
        io.load_demo(path)


def test_header_dt_must_match_the_rows(tmp_path, demo):
    # the rows are 0.05 s apart; a header dt= that says otherwise is a parse error on line 1
    lines = _demo_lines(tmp_path, demo)
    dt = next(tok for tok in lines[0].split() if tok.startswith("dt="))
    assert float(dt[3:]) == pytest.approx(0.05)
    path = tmp_path / "dt.csv"
    for bad in ("0.5", "0.0500001", "fast"):
        path.write_text("\n".join([lines[0].replace(dt, f"dt={bad}")] + lines[1:]) + "\n")
        with pytest.raises(ParseError, match=f"dt={bad} but the rows are 0.05") as exc:
            io.load_demo(path)
        assert exc.value.line == 1
    # a one-row file has no step to compare with
    path.write_text(lines[0].replace(dt, "dt=0.5").replace(f"n={len(demo)}", "n=1") + "\n"
                    + lines[1] + "\n")
    assert len(io.load_demo(path)) == 1


def test_header_version_must_be_v1(tmp_path, demo):
    lines = _demo_lines(tmp_path, demo)
    lines[0] = lines[0].replace(" v1 ", " v7 ")
    path = tmp_path / "v7.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="orifuse-demo v1"):
        io.load_demo(path)
    traj = tmp_path / "traj.csv"
    io.save_trajectory(traj, kmp.OrientationTrajectory(demo.times, demo.rotations,
                                                       np.zeros((len(demo), 3))))
    traj.write_text(traj.read_text().replace(" v1 ", " v7 ", 1))
    with pytest.raises(ParseError, match="orifuse-trajectory v1"):
        io.load_trajectory(traj)


def test_load_demos_inconsistent_dt(tmp_path):
    a = generate_demos("s61-like", 1, seed=0, samples=101)[0]
    b = generate_demos("s61-like", 1, seed=0, samples=201)[0]
    io.save_demo(tmp_path / "a.csv", a)
    io.save_demo(tmp_path / "b.csv", b)
    with pytest.raises(InconsistentTiming):
        io.load_demos([tmp_path / "a.csv", tmp_path / "b.csv"])


# finite floats, with the edge cases a text round trip can lose drawn often:
# signed zeros, subnormals and the largest magnitudes
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e308, -1e308]
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))


def float_arrays(shape):
    return arrays(np.float64, shape, elements=finite)


@st.composite
def trajectories(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, 3))
    psis = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=3 * n, max_size=3 * n)))
    return (draw(float_arrays((n,))), rot_exp_many(psis.reshape(n, 3)),
            draw(float_arrays((n, 3))), draw(float_arrays((n, k + 1))))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trajectories())
def test_trajectory_roundtrip(tmp_path, arrays):
    path = tmp_path / "traj.csv"
    saved = kmp.OrientationTrajectory(*arrays)
    io.save_trajectory(path, saved)
    loaded = io.load_trajectory(path)
    for name in ("times", "rotations", "omega_world", "weights"):
        # -0.0 must stay -0.0
        assert getattr(loaded, name).tobytes() == getattr(saved, name).tobytes()


@st.composite
def mixtures(draw):
    k = draw(st.integers(1, 4))
    return gmm.GaussianMixture(draw(float_arrays((k,))), draw(float_arrays((k, 7))),
                               draw(float_arrays((k, 7, 7))))


def test_empty_trajectory_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    io.save_trajectory(path, kmp.OrientationTrajectory(np.empty(0), np.empty((0, 3, 3)),
                                                       np.empty((0, 3))))
    assert path.read_text().strip().startswith("# orifuse-trajectory")
    loaded = io.load_trajectory(path)
    assert len(loaded) == 0 and loaded.rotations.shape == (0, 3, 3)
    assert loaded.weights.shape == (0, 1)


def _trajectory_text(tmp_path, demo):
    path = tmp_path / "traj.csv"
    io.save_trajectory(path, kmp.OrientationTrajectory(demo.times, demo.rotations,
                                                       np.zeros((len(demo), 3))))
    return path, path.read_text()


def test_trajectory_header_k_must_be_a_non_negative_integer(tmp_path, demo):
    path, text = _trajectory_text(tmp_path, demo)
    assert " k=0\n" in text
    for bad in ("abc", "-1", "1.5", ""):
        path.write_text(text.replace(" k=0\n", f" k={bad}\n", 1))
        with pytest.raises(ParseError, match=f"k={bad}; k must be a non-negative integer") as exc:
            io.load_trajectory(path)
        assert exc.value.line == 1


def test_trajectory_header_n_must_match_its_rows(tmp_path, demo):
    path, text = _trajectory_text(tmp_path, demo)
    n = f" n={len(demo)} "
    assert n in text
    path.write_text(text.replace(n, f" n={len(demo) + 1} ", 1))
    with pytest.raises(ParseError, match=f"n={len(demo) + 1} but the file has {len(demo)} rows"):
        io.load_trajectory(path)
    path.write_text("# orifuse-trajectory v1 n=5 k=0\n")
    with pytest.raises(ParseError, match="n=5 but the file has 0 rows") as exc:
        io.load_trajectory(path)
    assert exc.value.line == 1


def test_metrics_and_table_deterministic(tmp_path):
    path = tmp_path / "metrics.csv"
    io.save_metrics(path, {"cost": 1.25, "count": 3, "flag": True})
    assert path.read_text() == "# orifuse-metrics v1\ncost,1.25\ncount,3\nflag,1\n"
    table = tmp_path / "table.csv"
    io.save_table(table, ["i", "cost"], [[0, 0.5], [1, 0.25]])
    assert path.read_text() == path.read_text()
    assert table.read_text().splitlines()[1] == "i,cost"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mixtures())
def test_mixture_roundtrip(tmp_path, mix):
    path = tmp_path / "mix.json"
    io.save_mixture(path, mix)
    loaded = io.load_mixture(path)
    for name in ("priors", "means", "covariances"):
        assert getattr(loaded, name).tobytes() == getattr(mix, name).tobytes()


def test_a_mixture_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "mix.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(ParseError, match="mix.json: cannot parse mixture file: 'utf-8' codec"):
        io.load_mixture(path)


ONE_COMPONENT = {"schema_version": 1, "priors": [1.0], "means": [[0.0] * 7],
                 "covariances": [np.eye(7).tolist()]}


@pytest.mark.parametrize("doc, message", [
    ({}, "mixture file has no 'schema_version'"),
    ([1], "a mixture file holds a JSON object"),
    ({k: v for k, v in ONE_COMPONENT.items() if k != "covariances"},
     "mixture file has no 'covariances'"),
    (dict(ONE_COMPONENT, schema_version=2), "'schema_version' must be 1, got 2"),
    (dict(ONE_COMPONENT, schema_version=True), "'schema_version' must be 1, got True"),
    (dict(ONE_COMPONENT, priors=[]), "'priors' must be a non-empty list of numbers"),
    (dict(ONE_COMPONENT, priors=["1"]), r"'priors' must be numbers of shape \(1,\)"),
    (dict(ONE_COMPONENT, means=[[0.0, 0.0]], covariances=[[[1.0]]]),
     r"'means' must be numbers of shape \(1, 7\)"),
    (dict(ONE_COMPONENT, covariances=[[[1.0]]]),
     r"'covariances' must be numbers of shape \(1, 7, 7\)"),
    (dict(ONE_COMPONENT, priors=[0.5, 0.5]), r"'means' must be numbers of shape \(2, 7\)"),
    (dict(ONE_COMPONENT, means=[[0.0] * 7, [0.0]]), r"'means' must be numbers of shape"),
])
def test_a_mixture_file_of_the_wrong_form_is_a_parse_error_naming_the_key(tmp_path, doc,
                                                                          message):
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=message) as info:
        io.load_mixture(path)
    assert info.value.exit_code == 3


def test_learn_writes_the_mixture_it_fits(tmp_path):
    # learn's mixture.json loads back, bit for bit, as the mixture the run fitted
    cfg = _base_config(tmp_path)
    assert cli.main(["learn", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    loaded = io.load_mixture(tmp_path / "out" / "mixture.json")
    run = io.load_config(cfg)
    demos = io.load_demos(run.demo_paths)
    fitted = pipeline.fit_projected_mixture(demos, demos[0].rotations[0], run.components,
                                            run.seed, {})
    for name in ("priors", "means", "covariances"):
        assert getattr(loaded, name).tobytes() == getattr(fitted, name).tobytes()


def _base_config(tmp_path, **overrides):
    demos = generate_demos("s61-like", 2, seed=0)
    for i, d in enumerate(demos):
        io.save_demo(tmp_path / f"demo_{i}.csv", d)
    doc = {
        "schema_version": 1,
        "demos": [f"demo_{i}.csv" for i in range(2)],
        "gmm": {"components": 2, "seed": 0},
        "kernel": {"l": 0.01, "lambda": 1.0},
        "grid": 50,
        "via_points": [],
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_config_loads_and_resolves_paths(tmp_path):
    cfg = io.load_config(_base_config(tmp_path))
    assert len(cfg.demo_paths) == 2
    assert cfg.demo_paths[0].exists()
    assert cfg.components == 2


def test_config_rejects_bad_schema(tmp_path):
    with pytest.raises(ConfigError):
        io.load_config(_base_config(tmp_path, schema_version=99))


def test_config_rejects_unsorted_vias(tmp_path):
    vias = [
        {"t": 5.0, "psi": [0.1, 0, 0]},
        {"t": 1.0, "psi": [0.2, 0, 0]},
    ]
    with pytest.raises(ConfigError):
        io.load_config(_base_config(tmp_path, via_points=vias))


def test_config_rejects_domain_overlap_before_compute(tmp_path):
    vias = [
        {"t": 0.0, "psi": [0.1, 0, 0]},
        {"t": 4.0, "psi": [0.2, 0, 0], "relaxed_axis": "y", "weight_half_width": 2.4},
        {"t": 5.0, "psi": [0.3, 0, 0], "relaxed_axis": "z", "weight_half_width": 2.4},
    ]
    with pytest.raises(DomainOverlap):
        io.load_config(_base_config(tmp_path, via_points=vias, aux_frame="per-iovp"))


def test_config_via_target_frames(tmp_path):
    vias = [{"t": 0.0, "psi": [0.3, 0.0, 0.0], "frame": "aux"}]
    cfg = io.load_config(_base_config(tmp_path, via_points=vias))
    R_aux = so3.exp_map([0.0, 0.5, 0.0])
    target = cfg.via_points[0].target_rotation(R_aux)
    assert so3.geodesic_distance(target, R_aux @ so3.exp_map([0.3, 0, 0])) < 1e-12
    world = io.load_config(
        _base_config(tmp_path, via_points=[{"t": 0.0, "psi": [0.3, 0.0, 0.0]}]))
    assert so3.geodesic_distance(
        world.via_points[0].target_rotation(), so3.exp_map([0.3, 0, 0])) < 1e-12
    # an explicit rotation is taken relative to its frame too
    rotated = [{"t": 0.0, "rotation": so3.exp_map([0.3, 0, 0]).tolist(), "frame": "aux"}]
    cfg = io.load_config(_base_config(tmp_path, via_points=rotated))
    target = cfg.via_points[0].target_rotation(R_aux)
    assert so3.geodesic_distance(target, R_aux @ so3.exp_map([0.3, 0, 0])) < 1e-12


RELAXED_VIA = {"t": 4.0, "psi": [0.2, 0, 0], "relaxed_axis": "y"}


@pytest.mark.parametrize("overrides", [
    {"grid": "abc"},
    {"gmm": {"components": 2, "seed": -1}},
    {"delta_t_via": 0.0},
    {"via_points": [dict(RELAXED_VIA, eps_strict=1e3, eps_loose=1e3)]},
    {"via_points": [dict(RELAXED_VIA, weight_half_width=0)]},
    {"via_points": [dict(RELAXED_VIA, orientation_var=[1.0, 0.0, 1.0])]},
    {"via_points": [dict(RELAXED_VIA, orientation_var=[1.0, 1.0, 1.0])]},
    {"via_points": [dict(RELAXED_VIA, velocity_var=-1.0)]},
    {"sweep": {"axis": "lambda_a", "values": [10.0, "a"]}},
    {"sweep": {"axis": "lambda_a", "values": [10.0, 0.0]}},
    {"sweep": {"axis": "target-rotation", "values": [0, 1], "via_index": 3}},
    {"via_points": [dict(RELAXED_VIA, t=float("inf"))]},
    {"via_points": [dict(RELAXED_VIA, omega=[float("nan"), 0.0, 0.0])]},
    {"via_points": [dict(RELAXED_VIA, velocity_var=float("nan"))]},
    {"via_points": [dict(RELAXED_VIA, eps_strict=float("nan"))]},
    {"via_points": [dict(RELAXED_VIA, eps_loose=float("inf"))]},
    {"via_points": [dict(RELAXED_VIA, weight_half_width=float("inf"))]},
    {"kernel": {"l": float("nan"), "lambda": 1.0}},
    {"kernel": {"l": 0.01, "lambda": float("inf")}},
    {"kernel": {"l": 0.01, "lambda": 1.0, "lambda_a": float("nan")}},
    {"sweep": {"axis": "lambda_a", "values": [10.0, float("nan")]}},
    {"grid": float("inf")},
    {"gmm": {"components": float("inf"), "seed": 0}},
    {"via_points": [dict(RELAXED_VIA, t=10**400)]},
    {"via_points": [dict(RELAXED_VIA, psi=[10**400, 0, 0])]},
    {"kernel": {"l": 10**400, "lambda": 1.0}},
    {"sweep": {"axis": "lambda_a", "values": [10.0, 10**400]}},
    {"aux_frame": "per-iovp", "via_points": [RELAXED_VIA],
     "sweep": {"axis": "target-rotation", "values": [1.5, 1]}},
    {"aux_frame": "per-iovp", "sweep": {"axis": "target-rotation", "values": [0]}},
    # whole, but so large that the turn's squared angle overflows in rot_exp
    {"aux_frame": "per-iovp", "via_points": [RELAXED_VIA],
     "sweep": {"axis": "target-rotation", "values": [1e200]}},
    {"aux_frame": "per-iovp", "via_points": [RELAXED_VIA],
     "sweep": {"axis": "target-rotation", "values": [0, -1e300]}},
    {"via_points": [dict(RELAXED_VIA, relaxed_axis=None, eps_strict=10**400)]},
    {"via_points": [dict(RELAXED_VIA, eps_loose=10**400)]},
    {"via_points": [dict(RELAXED_VIA, weight_half_width=10**400)]},
    {"via_points": [dict(RELAXED_VIA, weight_half_width=1e-300)]},
    {"grid": 300.9},
    {"gmm": {"components": 2.9, "seed": 0}},
    {"grid": "300"},
    {"gmm": {"components": 2, "seed": True}},
    {"grid": 10**6 + 1},
    {"grid": 10**400},
    {"sweep": {"axis": "lambda_a"}},
    {"sweep": {"axis": "lambda_a", "values": []}},
    # no key takes a boolean, though Python reads true as the number 1
    {"aux_frame": {"policy": "via", "index": True},
     "via_points": [{"t": 0.0, "psi": [0.1, 0, 0]}, RELAXED_VIA]},
    {"via_points": [dict(RELAXED_VIA, t=True)]},
    {"via_points": [dict(RELAXED_VIA, eps_loose=True)]},
    {"via_points": [dict(RELAXED_VIA, psi=[0.2, False, 0])]},
    {"kernel": {"l": True, "lambda": 1.0}},
    {"schema_version": True},
    {"sweep": {"axis": "lambda_a", "values": [10.0, True]}},
])
def test_config_rejects_values_the_run_cannot_use(tmp_path, overrides):
    with pytest.raises(ConfigError):
        io.load_config(_base_config(tmp_path, **overrides))


@pytest.mark.parametrize("overrides, key", [
    ({"kernel": {"l": 0.01, "lambda": 1.0, "lambda_a": 5e-324}}, "kernel: lambda_a"),
    ({"sweep": {"axis": "lambda_a", "values": [10.0, 5e-324]}}, "sweep values: lambda_a"),
])
def test_an_acceleration_weight_whose_inverse_overflows_names_its_key(tmp_path, overrides, key):
    # 1/lambda_a, the variance of the zero acceleration targets, would overflow
    with pytest.raises(ConfigError, match=f"{key} must be finite and above about 5.56e-309"):
        io.load_config(_base_config(tmp_path, **overrides))


def test_a_ridge_factor_that_overflows_the_row_covariances_exits_4(tmp_path, capsys):
    # kernel.lambda is finite, so the configuration loads, but lambda times the
    # largest covariance entry of the rows is not: the run names the key instead
    # of overflowing in lambda * Sigma_i
    cfg = _base_config(tmp_path, kernel={"l": 0.01, "lambda": 1.7e308}, via_points=[RELAXED_VIA])
    assert cli.main(["adapt", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "kernel.lambda 1.7e+308 times the largest row covariance entry" in err


@pytest.mark.parametrize("omega", [[1e300, 0.0, 0.0], [1.7e308] * 3, [0.0, 1111.0, 1111.0]])
def test_a_via_too_fast_for_any_chart_exits_2(tmp_path, capsys, omega):
    # the 50-point grid on 0 to 10 s measures angular velocity over two 0.204 s steps,
    # which wrap at pi: a faster via is a configuration error, reported before any output
    cfg = _base_config(tmp_path, via_points=[dict(RELAXED_VIA, omega=omega)])
    assert cli.main(["adapt", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "via at t=4 has |omega|" in err and "below pi / (2 x 0.204082 s) = 7.6969 rad/s" in err
    assert not (tmp_path / "out").exists()
    demos = io.load_demos(io.load_config(cfg).demo_paths)
    pipeline.check_vias(demos, [kmp.ViaPointSpec(4.0, np.eye(3), [0.0, 0.0, 7.69])],
                        pipeline.demo_grid(demos, 50))


@pytest.mark.parametrize("t", [1e300, 20.5, -10.5])
def test_a_via_time_beyond_the_demonstrations_exits_2_and_names_it(tmp_path, capsys, t):
    # the demonstrations span 0 to 10 s, so via times run from -10 to 20 s; a run past
    # them would overflow the kernel's squared time differences
    cfg = _base_config(tmp_path, via_points=[dict(RELAXED_VIA, t=t)])
    assert cli.main(["adapt", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"via at t={t:g} lies outside -10 to 20 s" in capsys.readouterr().err
    demos = io.load_demos(io.load_config(cfg).demo_paths)
    pipeline.check_vias(demos, [kmp.ViaPointSpec(20.0, np.eye(3), np.zeros(3))],
                        pipeline.demo_grid(demos, 50))


@pytest.mark.parametrize("overrides, key", [
    ({"kernel": {"l": "0.01", "lambda": 1.0}}, "kernel: 'l'"),
    ({"kernel": {"l": 0.01, "lambda": "1e0"}}, "kernel: 'lambda'"),
    ({"kernel": {"l": 0.01, "lambda": 1.0, "lambda_a": "100"}}, "kernel: 'lambda_a'"),
    ({"via_points": [dict(RELAXED_VIA, t="4")]}, "via_points: 't'"),
    ({"via_points": [dict(RELAXED_VIA, psi=["0.2", 0, 0])]}, "via_points: 'psi'"),
    ({"via_points": [dict(RELAXED_VIA, omega=["0", "0", "0"])]}, "via_points: 'omega'"),
    ({"via_points": [dict(RELAXED_VIA, velocity_var="1e3")]}, "via_points: 'velocity_var'"),
    ({"via_points": [dict(RELAXED_VIA, rotation=[["1", 0, 0], [0, 1, 0], [0, 0, 1]])]},
     "via_points: 'rotation'"),
    ({"aux_frame": {"policy": "explicit", "rotation": [1, 0, 0, 0, 1, 0, 0, 0, "1"]}},
     "aux_frame: 'rotation'"),
    ({"gmm": {"components": "2", "seed": 0}}, "gmm: 'components'"),
    ({"grid": "50"}, "top level: 'grid'"),
    ({"sweep": {"axis": "lambda_a", "values": ["10"]}}, "sweep: 'values'"),
])
def test_config_numbers_are_json_numbers_not_strings(tmp_path, overrides, key):
    # a number in quotes is not converted: it exits 2 and names its key
    with pytest.raises(ConfigError, match=f"{key} takes JSON numbers, not strings"):
        io.load_config(_base_config(tmp_path, **overrides))


def test_readme_config_example_loads(tmp_path):
    # the README's example is a valid configuration, and it names every key the loader takes
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("A run configuration is JSON")[1].split("```json\n")[1]
    path = tmp_path / "run.json"
    path.write_text(example.split("```")[0])
    cfg = io.load_config(path)
    assert [via.relaxed_axis for via in cfg.via_points] == [None, "y"]
    for section, keys in io._KEYS.items():
        for key in keys:
            assert f"`{key}`" in readme or f'"{key}"' in readme, (section, key)


def test_readme_fuse_example_loads(tmp_path):
    # the README's per-iovp example passes the non-interference rule at load
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("A per-iovp fusion configuration")[1].split("```json\n")[1]
    path = tmp_path / "fuse.json"
    path.write_text(example.split("```")[0])
    cfg = io.load_config(path)
    assert cfg.aux_policy == "per-iovp"
    assert [via.relaxed_axis for via in cfg.via_points] == [None, "y", "z", "y"]


# the documented keys of each section of a run configuration
FUZZ_KEYS = {
    "top level": ["schema_version", "demos", "aux_frame", "gmm", "kernel", "grid", "via_points",
                  "sweep"],
    "gmm": ["components", "seed"],
    "kernel": ["l", "lambda", "lambda_a"],
    "aux_frame": ["policy", "rotation", "index"],
    "sweep": ["axis", "values"],
    "via_points": ["t", "rotation", "psi", "omega", "relaxed_axis", "eps_strict", "eps_loose",
                   "orientation_var", "velocity_var", "acceleration_var", "weight_half_width",
                   "frame"],
}
DELETE = object()
FUZZ_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10**400, max_value=10**400),
    st.sampled_from([10**400, 0.5, 1.5, -1, 0]),
)
FUZZ_VALUES = st.one_of(
    FUZZ_NUMBERS,
    st.lists(FUZZ_NUMBERS, max_size=4),
    st.sampled_from([DELETE, None, True, "", "y", "aux", "world", "per-iovp", "explicit", "via",
                     "first-demo-start", "lambda_a", "target-rotation", [], {}, ["demo.csv"],
                     np.eye(3).tolist(), [[float("nan")] * 3] * 3]),
)


def _fuzz_base():
    """A valid document with every section present: a via-anchored chart and a sweep."""
    return {
        "schema_version": 1,
        "demos": ["demo_0.csv", "demo_1.csv"],
        "aux_frame": {"policy": "via", "index": 1},
        "gmm": {"components": 2, "seed": 0},
        "kernel": {"l": 0.01, "lambda": 1.0, "lambda_a": 100.0},
        "grid": 50,
        "via_points": [{"t": 0.0, "psi": [0.1, 0.0, 0.0], "omega": [0.0, 0.0, 0.0]},
                       dict(RELAXED_VIA, omega=[0.1, 0.0, 0.0], weight_half_width=1.0)],
        "sweep": {"axis": "target-rotation", "values": [0, 6, 11]},
    }


def _fuzz_section(doc, section, via):
    if section == "top level":
        return doc
    if section == "via_points":
        vias = doc.get("via_points")
        return vias[via] if isinstance(vias, list) and len(vias) > via else None
    return doc.get(section)


@st.composite
def mutated_configs(draw):
    """(document, whether an unknown key was added) after 1-3 value mutations.

    A value mutation sets or deletes a key the section may hold; the unknown key,
    if any, is added last so no later mutation can drop its section.
    """
    doc = _fuzz_base()
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(list(FUZZ_KEYS)))
        target = _fuzz_section(doc, section, draw(st.integers(0, 1)))
        key = draw(st.sampled_from(FUZZ_KEYS[section]))
        value = draw(FUZZ_VALUES)
        if isinstance(target, dict) and value is DELETE:
            target.pop(key, None)
        elif isinstance(target, dict):
            target[key] = copy.deepcopy(value)
    section = draw(st.sampled_from(list(FUZZ_KEYS)))
    target = _fuzz_section(doc, section, draw(st.integers(0, 1)))
    key = draw(st.sampled_from(["grdi", "component", "lamda", "indx", "value", "relaxed_axes",
                                "memory", "delta_t_via", "covariance"]) | st.text(max_size=6))
    unknown = draw(st.booleans()) and isinstance(target, dict) and key not in FUZZ_KEYS[section]
    if unknown:
        target[key] = 1
    return doc, unknown


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_configs())
def test_config_fuzz_ends_in_a_run_config_or_an_orifuse_error(tmp_path, case):
    # no document, however malformed, escapes load_config as another exception
    doc, unknown = case
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    try:
        cfg = io.load_config(path)
    except OrifuseError:
        return
    assert isinstance(cfg, io.RunConfig)
    assert not unknown, "an unknown key was accepted"
