"""The program's outputs still match committed reference outputs.

Three small outputs are pinned under tests/pinned/: the seed-0 perfbench
target-rotation sweep table, the seed-0 perfbench lambda_a sweep table, and
the metrics of the README per-iovp ``fuse`` at its 201-point grid.  The test
regenerates them in process through ``cli.main`` and compares every number
with a relative bound, not bytes: another numpy rounds differently, and
rounding has moved sweep tables by up to 4.6e-6 relative through a
knife-edge EM stop.  A changed rule moves them further; doubling EM_TOL moves
the sweep costs by 3.7e-3 to 1.6e-2.

A change that moves a number past the bound on purpose regenerates the
references from the root of a checkout with

    PYTHONPATH=src python tests/test_pinned_outputs.py

and commits them with their diff.
"""

import shutil
import sys
from pathlib import Path

import pytest

from orifuse import cli
from test_cli import readme_fusion_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

PINNED = Path(__file__).resolve().parent / "pinned"
REL_BOUND = 1e-4
# reference file -> (run: a perfbench workload or the README fuse, output file)
OUTPUTS = {
    "target_sweep_table.csv": ("target-sweep", "table.csv"),
    "lambda_sweep_table.csv": ("lambda-sweep", "table.csv"),
    "readme_fuse_metrics.csv": ("fuse", "metrics.csv"),
}


def generate(directory):
    """Run the three protocols on the seed-0 scene; returns {reference name: output path}."""
    directory = Path(directory)
    scene = workloads.make_scene(0)
    runs = {name: (work.argv, workloads.write_inputs(work, scene, directory / name))
            for name, work in workloads.WORKLOADS.items()}
    # the README example names two demonstrations, here the scene's first two
    runs["fuse"] = (("fuse",), readme_fusion_config(directory, directory / "target-sweep"))
    paths = {}
    for name, (run, output) in OUTPUTS.items():
        argv, config = runs[run]
        out = directory / f"out_{run}"
        assert cli.main([*argv, "--config", str(config), "--out", str(out)]) == 0
        paths[name] = out / output
    return paths


def _cells(path):
    return [line.split(",") for line in Path(path).read_text().splitlines()]


def mismatches(produced, pinned):
    """Cells that differ: text exactly, numbers by more than REL_BOUND relative."""
    got, want = _cells(produced), _cells(pinned)
    if [len(row) for row in got] != [len(row) for row in want]:
        return [f"layout {[len(r) for r in got]} != {[len(r) for r in want]}"]
    found = []
    for i, (row, ref) in enumerate(zip(got, want)):
        for j, (cell, expected) in enumerate(zip(row, ref)):
            try:
                a, b = float(cell), float(expected)
            except ValueError:
                if cell != expected:
                    found.append(f"line {i + 1} cell {j + 1}: {cell!r} != {expected!r}")
                continue
            if not abs(a - b) <= REL_BOUND * abs(b):
                found.append(f"line {i + 1} cell {j + 1}: {a!r} != {b!r}")
    return found


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return generate(tmp_path_factory.mktemp("pinned"))


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_matches_its_pinned_reference(produced, name):
    assert mismatches(produced[name], PINNED / name) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        PINNED.mkdir(exist_ok=True)
        for name, path in generate(work).items():
            shutil.copyfile(path, PINNED / name)
            print(f"wrote {PINNED / name}")
