"""The benchmark's traced layers still find every function they wrap.

perfbench/layers.py wraps orifuse functions by name; a refactor that renames
or stops calling one would only show in a traced benchmark run.  This runs a
small traced adapt with lambda_a under those wrappers instead.
"""

import json
import sys
from pathlib import Path

from orifuse import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402
import spans  # noqa: E402


def test_traced_adapt_calls_each_layer_once(tmp_path):
    assert cli.main(["gen-demos", "--count", "5", "--seed", "0", "--out", str(tmp_path)]) == 0
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "demos": [f"demo_{i:02d}.csv" for i in range(5)],
        "kernel": {"l": 0.01, "lambda": 1.0, "lambda_a": 100.0},
        "grid": 201,
        # t = 0 and 10 replace reference rows, t = 4 lies between two of them
        "via_points": [
            {"t": 0.0, "psi": [1.2614, 1.0512, 1.5767]},
            {"t": 4.0, "psi": [1.5456, 1.0304, 2.0608], "acceleration_var": 1e-4},
            {"t": 10.0, "psi": [0.9137, 1.3705, 0.9137]},
        ],
    }))
    recorder = spans.Recorder()
    patcher = layers.install(recorder)
    try:
        with recorder.span(layers.ROOT_SPAN):
            rc = cli.main(["adapt", "--config", str(config), "--out", str(tmp_path / "out")])
    finally:
        patcher.restore()
    assert rc == 0
    table = spans.summarize(recorder.take(), layers.COUNT_REDUCERS)
    for name in ("kmp.extend_reference", "kmp.augment_for_acceleration", "kmp.build_model",
                 "kmp.predict_many", "gmm.fit_gmm"):
        assert table[name]["calls"] == 1, name
    assert table["kmp.build_model"]["counts"]["gram_dim"] == 9 * 201
