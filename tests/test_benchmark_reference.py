"""The reports agree with the benchmark's recorded references.

`benchmarks/run.py` compares every report it collects with
`benchmarks/reference/` through `benchmarks/oracle.py`.  The same comparison
runs here, in process, so that a change of any claim, status or witness
fails a library test and not only a benchmark run.  The oracle and the
references are only read."""

import importlib.util
import json
import os
import sys

import pytest

from tpsgeo import cli

BENCHMARKS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)


def load_module(name):
    spec = importlib.util.spec_from_file_location(
        f"benchmark_{name}", os.path.join(BENCHMARKS, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_oracle():
    return load_module("oracle")


# the tpsgeo calls of each workload, in the order of its reference lists
CALLS = {
    "verify_all": [["verify-all"]],
    "exact_deep": [
        ["killing", "--space", "sympl", "--n", "3"],
        ["curvature", "--space", "tps", "--n", "4"],
    ],
}


@pytest.mark.parametrize("workload", sorted(CALLS))
def test_reports_match_the_benchmark_reference(workload, tmp_path):
    oracle = load_oracle()
    references = oracle.load_reference(workload)
    assert len(references) == len(CALLS[workload])
    for k, (argv, want) in enumerate(zip(CALLS[workload], references)):
        out = tmp_path / f"{k}.json"
        assert cli.main(argv + ["--out", str(out)]) == 0
        got = json.loads(out.read_text())["results"]
        attempted, failed = oracle.compare_records(got, want)
        assert (attempted, failed) == (len(want), 0), argv


def test_surface_grid_matches_the_benchmark_reference(monkeypatch, tmp_path):
    # run.py puts benchmarks/ on sys.path to import its oracle and tracer;
    # the workload's model, points and classes are read from it
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = load_module("run")
    oracle = load_oracle()
    points = run.surface_points(run.DEFAULT_SEED)
    model_file, points_file = tmp_path / "model.json", tmp_path / "points.json"
    model_file.write_text(json.dumps(run.VAN_DER_WAALS))
    points_file.write_text(json.dumps(points))
    out = tmp_path / "report.json"
    argv = ["potential", "--model-file", str(model_file), "--points-file", str(points_file)]
    assert cli.main(argv + ["--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    want = oracle.load_reference("surface_grid")[0]
    assert oracle.check_surface(results, points, run.surface_classes(points), want) == (900, 0)
