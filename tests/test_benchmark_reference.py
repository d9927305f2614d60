"""The reports agree with the benchmark's recorded references.

`benchmarks/run.py` compares every report it collects with
`benchmarks/reference/` through `benchmarks/oracle.py`.  The same comparison
runs here, in process, so that a change of any claim, status or witness
fails a library test and not only a benchmark run.  The oracle and the
references are only read."""

import importlib.util
import json
import os

import pytest

from tpsgeo import cli

BENCHMARKS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)


def load_oracle():
    spec = importlib.util.spec_from_file_location(
        "benchmark_oracle", os.path.join(BENCHMARKS, "oracle.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
