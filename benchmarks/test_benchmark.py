"""Tests of the benchmark's own tracer and oracle.

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tpsgeo import cli, killing, linalg, sympl  # noqa: E402
from tpsgeo.poly import Chart, LaurentPoly  # noqa: E402


@pytest.fixture
def traced():
    t = tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _names(t: tracer.Tracer) -> list[str]:
    return [span[2] for span in t.spans]


def test_every_alias_is_wrapped_and_restored():
    original = linalg.solve_exact
    t = tracer.Tracer()
    t.install()
    try:
        assert killing.solve_exact is linalg.solve_exact is sympl.solve_exact
        assert linalg.solve_exact is not original
        assert sympl.structure_constants is killing.structure_constants
        assert LaurentPoly.__rmul__ is LaurentPoly.__mul__
    finally:
        t.uninstall()
    assert killing.solve_exact is original and sympl.solve_exact is original


def test_calls_through_aliases_are_counted(traced):
    rows = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    b = [Fraction(5), Fraction(6)]
    assert linalg.solve_exact(rows, b) == killing.solve_exact(rows, b) == sympl.solve_exact(rows, b)
    assert _names(traced).count("linalg.solve_exact") == 3

    x = LaurentPoly.variable(Chart(["x"]), "x")
    before = _names(traced).count("poly.LaurentPoly.__mul__")
    _ = x * x
    _ = 2 * x  # __rmul__, the same function under another name
    assert _names(traced).count("poly.LaurentPoly.__mul__") == before + 2


def test_pool_threads_have_their_own_self_time(traced, tmp_path):
    argv = ["verify-all", "--only", "tps,sympl", "--n-max", "1", "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    spans = traced.spans
    main = [s for s in spans if s[2] == "cli.main"]
    suites = [s for s in spans if s[2] in ("suites.tps", "suites.sympl")]
    assert len(main) == 1 and len(suites) == 2
    assert all(s[1] == main[0][0] and s[5] != main[0][5] for s in suites)
    own = tracer.self_times(spans)
    # Suites in pool threads do not count as covered time of cli.main.
    assert own[main[0][0]] > 0.5 * (main[0][4] - main[0][3])
    for span in spans:
        assert -1e-9 <= own[span[0]] <= span[4] - span[3]
    for row in tracer.span_table(spans).values():
        assert row["self_s"] <= row["s"] + 1e-9


def test_work_counts_repeat_across_traced_runs(tmp_path):
    docs = []
    for run_id in range(2):
        t = tracer.Tracer(run_id)
        t.install()
        try:
            cli.main(["killing", "--space", "tps", "--n", "1", "--out", str(tmp_path / "k.json")])
        finally:
            t.uninstall()
        docs.append({"spans": t.spans, "counters": dict(t.counters)})
    metrics, mismatched = tracer.layer_metrics(docs)
    assert mismatched == []
    # 3 components times the 10 monomials of degree <= 2 in 3 variables
    assert metrics["killing.killing_solve.unknowns"] == 30
    assert metrics["killing.killing_solve.kernel_dim"] == 4  # tps n = 1 Killing dimension
    assert metrics["fields.bracket.calls"] > 0


def test_tampered_report_counts_as_failed(tmp_path):
    out = tmp_path / "tamper.json"
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-m", "tpsgeo.cli", "verify-all", "--tamper", "--out", str(out)],
        env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 1
    got = json.loads(out.read_text())["results"]
    want = oracle.load_reference("verify_all")[0]
    attempted, failed = oracle.compare_records(got, want)
    assert attempted == len(want) and failed == attempted


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_flipped_status_counts_as_one_failure(workload):
    want = oracle.load_reference(workload)[0]
    flipped = oracle.flip_one_status(want)
    if workload == "surface_grid":
        points = run.surface_points(run.DEFAULT_SEED)
        classes = run.surface_classes(points)
        assert oracle.check_surface(want, points, classes, want) == (len(points), 0)
        assert oracle.check_surface(flipped, points, classes, want) == (len(points), 1)
    else:
        assert oracle.compare_records(want, want) == (len(want), 0)
        assert oracle.compare_records(flipped, want) == (len(want), 1)


def test_float_witnesses_use_the_stated_tolerances():
    want = {"legendre_residual": 0.0, "block_agreement": 1e-16, "ii_norm": 1.5}
    assert oracle.same_witness({**want, "legendre_residual": 5e-13}, want)
    assert not oracle.same_witness({**want, "legendre_residual": 5e-12}, want)
    assert oracle.same_witness({**want, "ii_norm": 1.5 + 1e-11}, want)
    assert not oracle.same_witness({**want, "ii_norm": 1.5 + 1e-9}, want)
    assert not oracle.same_witness({"dimension": 24}, {"dimension": 25})


def test_surface_invariants_without_reference():
    points = run.surface_points(run.DEFAULT_SEED)
    classes = run.surface_classes(points)
    good = oracle.load_reference("surface_grid")[0]
    assert oracle.check_surface(good, points, classes) == (len(points), 0)
    wrong_class = json.loads(json.dumps(good))
    wrong_class[0]["witness"]["classification"] = "marginal"
    # The point record itself is plausible, but the summary no longer adds up.
    assert oracle.check_surface(wrong_class, points, classes) == (len(points), len(points))
    too_big = json.loads(json.dumps(good))
    too_big[1]["witness"]["legendre_residual"] = 1e-9
    # The point fails, and so does the contact summary that covers every point.
    assert oracle.check_surface(too_big, points, classes) == (len(points), len(points))


def test_closed_form_catches_a_consistent_misclassification():
    points = run.surface_points(run.DEFAULT_SEED)
    classes = run.surface_classes(points)
    good = oracle.load_reference("surface_grid")[0]
    assert sum(c is not None for c in classes) > 0.95 * len(points)
    i = next(k for k, c in enumerate(classes) if c == ("stable", "positive definite"))
    swapped = json.loads(json.dumps(good))
    swapped[i]["witness"].update(classification="unstable", definiteness="indefinite")
    summary = swapped[len(points) + 1]["witness"]
    summary["stable"] -= 1
    summary["unstable"] += 1
    summary["indefinite"] += 1
    assert oracle.surface_failures(swapped, points, [None] * len(points)) == set()
    assert oracle.check_surface(swapped, points, classes) == (len(points), 1)


def test_benchmark_json_names_the_metrics_the_run_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_speed_sensor_scales_by_the_kernel_time_within_a_span():
    sensor = run.SpeedSensor()
    sensor.start()
    time.sleep(0.1)
    sensor.stop()
    assert not sensor.is_alive()
    assert len(sensor.samples) >= len(os.sched_getaffinity(0))
    sensor.samples = [(1.0, 0.002, 0.001), (2.0, 0.004, 0.003), (3.0, 0.001, 0.001)]
    assert sensor.scale((0.5, 2.5), "wall") == pytest.approx(run.SENSOR_REF_S / 0.003)
    assert sensor.scale((0.5, 2.5), "cpu") == pytest.approx(run.SENSOR_REF_S / 0.002)
    # A span without samples falls back to the median of all of them.
    assert sensor.scale((4.0, 5.0), "wall") == pytest.approx(run.SENSOR_REF_S / 0.002)
    assert sensor.scale(None, "cpu") == pytest.approx(run.SENSOR_REF_S / 0.001)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify_all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
