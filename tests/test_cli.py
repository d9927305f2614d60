"""Command line surface: envelope schema, witnesses, exit codes, filters,
tamper mode, and output determinism."""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpsgeo import cli
from tpsgeo.report import STATUSES


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model(tmp_path, spec, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def point_records(doc):
    return [r for r in doc["results"] if r["claim"].startswith("surface data at ")]


VDW_LITERAL = {
    "model": "van_der_waals",
    "parameters": {"a": 1.0, "b": 1.0, "r": 1.0, "c_v": 1.5, "positive_exponent": True},
}


class TestEnvelope:
    """Shape and content of the JSON report."""

    def test_schema_and_key_order(self, capsys):
        code, out, _ = run_cli(capsys, ["curvature", "--space", "sympl", "--n", "1"])
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["tool_version", "command", "inputs", "results", "timing"]
        assert doc["command"] == "curvature"
        assert doc["inputs"] == {"space": "sympl", "n": 1}
        assert isinstance(doc["timing"]["seconds"], float)
        for r in doc["results"]:
            assert list(r) == ["claim", "ref", "status", "witness"]
            assert r["status"] in STATUSES

    def test_einstein_factor_witness_is_a_rational_string(self, capsys):
        _, out, _ = run_cli(capsys, ["curvature", "--space", "sympl", "--n", "1"])
        doc = json.loads(out)
        by_claim = {r["claim"]: r for r in doc["results"]}
        row = by_claim["lifted metric is Einstein: Ric = ((n+2)/2) G-tilde"]
        assert row["status"] == "exact-pass"
        assert row["witness"]["einstein_factor"] == "3/2"

    def test_scalar_witness_n2(self, capsys):
        _, out, _ = run_cli(capsys, ["curvature", "--space", "tps", "--n", "2"])
        doc = json.loads(out)
        row = next(r for r in doc["results"] if r["claim"] == "scalar curvature equals n/2")
        assert row["witness"] == {"scalar": "1", "expected": "1"}

    def test_failures_always_carry_witnesses(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-all", "--tamper"])
        assert code == 1
        doc = json.loads(out)
        fails = [r for r in doc["results"] if r["status"] == "fail"]
        assert fails
        assert all(r["witness"] is not None for r in fails)

    def test_deterministic_apart_from_timing(self, capsys):
        _, out1, _ = run_cli(capsys, ["curvature", "--space", "tps", "--n", "1"])
        _, out2, _ = run_cli(capsys, ["curvature", "--space", "tps", "--n", "1"])
        a, b = json.loads(out1), json.loads(out2)
        a["timing"] = b["timing"] = None
        assert a == b

    def test_markdown_rendering(self, capsys):
        code, out, _ = run_cli(capsys, ["curvature", "--space", "tps", "--n", "1", "--markdown"])
        assert code == 0
        assert out.startswith("# curvature")
        assert "| claim | ref | status | witness |" in out

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, ["curvature", "--space", "tps", "--n", "1", "--out", str(dest)]
        )
        assert code == 0 and out == ""
        doc = json.loads(dest.read_text())
        assert doc["command"] == "curvature"


class TestExitCodes:
    """0 all passed, 1 any failure, 2 usage problems."""

    def test_bad_n_is_usage(self, capsys):
        code, _, err = run_cli(capsys, ["curvature", "--space", "tps", "--n", "0"])
        assert code == 2 and "--n" in err

    def test_bad_space_is_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["curvature", "--space", "nope", "--n", "1"])
        assert exc.value.code == 2

    def test_bad_degree_is_usage(self, capsys):
        code, _, err = run_cli(capsys, ["killing", "--space", "tps", "--n", "1", "--degree", "0"])
        assert code == 2 and "--degree" in err

    def test_malformed_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, _, err = run_cli(
            capsys, ["potential", "--model-file", str(bad), "--grid", "0:1:2,0:1:2"]
        )
        assert code == 2 and "model file" in err

    def test_unknown_model_kind(self, tmp_path, capsys):
        path = write_model(tmp_path, {"model": "nope"})
        code, _, err = run_cli(capsys, ["potential", "--model-file", path, "--grid", "0:1:2,0:1:2"])
        assert code == 2 and "bad model" in err

    def test_points_and_grid_are_exclusive(self, tmp_path, capsys):
        path = write_model(tmp_path, VDW_LITERAL)
        code, _, _ = run_cli(capsys, ["potential", "--model-file", path])
        assert code == 2
        pts = tmp_path / "pts.json"
        pts.write_text("[[1.0, 2.0]]")
        code, _, _ = run_cli(
            capsys,
            ["potential", "--model-file", path, "--points-file", str(pts), "--grid", "0:1:2,0:1:2"],
        )
        assert code == 2

    def test_domain_violation_is_a_failure_not_usage(self, tmp_path, capsys):
        path = write_model(tmp_path, {"model": "van_der_waals", "parameters": {}})
        pts = tmp_path / "pts.json"
        pts.write_text("[[0.5, 2.0], [0.5, 0.5]]")
        code, out, _ = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert code == 1
        doc = json.loads(out)
        fails = [r for r in doc["results"] if r["status"] == "fail"]
        assert len(fails) == 1
        assert fails[0]["witness"]["point"] == [0.5, 0.5]

    @pytest.mark.parametrize("c_v", [0, "Infinity"])
    def test_unusable_model_parameter_is_usage(self, tmp_path, capsys, c_v):
        path = tmp_path / "model.json"
        path.write_text(
            '{"model": "van_der_waals", "parameters": {"a": 1, "b": 1, "r": 1, "c_v": %s}}' % c_v
        )
        code, out, err = run_cli(capsys, ["potential", "--model-file", str(path), "--grid", "0:1:2,2:3:2"])
        assert code == 2 and out == ""
        assert "bad model" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "spec",
        [
            {"model": "quadratic", "parameters": {"q": [[2.0, 0.5], [0.5, 1.0]]}},
            {"model": "homogeneous_demo", "parameters": {}},
        ],
    )
    def test_non_finite_points_are_witnessed_failures(self, tmp_path, capsys, spec):
        path = write_model(tmp_path, spec)
        pts = tmp_path / "pts.json"
        pts.write_text("[[1.0, 2.0], [NaN, 1.0], [1.0, Infinity], [2.0, 3.0]]")
        code, out, _ = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert code == 1
        doc = json.loads(out)
        fails = [r for r in doc["results"] if r["status"] == "fail"]
        assert [r["claim"] for r in fails] == ["surface data at (nan, 1)", "surface data at (1, inf)"]
        assert all("non-finite" in r["witness"]["error"] for r in fails)
        summary = next(r for r in doc["results"] if r["claim"] == "stability classification summary")
        assert sum(summary["witness"][k] for k in ("stable", "unstable", "marginal")) == 2

    def test_non_finite_values_are_strings_in_strict_json(self, tmp_path, capsys):
        # the NaN point is refused; at x = 1e308 the pullback overflows to NaN
        path = write_model(tmp_path, {"model": "quadratic", "parameters": {"q": [[2.0, 0.5], [0.5, 1.0]]}})
        pts = tmp_path / "pts.json"
        pts.write_text("[[NaN, 1.0], [1e308, 2.0]]")
        code, out, err = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert code == 1 and "Traceback" not in err

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(out, parse_constant=reject)
        refused, overflowed = doc["results"][:2]
        assert refused["witness"]["point"] == ["NaN", 1.0]
        assert overflowed["status"] == "fail"
        assert overflowed["witness"]["block_agreement"] == "NaN"

    @pytest.mark.parametrize(
        "spec,point",
        [
            ({"model": "homogeneous_demo"}, [1e-320, 3.0]),
            ({"model": "homogeneous_demo"}, [1e308, 2.0]),
            ({"model": "ideal_gas_energy", "parameters": {}}, [0.0, 1e-300]),
        ],
    )
    def test_jet_overflow_is_a_witnessed_failure(self, tmp_path, capsys, spec, point):
        # each of these points used to end the run with a traceback
        path = write_model(tmp_path, spec)
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[1.0, 2.0], point, [2.0, 3.0]]))
        code, out, err = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert code == 1 and "Traceback" not in err
        first, bad, last = point_records(strict_json(out))
        assert bad["status"] == "fail" and bad["witness"]["point"] == point
        assert "float range" in bad["witness"]["error"] or "underflows" in bad["witness"]["error"]
        # the neighbours keep the records they get without the bad point
        pts.write_text(json.dumps([[1.0, 2.0], [2.0, 3.0]]))
        _, alone, _ = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert [first, last] == point_records(strict_json(alone))

    def test_nan_metric_is_a_degenerate_failure(self, tmp_path, capsys):
        # the NaN pullback used to reach the inversion of the singular block
        path = write_model(tmp_path, {"model": "quadratic", "parameters": {"q": [[1.0, 0.0], [0.0, 0.0]]}})
        pts = tmp_path / "pts.json"
        pts.write_text("[[1e308, 2.0]]")
        code, out, err = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert code == 1 and "Traceback" not in err
        (rec,) = point_records(strict_json(out))
        assert rec["status"] == "fail"
        assert rec["witness"]["degenerate_metric"] is True
        assert rec["witness"]["block_agreement"] == "NaN"

    @pytest.mark.parametrize("grid", ["0:1:1000000,0:1:1000000", "0:1:1001,0:1:1000"])
    def test_grid_over_the_cap_is_usage(self, tmp_path, capsys, monkeypatch, grid):
        def no_allocation(*args, **kwargs):
            raise AssertionError("an axis was built before the cap was checked")

        monkeypatch.setattr(cli.np, "linspace", no_allocation)
        path = write_model(tmp_path, VDW_LITERAL)
        code, out, err = run_cli(capsys, ["potential", "--model-file", path, "--grid", grid])
        assert code == 2 and out == ""
        assert "at most 1000000" in err and "Traceback" not in err

    def test_unknown_suite_is_usage(self, capsys):
        code, _, err = run_cli(capsys, ["verify-all", "--only", "nosuch"])
        assert code == 2 and "nosuch" in err


class TestKilling:
    """Solver dimensions reported through the envelope."""

    @pytest.mark.parametrize(
        "space,n,degree,dim",
        [("tps", 2, 2, 9), ("sympl", 1, 2, 8), ("tps", 1, 3, 4)],
    )
    def test_dimensions(self, capsys, space, n, degree, dim):
        code, out, _ = run_cli(
            capsys, ["killing", "--space", space, "--n", str(n), "--degree", str(degree)]
        )
        assert code == 0
        doc = json.loads(out)
        first = doc["results"][0]
        assert first["status"] == "exact-pass"
        assert first["witness"] == {"dimension": dim, "expected": dim}

    def test_degree_one_lifted_metric_is_not_applicable(self, capsys):
        code, out, _ = run_cli(capsys, ["killing", "--space", "sympl", "--n", "1", "--degree", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["status"] == "not-applicable"


class TestPotential:
    """Surface analysis over grids and point files."""

    def test_quadratic_grid_is_totally_geodesic(self, tmp_path, capsys):
        path = write_model(
            tmp_path, {"model": "quadratic", "parameters": {"q": [[2.0, 0.5], [0.5, 1.0]]}}
        )
        code, out, _ = run_cli(capsys, ["potential", "--model-file", path, "--grid=-1:1:4,-1:1:4"])
        assert code == 0
        doc = json.loads(out)
        row = next(r for r in doc["results"] if "totally geodesic" in r["claim"])
        assert row["status"] == "numeric-pass"
        assert row["witness"]["worst_ii_norm"] < 1e-12

    def test_vdw_literal_grid_has_an_indefinite_point(self, tmp_path, capsys):
        path = write_model(tmp_path, VDW_LITERAL)
        code, out, _ = run_cli(
            capsys, ["potential", "--model-file", path, "--grid", "0.5:2:10,1.5:3:10"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"]["point_count"] == 100
        summary = next(r for r in doc["results"] if r["claim"] == "stability classification summary")
        assert summary["witness"]["indefinite"] >= 1

    def test_homogeneous_demo_constitutive_residuals(self, tmp_path, capsys):
        path = write_model(tmp_path, {"model": "homogeneous_demo"})
        code, out, _ = run_cli(
            capsys, ["potential", "--model-file", path, "--grid", "0.5:2:5,0.2:1:5"]
        )
        assert code == 0
        doc = json.loads(out)
        row = next(r for r in doc["results"] if "scaling law" in r["claim"])
        assert row["witness"]["gibbs_duhem_residual"] < 1e-12
        assert row["witness"]["constitutive_residual"] < 1e-12

    def test_chunks_do_not_change_the_records(self, tmp_path, capsys, monkeypatch):
        path = write_model(tmp_path, {"model": "homogeneous_demo"})
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps(
            [[1.0, 2.0], [-1.0, 2.0], [1e308, 2.0], [0.5, 0.5], [float("nan"), 1.0],
             [2.0, -3.0], [1e-320, 3.0], [3.0, 1.0]]
        ))
        argv = ["potential", "--model-file", path, "--points-file", str(pts)]
        _, whole, _ = run_cli(capsys, argv)
        for chunk in (1, 2, 3):
            monkeypatch.setattr(cli, "CHUNK", chunk)
            code, out, _ = run_cli(capsys, argv)
            assert code == 1
            assert strict_json(out)["results"] == strict_json(whole)["results"]

    def test_points_file_gives_one_record_per_point(self, tmp_path, capsys):
        path = write_model(tmp_path, VDW_LITERAL)
        pts = tmp_path / "pts.json"
        pts.write_text("[[1.0, 2.0], [0.0, 3.0], [0.5, 1.6]]")
        code, out, _ = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert code == 0
        doc = json.loads(out)
        per_point = [r for r in doc["results"] if r["claim"].startswith("surface data at ")]
        assert len(per_point) == 3


class TestVerifyAll:
    """Aggregated run: filter, negative control, determinism."""

    def test_only_filter_and_negative_control(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-all", "--only", "legendre"])
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"]["suites"] == ["legendre"]
        control = doc["results"][-1]
        assert control["claim"].startswith("negative control")
        assert control["status"] == "exact-pass"
        assert control["witness"]["induced_failures"] >= 1

    def test_tamper_mode_fails_with_witnesses(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-all", "--tamper"])
        assert code == 1
        doc = json.loads(out)
        fails = [r for r in doc["results"] if r["status"] == "fail"]
        assert fails and all(r["witness"] for r in fails)

    def test_n_max_caps_the_suite_ranges(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-all", "--only", "tps", "--n-max", "1"])
        assert code == 0
        small = len(json.loads(out)["results"])
        code, out, _ = run_cli(capsys, ["verify-all", "--only", "tps"])
        assert code == 0
        assert small < len(json.loads(out)["results"])
        code, _, err = run_cli(capsys, ["verify-all", "--n-max", "0"])
        assert code == 2 and "--n-max" in err

    def test_two_runs_give_the_same_report(self, capsys):
        _, out1, _ = run_cli(capsys, ["verify-all", "--only", "tps,heisenberg"])
        _, out2, _ = run_cli(capsys, ["verify-all", "--only", "tps,heisenberg"])
        a, b = json.loads(out1), json.loads(out2)
        a["timing"] = b["timing"] = None
        assert a == b


# ----------------------------------------------------------------------
# fuzzing the potential command

SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 3.0, 1e308, -1e308, 1e-320, -1e-320, 1e-300, 1e154,
           float("nan"), float("inf"), -float("inf")]
numbers = st.one_of(st.sampled_from(SPECIAL), st.floats(), st.floats(-4.0, 4.0))
parameter_values = st.one_of(
    numbers, st.integers(-3, 3), st.booleans(), st.none(),
    st.sampled_from(["1/3", "0", "x", "1e400"]), st.lists(numbers, max_size=2),
)


@st.composite
def potential_inputs(draw):
    """A model description (often valid, sometimes not) and a points list
    (usually of the model's dimension)."""
    kind = draw(st.sampled_from(
        ["van_der_waals", "ideal_gas_energy", "quadratic", "linear", "homogeneous_demo", "nope"]
    ))
    spec, nvars = {"model": kind}, 2
    if kind == "quadratic":
        nvars = draw(st.integers(1, 3))
        upper = {(i, j): draw(numbers) for i in range(nvars) for j in range(i, nvars)}
        spec["parameters"] = {"q": [[upper[min(i, j), max(i, j)] for j in range(nvars)]
                                    for i in range(nvars)]}
        if draw(st.booleans()):
            spec["partition"] = draw(st.lists(st.integers(0, nvars + 1), max_size=2))
    elif kind == "linear":
        a = draw(st.one_of(st.lists(numbers, max_size=3), st.lists(st.lists(numbers, max_size=2), max_size=2)))
        spec["parameters"] = {"a": a}
        nvars = len(a) if a and not isinstance(a[0], list) else 2
    elif kind in ("van_der_waals", "ideal_gas_energy"):
        names = ["a", "b", "r", "c_v", "positive_exponent"] if kind == "van_der_waals" else ["r", "c_v"]
        spec["parameters"] = draw(st.dictionaries(st.sampled_from(names), parameter_values, max_size=3))
    if draw(st.booleans()):
        spec["convention"] = draw(st.sampled_from(["canonical", "graph", "other"]))
    width = draw(st.sampled_from([nvars, nvars, nvars, nvars + 1]))
    points = draw(st.lists(st.lists(numbers, min_size=width, max_size=width), max_size=5))
    return spec, points


@settings(max_examples=300, deadline=None)
@given(potential_inputs())
def test_potential_keeps_its_exit_code_contract(tmp_path_factory, inputs):
    """Any model file and points file: exit 0, 1 or 2, strict JSON unless
    the input was refused as a usage error, and no exception."""
    spec, points = inputs
    folder = tmp_path_factory.getbasetemp()
    model, pts = folder / "fuzz-model.json", folder / "fuzz-points.json"
    model.write_text(json.dumps(spec))
    pts.write_text(json.dumps(points))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["potential", "--model-file", str(model), "--points-file", str(pts)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 2:
        strict_json(out.getvalue())
