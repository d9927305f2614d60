"""End-to-end acceptance gate: every headline identity of the toolkit at its
stated tolerance, with wall-clock budgets on the heavy exact computations."""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from tpsgeo import cli, heisenberg, killing, legendre, suites, sympl, tps
from tpsgeo.curvature import (
    DegeneratePlaneError,
    SectionalForm,
    ricci_scalar,
    sectional,
)
from tpsgeo.fields import VectorField, bracket
from tpsgeo.jets import jet_fd_compare
from tpsgeo.poly import LaurentPoly


def rational_point(chart, rng):
    return {nm: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for nm in chart.names}


def computed_matches_closed_form(catalog, table) -> bool:
    """The computed structure constants of a labelled catalog equal a
    closed-form bracket table with its zero coefficients, and the rows they
    leave empty, dropped."""
    closed = {}
    for pair, row in table.items():
        kept = {c: v for c, v in row.items() if v}
        if kept:
            closed[pair] = kept
    return killing.structure_constants(catalog, killing._entries, bracket) == closed


class TestDeterminants:
    """Exact determinant signs for both metric families, under one second."""

    def test_det_signs_within_budget(self):
        t0 = time.perf_counter()
        for n in (1, 2, 3, 4):
            m = tps.phase_metric(n)
            assert m.det == LaurentPoly.constant(m.chart, Fraction((-1) ** n))
        for n in (1, 2, 3):
            m = sympl.sympl_metric(n)
            assert m.det == LaurentPoly.constant(m.chart, Fraction((-1) ** (n + 1)))
        assert time.perf_counter() - t0 < 1.0


class TestChristoffelTables:
    """The connection coefficients match their closed-form families exactly,
    with no stray nonzero entries, under five seconds."""

    def test_tables_verbatim_within_budget(self):
        t0 = time.perf_counter()
        for n in (1, 2, 3):
            got = tps.phase_metric(n).christoffel().nonzero()
            assert got == suites.expected_christoffel_tps(n)
        for n in (1, 2):
            got = sympl.sympl_metric(n).christoffel().nonzero()
            assert got == suites.expected_christoffel_sympl(n)
        assert time.perf_counter() - t0 < 5.0


class TestRicciAndTransform:
    """Ricci tensor, scalar n/2, and the frame-pair curvature table."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ricci_matrix_and_scalar(self, n):
        cur = ricci_scalar(tps.phase_metric(n))
        assert cur.ricci == suites.expected_ricci_tps(n)
        assert cur.scalar == Fraction(n, 2)

    @pytest.mark.parametrize("n", [1, 2])
    def test_transform_table_all_frame_pairs(self, n):
        res = suites._transform_table_result(n, tps.phase_metric(n))
        assert res.status == "exact-pass", res.witness


class TestSectionalCurvature:
    """Plane curvature 3/4 on conjugate pairs at 100 random rational points;
    four vanishing families; degenerate mixed planes rejected."""

    def setup_method(self):
        self.n = 2
        self.m = tps.phase_metric(self.n)
        self.t = tps.build(self.n)
        self.rng = random.Random(11)

    def test_conjugate_pairs_100_points(self):
        for k in range(100):
            i = k % self.n
            dxi = VectorField.coordinate(self.t.chart, f"x{i+1}")
            pt = rational_point(self.t.chart, self.rng)
            assert sectional(self.m, self.t.frame["P"][i], dxi, pt) == Fraction(3, 4)

    def test_four_zero_families(self):
        xi, P = self.t.frame["xi"], self.t.frame["P"]
        dx = [VectorField.coordinate(self.t.chart, f"x{i+1}") for i in range(self.n)]
        families = [(xi, P[0]), (xi, dx[0]), (P[0], P[1]), (dx[0], dx[1])]
        for a, b in families:
            for _ in range(5):
                pt = rational_point(self.t.chart, self.rng)
                assert SectionalForm(self.m, a, b).parts(pt) == (0, 0)

    def test_mixed_pair_raises(self):
        dx2 = VectorField.coordinate(self.t.chart, "x2")
        with pytest.raises(DegeneratePlaneError):
            sectional(self.m, self.t.frame["P"][0], dx2, rational_point(self.t.chart, self.rng))


class TestIsometrySolve:
    """Degree-2 solver recovers the full algebra: dimensions (n+1)^2, span
    equal to the catalog, closed-form brackets; n = 3 under twenty seconds."""

    @pytest.mark.parametrize("n,dim", [(1, 4), (2, 9), (3, 16)])
    def test_dimensions_span_and_brackets(self, n, dim):
        t0 = time.perf_counter()
        fields = killing.killing_solve(tps.phase_metric(n), 2)
        assert len(fields) == dim
        cat = [f for _, f in tps.killing_catalog(n)]
        assert killing.spans_equal(fields, cat)
        catalog = tps.killing_catalog(n)
        assert killing.bracket_failures(catalog, tps.catalog_brackets(n)) == []
        assert computed_matches_closed_form(catalog, tps.catalog_brackets(n))
        if n == 3:
            assert time.perf_counter() - t0 < 20.0


class TestLiftedMetric:
    """Einstein property, isometry dimensions 8 and 15, and the exact
    traceless-matrix bracket identification."""

    @pytest.mark.parametrize("n,dim", [(1, 8), (2, 15)])
    def test_einstein_dimensions_and_bracket_change(self, n, dim):
        rep = sympl.einstein_report(n)
        assert rep["passed"]
        assert rep["einstein_factor"] == Fraction(n + 2, 2)
        assert rep["scalar"] == (n + 1) * (n + 2)
        fields = killing.killing_solve(sympl.sympl_metric(n), 2)
        assert len(fields) == dim
        cat = [f for _, f in sympl.killing_catalog(n)]
        assert killing.spans_equal(fields, cat)
        assert sympl.sl_embedding_report(n)["passed"]


class TestConeComplexStructure:
    """Vanishing torsion on the cone with the -2 witness and the Reeb Ricci
    value -n/2."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_torsion_witnesses(self, n):
        rep = sympl.nijenhuis_report(n)
        assert rep["passed"]
        assert rep["torsion_failures"] == 0
        assert rep["remark_witness"] == "-2"
        assert rep["nonparallel_witness"] == "1"
        assert rep["ricci_reeb"] == Fraction(-n, 2)


class TestGroupModel:
    """Nilpotent group model: axioms, matrix exponential, pushforwards,
    invariant one-form, constant Gram."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_suite_is_green(self, n):
        results = suites.suite_heisenberg(n)
        bad = [r for r in results if r.status == "fail"]
        assert not bad, [r.claim for r in bad]

    @pytest.mark.parametrize("n", [1, 2])
    def test_invariance_details(self, n):
        rep = heisenberg.invariant_report(n)
        assert rep["right_translation_invariance"]
        assert rep["gram_constant"] and rep["gram_matches"]
        assert rep["xi_pushforwards"] and rep["eta_pushforwards_exact"]
        tr = heisenberg.translation_invariance_report(n)
        assert tr["right_preserves_theta"] and tr["right_preserves_metric"]
        assert tr["left_theta_defect_matches"]


class TestPotentialSurfaces:
    """Numeric surface geometry at its stated tolerances, under ten seconds."""

    def test_suite_within_budget(self):
        t0 = time.perf_counter()
        results = suites.suite_legendre()
        bad = [r for r in results if r.status == "fail"]
        assert not bad, [(r.claim, r.witness) for r in bad]
        assert time.perf_counter() - t0 < 10.0

    def test_headline_tolerances(self):
        rng = np.random.default_rng(5)
        vdw = legendre.van_der_waals()
        for _ in range(100):
            base = np.array([rng.uniform(-1.5, 1.5), rng.uniform(1.3, 4.0)])
            assert legendre.surface_point(vdw, base)["legendre_residual"] < 1e-12
            assert legendre.induced_metric(vdw, base)["block_agreement"] < 1e-10
        quad = legendre.quadratic([[2.0, 0.5], [0.5, 1.0]])
        for _ in range(20):
            rep = legendre.second_fundamental_form(quad, rng.uniform(-2.0, 2.0, size=2))
            assert rep["ii_norm"] < 1e-12
        cmp = jet_fd_compare(
            vdw.evaluator,
            vdw.plain,
            np.array([1.0, 2.0]),
            rel={0: 1e-8, 1: 1e-8, 2: 1e-8, 3: 1e-7},
        )
        assert cmp["passed"], cmp
        demo = legendre.homogeneous_demo()
        samples = [np.array([rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0)]) for _ in range(10)]
        hom = legendre.homogeneity_check(demo, samples)
        assert hom["constitutive_residual"] < 1e-12
        assert hom["gibbs_duhem_residual"] < 1e-12


class TestProjectiveStructure:
    """Scale-invariant charts with exact transitions, the cell metric blocks
    for every cell at n = 2, and the ideal-gas membership example."""

    def test_charts_cells_and_example(self):
        assert sympl.proj_report(2)["passed"]
        for k in (0, 1, 2):
            assert sympl.cell_report(2, k)["passed"]
        gas = sympl.ideal_gas_report(Fraction(2))
        assert gas["passed"] and gas["cell"] == 1


class TestNegativeControl:
    """A single sign flip in the metric must surface as documented failures
    in the curvature claims."""

    def test_tamper_produces_witnessed_failures(self):
        results = suites.tamper_suite()
        fails = [r for r in results if r.status == "fail"]
        assert len(fails) >= 1
        assert all(r.witness is not None for r in fails)
        claims = {r.claim for r in fails}
        assert any("Christoffel" in c or "Ricci" in c or "scalar" in c for c in claims)

    def test_tampered_ricci_names_the_entries_that_differ(self):
        ricci = {r.claim: r for r in suites.tamper_suite()}["Ricci tensor matches its closed form"]
        assert ricci.status == "fail"
        names = set(tps.tps_chart(2).names)
        wrong = ricci.witness["wrong_values"]
        assert wrong and all(len(w["key"]) == 2 and set(w["key"]) <= names for w in wrong)
        assert wrong[0] == {"key": ["p1", "x1"], "got": "3/2", "expected": "1/2"}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_control_runs_the_curvature_suite_claims(self, monkeypatch, n):
        # served the untampered metric, the negative control gives exactly
        # the curvature suite's own records for the claims it shares
        monkeypatch.setattr(suites, "tampered_metric", tps.phase_metric)
        control = [r.to_dict() for r in suites.tamper_suite(n)]
        real = {r.claim: r.to_dict() for r in suites.suite_curvature("tps", n)}
        assert [r["claim"] for r in control] == [
            "Christoffel symbols match the seven closed-form families and nothing else",
            "Ricci tensor matches its closed form",
            "scalar curvature equals n/2",
        ]
        assert control == [real[r["claim"]] for r in control]

    def test_control_result_passes(self):
        res = suites.negative_control_result()
        assert res.status == "exact-pass"
        assert res.witness["induced_failures"] >= 1


class TestFullRun:
    """The aggregated verification completes cleanly inside a minute."""

    def test_verify_all_under_sixty_seconds(self, tmp_path, capsys):
        out = tmp_path / "all.json"
        t0 = time.perf_counter()
        code = cli.main(["verify-all", "--out", str(out)])
        elapsed = time.perf_counter() - t0
        capsys.readouterr()
        assert code == 0
        assert elapsed < 60.0
        doc = json.loads(out.read_text())
        assert not [r for r in doc["results"] if r["status"] == "fail"]
        assert doc["results"][-1]["claim"].startswith("negative control")
