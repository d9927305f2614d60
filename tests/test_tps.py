"""Contact phase space: form, metric, frames, signature, almost contact
structure, Killing catalog, constitutive hypersurface."""

import functools
import math
from fractions import Fraction

import pytest

from tpsgeo.curvature import lie_derivative_metric
from tpsgeo.fields import Form, VectorField, apply_matrix_field
from tpsgeo.linalg import PolyMatrix, matrix_inverse_exact
from tpsgeo.poly import LaurentPoly
from tpsgeo import cli, killing, suites, tps


class TestContactForm:
    def setup_method(self):
        self.theta = tps.contact_form(2)
        self.frame = tps.canonical_frame(2)

    def test_reeb_pairing(self):
        assert self.theta(dict(self.frame)["xi"]) == 1

    def test_horizontal_frame_annihilated(self):
        for label, v in self.frame:
            assert self.theta(v) == (1 if label == "xi" else 0)

    def test_coordinate_field_pairing(self):
        chart = tps.tps_chart(2)
        dx2 = VectorField.coordinate(chart, "x2")
        assert self.theta(dx2) == LaurentPoly.variable(chart, "p2")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reeb_pinning(self, n):
        passed, witness = tps.reeb_pinning(n)
        assert passed and witness == {"kernel_dimension": 1}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_contact_volume_constant(self, n):
        want = Fraction(math.factorial(n) * (-1) ** (n * (n - 1) // 2))
        assert tps.contact_volume(n) == (True, {"coefficient": want, "expected": want})


class TestPhaseMetric:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_determinant(self, n):
        assert tps.phase_metric(n).det == LaurentPoly.constant(
            tps.tps_chart(n), Fraction((-1) ** n)
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_with_tensor_expansion(self, n):
        passed, witness = tps.metric_identity_check(n)
        assert passed and witness is None

    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_form_inverse_matches_adjugate(self, n):
        m = tps.phase_metric(n)
        inv, _det = matrix_inverse_exact(m.g)
        assert inv == m.g_inv

    def test_inverse_blocks_n2(self):
        m = tps.phase_metric(2)
        c = m.chart
        i_x0, i_p1, i_x1 = c.index("x0"), c.index("p1"), c.index("x1")
        assert m.g_inv.entries[i_x0][i_x0] == 1
        assert m.g_inv.entries[i_x0][i_p1] == -LaurentPoly.variable(c, "p1")
        assert m.g_inv.entries[i_x0][i_x1].is_zero()
        assert m.g_inv.entries[i_p1][i_x1] == 1
        assert m.g_inv.entries[i_x1][i_x1].is_zero()


class TestFramesAndSplit:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_commutators(self, n):
        passed, witness = tps.frame_commutator_table(n)
        assert passed and witness is None

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symplectic_gram(self, n):
        passed, witness = tps.symplectic_gram_on_horizontal(n)
        assert passed and witness is None

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_signature_split(self, n):
        passed, witness = tps.split_report(n)
        assert passed
        assert witness == {"normalized_diagonal": [1] * (n + 1) + [-1] * n}

    def test_split_norm_values(self):
        plus, minus = tps.signature_split(2)
        assert [q for _, q in plus] == [1, Fraction(1, 2), Fraction(1, 2)]
        assert [q for _, q in minus] == [Fraction(-1, 2), Fraction(-1, 2)]

    def test_light_cone_examples(self):
        n = 1
        frame = dict(tps.canonical_frame(n))
        pt = {"x0": 0, "p1": 3, "x1": -2}
        xi, P1, X1 = frame["xi"], frame["P1"], frame["X1"]
        assert tps.light_cone_class(n, xi, pt) == "positive"
        assert tps.light_cone_class(n, (P1 - X1).scale(Fraction(1, 2)), pt) == "negative"
        null = xi + P1 - X1.scale(Fraction(1, 2))
        assert tps.light_cone_class(n, null, pt) == "null"
        # P and X alone are null too
        assert tps.light_cone_class(n, P1, pt) == "null"
        assert tps.light_cone_class(n, X1, pt) == "null"


class TestAlmostContact:
    @pytest.mark.parametrize("n", [1, 2])
    def test_compatibility(self, n):
        (phi_ok, phi_witness), (modified_ok, modified_witness), (classical_ok, _) = (
            tps.compatibility_check(n)
        )
        assert phi_ok and phi_witness == {"rank_phi": 2 * n}
        assert modified_ok and modified_witness is None
        assert classical_ok
        # phi(xi) = 0 and theta o phi = 0, which the phi^2 claim rests on
        chart, theta = tps.tps_chart(n), tps.contact_form(n)
        phi = tps.almost_contact_tensor(n)
        assert apply_matrix_field(phi, dict(tps.canonical_frame(n))["xi"]).is_zero()
        for nm in chart.names:
            assert theta(apply_matrix_field(phi, VectorField.coordinate(chart, nm))).is_zero()

    def test_witness_values(self):
        _, _, (_, witness) = tps.compatibility_check(1)
        assert witness == {"lhs_vs_rhs": ("-1", "1")}

    def test_phi_action_on_frame(self):
        n = 2
        frame = dict(tps.canonical_frame(n))
        phi = tps.almost_contact_tensor(n)
        assert apply_matrix_field(phi, frame["xi"]).is_zero()
        for i in range(1, n + 1):
            assert apply_matrix_field(phi, frame[f"X{i}"]) == frame[f"P{i}"]
            assert apply_matrix_field(phi, frame[f"P{i}"]) == frame[f"X{i}"].scale(-1)


class TestKillingCatalog:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_catalog_fields_are_killing(self, n):
        rep = killing.catalog_report(tps.phase_metric(n), tps.killing_catalog(n), n * n + 2 * n + 1)
        assert rep["passed"]
        assert rep["count"] == n * n + 2 * n + 1

    def test_flipped_a_field_is_not_killing(self):
        # the same field with +d/dp_i instead of -d/dp_i fails
        n = 1
        g = tps.phase_metric(n)
        c = g.chart
        bad = VectorField.from_dict(c, {"x0": LaurentPoly.variable(c, "x1"), "p1": 1})
        assert not lie_derivative_metric(g, bad).is_zero()

    def test_hamiltonians(self):
        # contact Hamiltonian H_X = theta(X) of every catalog generator
        n = 2
        theta = tps.contact_form(n)
        h = {label: theta(field) for label, field in tps.killing_catalog(n)}
        c = tps.tps_chart(n)

        def var(nm):
            return LaurentPoly.variable(c, nm)

        assert h["xi"] == LaurentPoly.one(c)
        for j in range(1, n + 1):
            assert h[f"A{j}"] == var(f"x{j}")
            assert h[f"B{j}"] == -var(f"p{j}")
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                assert h[f"Q{k}_{l}"] == -var(f"x{k}") * var(f"p{l}")


class TestConstitutiveHypersurface:
    def setup_method(self):
        self.h = tps.ConstitutiveHypersurface(2)

    def test_membership(self):
        assert self.h.defining.evaluate({"x0": -2, "p1": 1, "x1": 2, "p2": 0, "x2": 7}) == 0
        assert self.h.defining.evaluate({"x0": 1, "p1": 1, "x1": 2, "p2": 0, "x2": 7}) != 0

    def test_generator_count(self):
        # n theta-horizontal lifts plus n(n-1)/2 rotations
        assert len(self.h.generators()) == 2 + 1

    def test_generator_report(self):
        passed, witness = self.h.generator_report()
        assert passed
        assert witness == {"generators": ["P1_2", "X1", "X2"]}

    def test_horizontal_generators_are_the_canonical_frame(self):
        gens = dict(self.h.generators())
        frame = dict(tps.canonical_frame(2))
        assert [gens["X1"], gens["X2"]] == [frame["X1"], frame["X2"]]

    def test_differential_identity(self):
        assert self.h.differential_identity()
        assert tps.ConstitutiveHypersurface(3).differential_identity()


def test_one_flipped_entry_in_the_bracket_table_fails_that_pair(monkeypatch):
    # [A_1, B_1] = xi becomes -xi
    original = tps.catalog_brackets

    def flipped(n):
        table = original(n)
        table["A1", "B1"] = {"xi": -1}
        return table

    monkeypatch.setattr(tps, "catalog_brackets", flipped)
    for n in (1, 2):
        claims = {r.claim: r for r in suites.suite_killing("tps", n, 2)}
        claim = claims["catalog brackets match the closed-form structure constants"]
        assert claim.status == "fail"
        assert claim.witness == {"failing_brackets": ["[A1,B1]"]}


def test_a_catalog_without_b1_fails_the_catalog_claim_with_its_count(monkeypatch, clear_caches):
    # the catalog's fields are all Killing, but one is missing: the failing
    # witness shows the count next to the expected one
    build = tps.killing_catalog.__wrapped__
    trimmed = functools.cache(lambda n: tuple(e for e in build(n) if e[0] != "B1"))
    monkeypatch.setattr(tps, "killing_catalog", trimmed)
    for n in (1, 2):
        claims = {r.claim: r for r in suites.suite_killing("tps", n, 2)}
        claim = claims["every catalog field is a metric isometry generator"]
        assert claim.status == "fail"
        size = (n + 1) ** 2
        assert claim.witness == {"non_killing": [], "count": size - 1, "expected_count": size}
        assert claims["solved span equals the catalog span"].status == "fail"


def test_theta_of_phi_not_zero_fails_the_phi_squared_claim(monkeypatch):
    # phi(d/dp_1) gains a d/dx0 term, so theta(phi(d/dp_1)) = 1
    original = tps.almost_contact_tensor

    def tampered(n):
        phi = original(n)
        rows = [row[:] for row in phi.entries]
        p1 = phi.chart.index("p1")
        rows[0][p1] = rows[0][p1] + 1
        return PolyMatrix(phi.chart, rows)

    monkeypatch.setattr(tps, "almost_contact_tensor", tampered)
    for n in (1, 2):
        chart = tps.tps_chart(n)
        bent = apply_matrix_field(tps.almost_contact_tensor(n), VectorField.coordinate(chart, "p1"))
        assert tps.contact_form(n)(bent) == 1
        claims = {r.claim: r for r in suites.suite_tps(n)}
        claim = claims["phi^2 = -I + theta (x) xi with rank(phi) = 2n"]
        assert claim.status == "fail"
        assert claim.witness == {"rank_phi": None}


# the rows whose claim does not apply: the sympl degree-1 dimension check,
# the mixed sectional pair at n = 1 and the scaling claim of a
# non-homogeneous potential
NOT_APPLICABLE = [
    "dimension check for the lifted metric",
    "mixed pair (P_1, d/dx^2) is rejected as a degenerate plane",
    "scaling checks for a non-homogeneous potential",
]


@pytest.mark.parametrize("n", [1, 2, None])
def test_every_structure_claim_gets_a_bool_verdict(monkeypatch, n):
    # a (passed, witness) pair or a numpy bool would pass as truthy: every
    # result comes from a _claims row whose verdict is the bool itself, or
    # None where the claim does not apply; n caps every verify-all suite
    rows = []
    original = suites._claims

    def recording(*claim_rows, **kwargs):
        rows.extend((text, passed) for text, _, (passed, _) in claim_rows)
        return original(*claim_rows, **kwargs)

    monkeypatch.setattr(suites, "_claims", recording)
    results = [r for suite in suites.SUITES.values() for r in suite(n)]
    results += suites.tamper_suite() + suites.suite_killing("sympl", 1, 1)
    assert [r.claim for r in results] == [text for text, _ in rows]
    assert {type(passed) for _, passed in rows} == {bool, type(None)}
    assert sorted(text for text, passed in rows if passed is None) == sorted(NOT_APPLICABLE)


def squared_contact_form(n):
    """theta = dx0 + sum p_l^2 dx^l: d theta = 2 sum p_l dp_l ^ dx^l is not
    constant."""
    chart = tps.tps_chart(n)
    coeffs = {"x0": LaurentPoly.one(chart)}
    for l in range(1, n + 1):
        p = LaurentPoly.variable(chart, f"p{l}")
        coeffs[f"x{l}"] = p * p
    return Form.one_form(chart, coeffs)


def test_a_nonconstant_contact_volume_fails_its_claim(monkeypatch, clear_caches, capsys):
    monkeypatch.setattr(tps, "contact_form", squared_contact_form)
    for n in (1, 2):
        claims = {r.claim: r for r in suites.suite_tps(n)}
        claim = claims["theta ^ (d theta)^n is the chart volume up to the exact constant"]
        assert claim.status == "fail"
        want = Fraction(math.factorial(n) * (-1) ** (n * (n - 1) // 2))
        assert claim.witness == {"coefficient": None, "expected": want}
    assert cli.main(["verify-all", "--only", "tps"]) == 1
    assert "Traceback" not in capsys.readouterr().err


def scaled_contact_form(i, factor):
    """theta with its p_i dx^i term scaled: dp_i ^ dx^i has coefficient
    factor in dtheta."""

    def build(n):
        chart = tps.tps_chart(n)
        coeffs = {"x0": LaurentPoly.one(chart)}
        for l in range(1, n + 1):
            coeffs[f"x{l}"] = LaurentPoly.variable(chart, f"p{l}") * (factor if l == i else 1)
        return Form.one_form(chart, coeffs)

    return build


@pytest.mark.parametrize("n, i, factor", [(1, 1, 2), (2, 1, 2), (2, 2, 2), (3, 2, 2), (2, 1, -1)])
def test_a_scaled_plane_fails_the_contact_volume_claim(monkeypatch, clear_caches, n, i, factor):
    monkeypatch.setattr(tps, "contact_form", scaled_contact_form(i, factor))
    claims = {r.claim: r for r in suites.suite_tps(n)}
    claim = claims["theta ^ (d theta)^n is the chart volume up to the exact constant"]
    want = Fraction(math.factorial(n) * (-1) ** (n * (n - 1) // 2))
    assert claim.status == "fail"
    assert claim.witness == {"coefficient": factor * want, "expected": want}


def test_a_nonconstant_d_theta_fails_the_reeb_claim(monkeypatch, clear_caches):
    monkeypatch.setattr(tps, "contact_form", squared_contact_form)
    for n in (1, 2):
        claims = {r.claim: r for r in suites.suite_tps(n)}
        claim = claims["Reeb field is pinned by theta(xi)=1 and xi in ker(d theta)"]
        assert claim.status == "fail"
        pairs = [[f"p{l}", f"x{l}"] for l in range(1, n + 1)]
        assert claim.witness == {"kernel_dimension": None, "nonconstant": pairs}
