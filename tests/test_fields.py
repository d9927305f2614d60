"""Vector fields, exterior algebra, and polynomial maps."""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpsgeo import sympl, tps
from tpsgeo.fields import (
    Form, PolyMap, VectorField, bracket, skew_rows, sym2, tensor2, top_coefficient,
)
from tpsgeo.linalg import PolyMatrix, bareiss_det
from tpsgeo.poly import Chart, LaurentPoly

CH = Chart(["x0", "p1", "x1"], invertible=["p1"])


def var(name, power=1):
    return LaurentPoly.variable(CH, name, power)


def coord(name):
    return VectorField.coordinate(CH, name)


class TestVectorFields:
    def test_apply(self):
        x = coord("p1")
        f = var("p1") * var("x1")
        assert x.apply(f) == var("x1")

    def test_bracket_coordinate_fields_commute(self):
        assert bracket(coord("p1"), coord("x1")).is_zero()

    def test_bracket_frozen(self):
        # [p d/dp, p^-1 d/dx] = -p^-1 d/dx  (scaling vs translation weight)
        p = var("p1")
        a = VectorField.from_dict(CH, {"p1": p})
        b = VectorField.from_dict(CH, {"x1": p.inverse()})
        assert bracket(a, b) == b.scale(-1)

    def test_bracket_antisymmetry_and_self(self):
        a = VectorField.from_dict(CH, {"x0": var("p1") ** 2, "x1": var("x0")})
        b = VectorField.from_dict(CH, {"p1": var("x1"), "x0": 1})
        assert bracket(a, b) == bracket(b, a).scale(-1)
        assert bracket(a, a).is_zero()


class TestForms:
    def test_d_squared_zero(self):
        f = Form.function(CH, var("x0") * var("p1") ** 2 + var("x1"))
        assert f.d().d().is_zero()

    def test_wedge_anticommutes(self):
        dp, dx = Form.d_coord(CH, "p1"), Form.d_coord(CH, "x1")
        assert dp.wedge(dx) == dx.wedge(dp).scale(-1)
        assert dp.wedge(dp).is_zero()

    def test_contact_top_form(self):
        # theta ^ dtheta = dx0 ^ dp1 ^ dx1 for theta = dx0 + p1 dx1
        theta = Form.one_form(CH, {"x0": 1, "x1": var("p1")})
        top = theta.wedge(theta.d())
        vol = functools.reduce(Form.wedge, [Form.d_coord(CH, nm) for nm in ["x0", "p1", "x1"]])
        assert top == vol

    def test_insert(self):
        theta = Form.one_form(CH, {"x0": 1, "x1": var("p1")})
        assert theta(coord("x0")) == 1
        assert theta(coord("x1")) == var("p1")
        omega = theta.d()  # dp1 ^ dx1
        assert omega(coord("p1"), coord("x1")) == 1
        assert omega(coord("x1"), coord("p1")) == -1

    def test_evaluation_antisymmetry_binomial(self):
        omega = Form(CH, 2, {(0, 1): var("x1"), (1, 2): LaurentPoly.one(CH)})
        a = VectorField.from_dict(CH, {"x0": var("p1"), "p1": 1})
        b = VectorField.from_dict(CH, {"p1": var("x0"), "x1": 2})
        assert omega(a, b) == -omega(b, a)

    def test_lie_derivative_of_invariant_form(self):
        # translation in x0 preserves theta
        theta = Form.one_form(CH, {"x0": 1, "x1": var("p1")})
        assert theta.lie_derivative(coord("x0")).is_zero()
        # translation in p1 does not
        assert not theta.lie_derivative(coord("p1")).is_zero()

    def test_cartan_vs_definition_on_function(self):
        f = Form.function(CH, var("p1") * var("x1"))
        x = VectorField.from_dict(CH, {"p1": var("x0"), "x1": 1})
        assert f.lie_derivative(x).terms[()] == x.apply(var("p1") * var("x1"))

    def test_coefficient_sign(self):
        # terms are keyed by increasing indices: dx1 ^ dp1 = -dp1 ^ dx1
        omega = Form.d_coord(CH, "x1").wedge(Form.d_coord(CH, "p1"))
        assert omega.terms == {(CH.index("p1"), CH.index("x1")): -1}
        assert omega(coord("p1"), coord("x1")) == -1
        assert omega(coord("x1"), coord("p1")) == 1


class TestTensors:
    def test_sym2_tensor2(self):
        dp, dx = Form.d_coord(CH, "p1"), Form.d_coord(CH, "x1")
        s = sym2(dp, dx)
        ip, ix = CH.index("p1"), CH.index("x1")
        assert s.entries[ip][ix] == Fraction(1, 2)
        assert s.entries[ix][ip] == Fraction(1, 2)
        t = tensor2(dp, dx)
        assert t.entries[ip][ix] == 1
        assert t.entries[ix][ip].is_zero()


class TestPolyMap:
    def setup_method(self):
        # scaling map (x0, p1, x1) -> (x0, 2 p1, x1 / 2) with exact inverse
        fwd = {
            "x0": var("x0"),
            "p1": 2 * var("p1"),
            "x1": var("x1") * Fraction(1, 2),
        }
        bwd = {
            "x0": var("x0"),
            "p1": var("p1") * Fraction(1, 2),
            "x1": 2 * var("x1"),
        }
        inv = PolyMap(CH, CH, bwd)
        self.m = PolyMap(CH, CH, fwd, inverse=inv)

    def test_pull_function(self):
        assert self.m.pull_function(var("p1") * var("x1")) == var("p1") * var("x1")

    def test_pull_form_preserves_contact_form(self):
        theta = Form.one_form(CH, {"x0": 1, "x1": var("p1")})
        assert self.m.pull_form(theta) == theta

    def test_pull_form_jacobian_consistency(self):
        # pullback of d(coordinate) = d(component)
        dx1 = Form.d_coord(CH, "x1")
        assert self.m.pull_form(dx1) == Form.one_form(CH, {"x1": Fraction(1, 2)})

    def test_push_field(self):
        # pushforward of d/dp1 under p -> 2p is 2 d/dp1
        assert self.m.push_field(coord("p1")) == coord("p1").scale(2)

    def test_push_bracket_homomorphism(self):
        a = VectorField.from_dict(CH, {"p1": var("x1"), "x0": 1})
        b = VectorField.from_dict(CH, {"x1": var("p1") ** 2})
        lhs = self.m.push_field(bracket(a, b))
        rhs = bracket(self.m.push_field(a), self.m.push_field(b))
        assert lhs == rhs

    def test_pull_metric(self):
        g = PolyMatrix.identity(CH, 3)
        pulled = self.m.pull_metric(g)
        ip, ix = CH.index("p1"), CH.index("x1")
        assert pulled.entries[ip][ip] == 4
        assert pulled.entries[ix][ix] == Fraction(1, 4)

    def test_compose_with_inverse_is_identity(self):
        comp = self.m.inverse_map.compose(self.m)
        assert comp.comps == {nm: LaurentPoly.variable(CH, nm) for nm in CH.names}


class TestFrozenParameters:
    """Pullbacks along a family of maps with a frozen parameter symbol: the
    scaling (p, x) -> (lam p, x / lam) of the symplectization."""

    def setup_method(self):
        self.f = sympl.hyperbolic_map(1)
        self.chart = self.f.src
        self.theta = sympl.tautological_form(1).with_chart(self.chart)

    def v(self, name, power=1):
        return LaurentPoly.variable(self.chart, name, power)

    def test_pull_form_drops_the_parameter_differential(self):
        # unfrozen: theta - (sum p_i x^i) lam^-1 dlam; frozen: theta itself
        pairing = self.v("p0") * self.v("x0") + self.v("p1") * self.v("x1")
        dlam = Form.one_form(self.chart, {"lam": pairing * self.v("lam", -1)})
        assert self.f.pull_form(self.theta) == self.theta - dlam
        assert self.f.pull_form(self.theta, {"lam"}) == self.theta
        omega = self.theta.d()
        assert self.f.pull_form(omega, {"lam"}) == omega

    @pytest.mark.parametrize("c", [Fraction(2), Fraction(-1, 3)])
    def test_pull_form_is_the_slice_wise_pullback(self, c):
        # at lam = c the frozen pullback is the pullback along the map with
        # lam replaced by c, for a form that the scaling does not preserve
        v = self.v
        omega = Form.one_form(self.chart, {"p0": v("x1") * v("p1"), "x0": v("p0") ** 2})
        at_c = PolyMap(
            self.chart,
            self.chart,
            {nm: LaurentPoly.constant(self.chart, c) if nm == "lam" else v(nm) for nm in self.chart.names},
        )
        frozen = self.f.pull_form(omega, {"lam"})
        assert all(self.chart.index("lam") not in idx for idx in frozen.terms)
        assert at_c.pull_form(frozen) == self.f.compose(at_c).pull_form(omega)

    def test_pull_metric_zeroes_the_parameter_rows(self):
        g = sympl.sympl_metric(1).g.with_chart(self.chart)
        assert self.f.pull_metric(g, {"lam"}) == g
        assert self.f.pull_metric(g) != g


class TestChartLifts:
    """with_chart on Form and PolyMatrix, against the element-wise lifts
    of the contact form and the phase metric onto a parameter chart."""

    n = 2

    def setup_method(self):
        base = tps.tps_chart(self.n)
        self.base = base
        self.ext = base.extend(["ga1", "ga2", "gb1", "gb2", "gc"])

    def test_contact_form(self):
        ext = self.ext
        terms = {"x0": LaurentPoly.one(ext)}
        for i in range(1, self.n + 1):
            terms[f"x{i}"] = LaurentPoly.variable(ext, f"p{i}")
        assert tps.contact_form(self.n).with_chart(ext) == Form.one_form(ext, terms)

    def test_two_form_keeps_its_sign_on_a_reordered_chart(self):
        chart = Chart(["x1", "p1", "x0"])
        omega = Form.d_coord(CH, "p1").wedge(Form.d_coord(CH, "x1")).scale(var("x0"))
        lifted = omega.with_chart(chart)
        # on (x1, p1, x0) the term is keyed (x1, p1), so its sign flips
        assert lifted.terms == {(0, 1): -LaurentPoly.variable(chart, "x0")}

    def test_phase_metric(self):
        ext = self.ext
        g = tps.phase_metric(self.n).g
        z = LaurentPoly.zero(ext)
        out = [[z] * ext.dim for _ in range(ext.dim)]
        for a, nma in enumerate(self.base.names):
            for b, nmb in enumerate(self.base.names):
                out[ext.index(nma)][ext.index(nmb)] = g.entries[a][b].with_chart(ext)
        assert g.with_chart(ext) == PolyMatrix(ext, out)


# property test: d^2 = 0 and Cartan formula on random 1-forms

coeff_polys = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=-1, max_value=2),
        st.integers(min_value=0, max_value=2),
    ),
    st.integers(min_value=-3, max_value=3).map(Fraction),
    max_size=3,
).map(lambda d: LaurentPoly(CH, d))


@settings(max_examples=60, deadline=None)
@given(coeff_polys, coeff_polys, coeff_polys)
def test_d_squared_zero_random(a, b, c):
    alpha = Form(CH, 1, {(0,): a, (1,): b, (2,): c})
    assert alpha.d().d().is_zero()


@settings(max_examples=60, deadline=None)
@given(coeff_polys, coeff_polys)
def test_lie_derivative_commutes_with_d(a, b):
    alpha = Form(CH, 1, {(0,): a, (2,): b})
    x = VectorField.from_dict(CH, {"p1": b, "x1": a})
    lhs = alpha.d().lie_derivative(x)
    rhs = alpha.lie_derivative(x).d()
    assert lhs == rhs


vector_fields = st.lists(coeff_polys, min_size=3, max_size=3).map(
    lambda comps: VectorField(CH, comps)
)


@settings(max_examples=80, deadline=None)
@given(vector_fields, vector_fields)
def test_bracket_from_the_cached_jacobians_matches_the_formula(x, y):
    # [X, Y]^k = X^i d_i Y^k - Y^i d_i X^k over every i, with each partial
    # taken here
    expect = []
    for xk, yk in zip(x.comps, y.comps):
        acc = LaurentPoly.zero(CH)
        for xi, yi, nm in zip(x.comps, y.comps, CH.names):
            acc = acc + xi * yk.partial(nm) - yi * xk.partial(nm)
        expect.append(acc)
    expect = VectorField(CH, expect)
    assert bracket(x, y) == expect
    # a second bracket reads the Jacobians built by the first
    assert bracket(x, y) == expect
    assert bracket(y, x) == expect.scale(-1)
    assert x.jacobian() == tuple(
        tuple((i, p) for i, p in enumerate(c.partial(nm) for nm in CH.names) if not p.is_zero())
        for c in x.comps
    )


# top-degree coefficients: the Pfaffian against the wedge-power expansion


def wedge_power_coefficient(omega, alpha=None):
    """The coefficient of omega^m/m! (or alpha ^ omega^m/m!) on the
    chart-ordered volume, m = dim // 2, by m repeated Form.wedge calls: the
    expansion the volume claims made before they read top_coefficient.  On
    d coordinates omega^k has up to C(d, 2k) terms, so it suits small charts."""
    chart = omega.chart
    m = chart.dim // 2
    top = Form.function(chart, LaurentPoly.one(chart)) if alpha is None else alpha
    for _ in range(m):
        top = top.wedge(omega)
    coef = top.terms.get(tuple(range(chart.dim)), LaurentPoly.zero(chart))
    return coef * Fraction(1, math.factorial(m))


@st.composite
def two_forms(draw, polynomial=False):
    """A 2-form and a 1-form on a chart of 1 to 7 coordinates, with entries
    in -3..3, times the first coordinate for some entries if polynomial."""
    dim = draw(st.integers(1, 7))
    chart = Chart([f"y{i}" for i in range(dim)])

    def entry():
        c = LaurentPoly.constant(chart, draw(st.integers(-3, 3)))
        return c * LaurentPoly.variable(chart, "y0") if polynomial and draw(st.booleans()) else c

    omega = Form(chart, 2, {(a, b): entry() for a in range(dim) for b in range(a + 1, dim)})
    return omega, Form(chart, 1, {(a,): entry() for a in range(dim)})


@settings(max_examples=80, deadline=None)
@given(two_forms())
def test_the_pfaffian_squares_to_the_determinant(forms):
    omega, _ = forms
    chart = omega.chart
    zero = LaurentPoly.zero(chart)
    matrix = PolyMatrix(chart, [[row.get(b, zero) for b in range(chart.dim)] for row in skew_rows(omega)])
    assert matrix.transpose() == matrix.scale(-1)
    pf = top_coefficient(omega)
    assert pf * pf == bareiss_det(matrix)
    if chart.dim % 2:
        assert pf.is_zero()


@settings(max_examples=80, deadline=None)
@given(two_forms(polynomial=True))
def test_top_coefficient_is_the_wedge_power_coefficient(forms):
    omega, alpha = forms
    assert top_coefficient(omega) == wedge_power_coefficient(omega)
    assert top_coefficient(omega, alpha) == wedge_power_coefficient(omega, alpha)


class TestVolumeClaims:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_the_contact_volume_is_the_wedge_power_expansion(self, n):
        theta = tps.contact_form(n)
        want = wedge_power_coefficient(theta.d(), theta) * math.factorial(n)
        passed, witness = tps.contact_volume(n)
        assert passed and witness["coefficient"] == want.constant_value()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_the_symplectic_volume_is_the_wedge_power_expansion(self, n):
        chart = sympl.sympl_chart(n)
        omega = sympl.tautological_form(n).d()
        top = functools.reduce(Form.wedge, [omega] * (n + 1)).scale(Fraction(1, math.factorial(n + 1)))
        planes = functools.reduce(
            Form.wedge,
            [Form.d_coord(chart, f"p{i}").wedge(Form.d_coord(chart, f"x{i}")) for i in range(n + 1)],
        )
        passed, witness = sympl.volume_report(n)
        assert top == planes and passed
        assert witness == {"pfaffian_sign": wedge_power_coefficient(omega).constant_value()}

    def test_the_volume_and_reeb_claims_pass_at_n_16(self):
        # the wedge-power expansion needs over 20 s for the contact volume
        # here; a return of it shows as a slow tier-1 run
        want = Fraction(math.factorial(16))
        assert tps.contact_volume(16) == (True, {"coefficient": want, "expected": want})
        assert tps.reeb_pinning(16) == (True, {"kernel_dimension": 1})
        assert sympl.volume_report(16) == (True, {"pfaffian_sign": 1})
