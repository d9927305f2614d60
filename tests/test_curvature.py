"""Generic curvature pipeline: flat space, hyperbolic plane, and the frozen
tables for the contact phase-space metric."""

import random
from fractions import Fraction

import pytest

from tpsgeo.curvature import (
    DegeneratePlaneError,
    MetricSpec,
    SectionalForm,
    apply_rows,
    covariant_derivative,
    lie_derivative_metric,
    ricci_scalar,
    riemann_operator,
    riemann_tensor,
    riemann_transform,
    sectional,
    trace_form,
)
from tpsgeo.fields import VectorField, bracket, pairing
from tpsgeo.linalg import PolyMatrix
from tpsgeo.poly import Chart, LaurentPoly
from tpsgeo import cli, curvature, suites, sympl, tps

HALF = Fraction(1, 2)


def flat_metric(dim=3):
    chart = Chart([f"z{i}" for i in range(dim)])
    return MetricSpec("flat", chart, PolyMatrix.identity(chart, dim))


class TestFlat:
    def test_christoffel_zero(self):
        m = flat_metric()
        assert not m.christoffel().nonzero()

    def test_curvature_zero(self):
        cur = ricci_scalar(flat_metric())
        assert cur.ricci.is_zero()
        assert cur.scalar.is_zero()

    def test_trace_form_zero(self):
        assert all(c.is_zero() for c in trace_form(flat_metric()))


class TestHyperbolicPlane:
    """Upper half plane, g = (dx^2 + dy^2)/y^2: a known curved benchmark."""

    def setup_method(self):
        chart = Chart(["x", "y"], invertible=["y"])
        y2inv = LaurentPoly.variable(chart, "y", -2)
        z = LaurentPoly.zero(chart)
        g = PolyMatrix(chart, [[y2inv, z], [z, y2inv]])
        self.m = MetricSpec("hyperbolic", chart, g)
        self.chart = chart

    def test_christoffel(self):
        yinv = LaurentPoly.variable(self.chart, "y", -1)
        expect = {
            ("x", "x", "y"): -yinv,
            ("y", "x", "x"): yinv,
            ("y", "y", "y"): -yinv,
        }
        assert self.m.christoffel().nonzero() == expect

    def test_einstein_and_scalar(self):
        cur = ricci_scalar(self.m)
        assert cur.ricci == self.m.g.scale(-1)
        assert cur.scalar == -2

    def test_sectional_constant_minus_one(self):
        ex = VectorField.coordinate(self.chart, "x")
        ey = VectorField.coordinate(self.chart, "y")
        for pt in [{"x": 0, "y": 1}, {"x": 3, "y": Fraction(1, 2)}]:
            assert sectional(self.m, ex, ey, pt) == -1


def expected_tps_christoffel(n):
    chart = tps.tps_chart(n)
    p = {i: LaurentPoly.variable(chart, f"p{i}") for i in range(1, n + 1)}
    out = {}
    for i in range(1, n + 1):
        out[("x0", "x0", f"x{i}")] = p[i] * HALF
        out[("x0", f"p{i}", f"x{i}")] = LaurentPoly.constant(chart, HALF)
        out[(f"p{i}", "x0", f"p{i}")] = LaurentPoly.constant(chart, HALF)
        out[(f"x{i}", "x0", f"x{i}")] = LaurentPoly.constant(chart, -HALF)
        for j in range(1, n + 1):
            if i <= j:
                out[("x0", f"x{i}", f"x{j}")] = p[i] * p[j]
            out[(f"p{i}", f"p{i}", f"x{j}")] = p[j] * HALF
            lo, hi = min(i, j), max(i, j)
            key = (f"x{i}", f"x{lo}", f"x{hi}")
            val = LaurentPoly.zero(chart)
            if i == lo:
                val = val + p[hi] * (-HALF)
            if i == hi:
                val = val + p[lo] * (-HALF)
            if not val.is_zero():
                out[key] = val
    return out


def tps_frame(n):
    """(xi, [P1..Pn], [X1..Xn]) of the canonical frame of the phase space."""
    frame = dict(tps.canonical_frame(n))
    rng = range(1, n + 1)
    return frame["xi"], [frame[f"P{i}"] for i in rng], [frame[f"X{i}"] for i in rng]


class TestTpsCurvature:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_christoffel_table_verbatim(self, n):
        got = tps.phase_metric(n).christoffel().nonzero()
        assert got == expected_tps_christoffel(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trace_form_vanishes(self, n):
        assert all(c.is_zero() for c in trace_form(tps.phase_metric(n)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ricci_matrix_and_scalar(self, n):
        m = tps.phase_metric(n)
        cur = ricci_scalar(m)
        chart = m.chart
        z = LaurentPoly.zero(chart)
        half_n = Fraction(n, 2)
        expect = [[z] * chart.dim for _ in range(chart.dim)]
        expect[0][0] = LaurentPoly.constant(chart, -half_n)
        for i in range(1, n + 1):
            pi = LaurentPoly.variable(chart, f"p{i}")
            xi_ = chart.index(f"x{i}")
            expect[0][xi_] = pi * (-half_n)
            expect[xi_][0] = pi * (-half_n)
            expect[chart.index(f"p{i}")][xi_] = LaurentPoly.constant(chart, HALF)
            expect[xi_][chart.index(f"p{i}")] = LaurentPoly.constant(chart, HALF)
            for j in range(1, n + 1):
                pj = LaurentPoly.variable(chart, f"p{j}")
                expect[xi_][chart.index(f"x{j}")] = pi * pj * (-half_n)
        assert cur.ricci == PolyMatrix(chart, expect)
        assert cur.scalar == Fraction(n, 2)

    def test_covariant_derivative_frame_table(self):
        n = 2
        m = tps.phase_metric(n)
        xi, P, X = tps_frame(n)
        zero = VectorField.zero(m.chart)

        assert covariant_derivative(m, xi, xi) == zero
        for i in range(n):
            assert covariant_derivative(m, xi, P[i]) == P[i].scale(HALF)
            assert covariant_derivative(m, P[i], xi) == P[i].scale(HALF)
            assert covariant_derivative(m, xi, X[i]) == X[i].scale(-HALF)
            assert covariant_derivative(m, X[i], xi) == X[i].scale(-HALF)
            for j in range(n):
                assert covariant_derivative(m, P[i], P[j]) == zero
                assert covariant_derivative(m, X[i], X[j]) == zero
                delta = 1 if i == j else 0
                assert covariant_derivative(m, P[i], X[j]) == xi.scale(-HALF * delta)
                assert covariant_derivative(m, X[i], P[j]) == xi.scale(HALF * delta)

    def test_curvature_transformation_table(self):
        n = 2
        m = tps.phase_metric(n)
        xi, P, X = tps_frame(n)
        q = Fraction(1, 4)
        zero = VectorField.zero(m.chart)

        for i in range(n):
            # R(xi, P_i): xi -> P_i/4, P_j -> 0, X_j -> -delta_ij xi / 4
            assert riemann_transform(m, xi, P[i], xi) == P[i].scale(q)
            for j in range(n):
                assert riemann_transform(m, xi, P[i], P[j]) == zero
                assert riemann_transform(m, xi, P[i], X[j]) == xi.scale(-q if i == j else 0)
            # R(xi, X_i): xi -> X_i/4, P_j -> -delta_ij xi / 4, X_j -> 0
            assert riemann_transform(m, xi, X[i], xi) == X[i].scale(q)
            for j in range(n):
                assert riemann_transform(m, xi, X[i], P[j]) == xi.scale(-q if i == j else 0)
                assert riemann_transform(m, xi, X[i], X[j]) == zero

        for i in range(n):
            for j in range(n):
                # R(P_i, P_j) kills xi and P, rotates X
                assert riemann_transform(m, P[i], P[j], xi) == zero
                for k in range(n):
                    assert riemann_transform(m, P[i], P[j], P[k]) == zero
                    expect = P[j].scale(q if i == k else 0) - P[i].scale(q if j == k else 0)
                    assert riemann_transform(m, P[i], P[j], X[k]) == expect
                # R(X_i, X_j) mirror
                assert riemann_transform(m, X[i], X[j], xi) == zero
                for k in range(n):
                    assert riemann_transform(m, X[i], X[j], X[k]) == zero
                    expect = X[j].scale(q if i == k else 0) - X[i].scale(q if j == k else 0)
                    assert riemann_transform(m, X[i], X[j], P[k]) == expect
                # mixed R(P_i, X_j)
                assert riemann_transform(m, P[i], X[j], xi) == zero
                for k in range(n):
                    expect_p = P[i].scale(q if j == k else 0) + P[k].scale(HALF if i == j else 0)
                    assert riemann_transform(m, P[i], X[j], P[k]) == expect_p
                    expect_x = X[j].scale(-q if i == k else 0) - X[k].scale(HALF if i == j else 0)
                    assert riemann_transform(m, P[i], X[j], X[k]) == expect_x

    def test_riemann_antisymmetry(self):
        n = 2
        m = tps.phase_metric(n)
        chart = m.chart
        a = VectorField.from_dict(chart, {"p1": LaurentPoly.variable(chart, "x2"), "x0": 1})
        b = VectorField.from_dict(chart, {"x1": LaurentPoly.variable(chart, "p2")})
        c = VectorField.coordinate(chart, "p2")
        assert riemann_transform(m, a, b, c) == riemann_transform(m, b, a, c).scale(-1)


class TestSectional:
    def setup_method(self):
        self.n = 2
        self.m = tps.phase_metric(self.n)
        self.chart = self.m.chart
        self.xi, self.P, self.X = tps_frame(self.n)
        self.points = [
            {"x0": 1, "p1": 2, "p2": Fraction(1, 3), "x1": -1, "x2": 5},
            {"x0": 0, "p1": Fraction(-7, 2), "p2": 1, "x1": Fraction(2, 5), "x2": 0},
        ]

    def test_conjugate_pair_three_quarters(self):
        for i in range(self.n):
            dxi = VectorField.coordinate(self.chart, f"x{i+1}")
            for pt in self.points:
                assert sectional(self.m, self.P[i], dxi, pt) == Fraction(3, 4)

    def test_zero_families_have_zero_numerator_and_degenerate_plane(self):
        xi, P, X = self.xi, self.P, self.X
        dx = [VectorField.coordinate(self.chart, f"x{i+1}") for i in range(self.n)]
        families = [
            (xi, P[0]),
            (xi, dx[0]),
            (xi, X[1]),
            (P[0], P[1]),
            (dx[0], dx[1]),
        ]
        for a, b in families:
            for pt in self.points:
                form = SectionalForm(self.m, a, b)
                assert form.num.evaluate(pt) == 0 and form.den.evaluate(pt) == 0
                with pytest.raises(DegeneratePlaneError):
                    sectional(self.m, a, b, pt)

    def test_mixed_pair_degenerate_but_nonzero_numerator_excluded(self):
        # (P_1, d/dx^2): the plane is degenerate; no value is defined
        dx2 = VectorField.coordinate(self.chart, "x2")
        for pt in self.points:
            with pytest.raises(DegeneratePlaneError):
                sectional(self.m, self.P[0], dx2, pt)

    def test_the_suite_points_are_the_former_fraction_draws(self):
        # suites._rand_point gives a point as the chart's point_values, by
        # the same randint calls in the same order as the former
        # {name: Fraction(randint(-9, 9), randint(1, 9))} points, and a
        # sectional form takes the same value on both
        chart = self.chart
        form = SectionalForm(self.m, self.P[0], VectorField.coordinate(chart, "x1"))
        p1, p2, x0, x2 = (LaurentPoly.variable(chart, nm) for nm in ("p1", "p2", "x0", "x2"))
        poly = p1 * p2 + x0 * p1 - x2  # a value that moves with the point
        rng, former = random.Random(20260825), random.Random(20260825)
        for _ in range(50):
            vals = suites._rand_point(chart, rng)
            point = {nm: Fraction(former.randint(-9, 9), former.randint(1, 9)) for nm in chart.names}
            assert suites._point(chart, vals) == point
            assert poly.evaluate_values(vals) == poly.evaluate(point)
            assert form.at_values(vals) == form.at(point) == Fraction(3, 4)
        assert rng.getstate() == former.getstate()


class TestConnectionAxioms:
    """First Bianchi, metric compatibility, torsion-freeness on frames."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_first_bianchi(self, n):
        m = tps.phase_metric(n)
        frame = [f for _, f in tps.canonical_frame(n)]
        for a in frame:
            for b in frame:
                for c in frame:
                    s = (
                        riemann_transform(m, a, b, c)
                        + riemann_transform(m, b, c, a)
                        + riemann_transform(m, c, a, b)
                    )
                    assert s.is_zero()

    @pytest.mark.parametrize("space,n", [("tps", 1), ("tps", 2), ("sympl", 1)])
    def test_sparse_transform_matches_the_nabla_definition(self, space, n):
        # R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z on
        # every frame triple, with nabla read from the Christoffel table
        if space == "tps":
            m, frame = tps.phase_metric(n), [f for _, f in tps.canonical_frame(n)]
        else:
            f = dict(sympl.canonical_frame(n))
            m = sympl.sympl_metric(n)
            frame = [f[f"{kind}{i}"] for kind in "PX" for i in range(n + 1)]
        for a in frame:
            for b in frame:
                for c in frame:
                    expect = (
                        covariant_derivative(m, a, covariant_derivative(m, b, c))
                        - covariant_derivative(m, b, covariant_derivative(m, a, c))
                        - covariant_derivative(m, bracket(a, b), c)
                    )
                    assert riemann_transform(m, a, b, c) == expect

    @pytest.mark.parametrize("n", [1, 2])
    def test_metric_compatibility(self, n):
        m = tps.phase_metric(n)
        frame = [f for _, f in tps.canonical_frame(n)]
        for a in frame:
            for b in frame:
                for c in frame:
                    lhs = a.apply(m.inner(b, c))
                    rhs = m.inner(covariant_derivative(m, a, b), c) + m.inner(
                        b, covariant_derivative(m, a, c)
                    )
                    assert lhs == rhs

    @pytest.mark.parametrize("n", [1, 2])
    def test_torsion_free(self, n):
        m = tps.phase_metric(n)
        frame = [f for _, f in tps.canonical_frame(n)]
        for a in frame:
            for b in frame:
                lhs = covariant_derivative(m, a, b) - covariant_derivative(m, b, a)
                assert lhs == bracket(a, b)


class TestGramAndLie:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_frame_gram_frozen(self, n):
        # (xi, P, X): 1 on xi, the P_i/X_i pairs off-diagonal, zero elsewhere
        m = tps.phase_metric(n)
        frame = [f for _, f in tps.canonical_frame(n)]
        grid = [[0] * (2 * n + 1) for _ in range(2 * n + 1)]
        grid[0][0] = 1
        for i in range(1, n + 1):
            grid[i][n + i] = grid[n + i][i] = 1
        gram = [[pairing(m.g, a, b) for b in frame] for a in frame]
        assert gram == PolyMatrix(
            m.chart, [[LaurentPoly.constant(m.chart, v) for v in row] for row in grid]
        ).entries

    def test_coordinate_frame_gram_is_metric(self):
        m = tps.phase_metric(2)
        coords = [VectorField.coordinate(m.chart, nm) for nm in m.chart.names]
        assert [[m.inner(a, b) for b in coords] for a in coords] == m.g.entries

    def test_lie_derivative_detects_non_killing(self):
        m = tps.phase_metric(1)
        dp1 = VectorField.coordinate(m.chart, "p1")
        lg = lie_derivative_metric(m, dp1)
        i = m.chart.index("x1")
        assert lg.entries[i][i] == 2 * LaurentPoly.variable(m.chart, "p1")

    def test_reeb_is_killing(self):
        m = tps.phase_metric(2)
        assert lie_derivative_metric(m, VectorField.coordinate(m.chart, "x0")).is_zero()

    @pytest.mark.parametrize("space,n", [("tps", 2), ("sympl", 1)])
    def test_lie_derivative_on_the_partials_table_matches_the_formula(self, space, n):
        # (L_X g)_ij = X^k d_k g_ij + g_ik d_j X^k + g_kj d_i X^k, with every
        # partial taken here rather than read from the metric's table
        m = tps.phase_metric(n) if space == "tps" else sympl.sympl_metric(n)
        chart, g, d = m.chart, m.g.entries, m.chart.dim
        names = chart.names
        rng = random.Random(11)

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(0, 3)):
                exps = [0] * d
                for _ in range(rng.randint(0, 2)):
                    exps[rng.randrange(d)] += 1
                terms[tuple(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            return LaurentPoly(chart, terms)

        for _ in range(12):
            comps = [rand_poly() if rng.random() < 0.5 else LaurentPoly.zero(chart) for _ in range(d)]
            x = VectorField(chart, comps)
            expect = [[LaurentPoly.zero(chart)] * d for _ in range(d)]
            for i in range(d):
                for j in range(d):
                    acc = LaurentPoly.zero(chart)
                    for k in range(d):
                        acc = acc + x.comps[k] * g[i][j].partial(names[k])
                        acc = acc + g[i][k] * x.comps[k].partial(names[j])
                        acc = acc + g[k][j] * x.comps[k].partial(names[i])
                    expect[i][j] = acc
            assert lie_derivative_metric(m, x) == PolyMatrix(chart, expect)
        assert m.partials() is m.partials()


@pytest.mark.parametrize("space,n", [("tps", 1), ("tps", 2), ("sympl", 1)])
def test_per_plane_riemann_operator_matches_the_full_contraction(space, n):
    # (R(A,B)C)^i = R^i_{jkl} C^j A^k B^l, summed here over every j, k, l
    m = tps.phase_metric(n) if space == "tps" else sympl.sympl_metric(n)
    chart, d = m.chart, m.chart.dim
    table = riemann_tensor(m)
    zero = LaurentPoly.zero(chart)
    riem = [[[[table.get((i, j, k, l), zero) for l in range(d)] for k in range(d)]
             for j in range(d)] for i in range(d)]
    rng = random.Random(5)

    def rand_field():
        comps = []
        for _ in range(d):
            terms = {}
            for _ in range(rng.randint(0, 2)):
                exps = [0] * d
                exps[rng.randrange(d)] += rng.randint(0, 1)
                terms[tuple(exps)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            comps.append(LaurentPoly(chart, terms))
        return VectorField(chart, comps)

    coords = [VectorField.coordinate(chart, nm) for nm in chart.names]
    # on coordinate fields, R(d_k, d_l) d_j has the components R^i_{jkl}
    for k, a in enumerate(coords):
        for l, b in enumerate(coords):
            op = riemann_operator(m, a, b)
            for j, c in enumerate(coords):
                got = apply_rows(op, c).comps
                assert list(got) == [riem[i][j][k][l] for i in range(d)]
    fields = coords + [rand_field() for _ in range(4)]
    for _ in range(10):
        a, b = rng.choice(fields), rng.choice(fields)
        op = riemann_operator(m, a, b)
        for c in rng.sample(fields, 3):
            expect = []
            for i in range(d):
                acc = LaurentPoly.zero(chart)
                for j in range(d):
                    for k in range(d):
                        for l in range(d):
                            acc = acc + riem[i][j][k][l] * c.comps[j] * a.comps[k] * b.comps[l]
                expect.append(acc)
            assert apply_rows(op, c) == VectorField(chart, expect)


def test_each_metric_curvature_is_built_once(monkeypatch, clear_caches, capsys):
    # verify-all needs the curvature of tps n = 1..3, sympl n = 1, 2 and the
    # tampered metric; the curvature suite, the Einstein report and the
    # Nijenhuis report read the one table of each
    names = []
    build = curvature.ricci_scalar
    monkeypatch.setattr(curvature, "ricci_scalar", lambda m: names.append(m.name) or build(m))
    assert cli.main(["verify-all"]) == 0
    capsys.readouterr()
    expect = [tps.phase_metric(n).name for n in (1, 2, 3)]
    expect += [sympl.sympl_metric(n).name for n in (1, 2)] + ["tampered"]
    assert sorted(names) == sorted(expect)
    m = tps.phase_metric(1)
    assert m.curvature() is m.curvature()


def test_one_flipped_transform_coefficient_fails_that_record(monkeypatch):
    # R(xi, P_1) xi = P_1 / 4 becomes -P_1 / 4
    original = suites._transform_table

    def flipped(n):
        return [
            (a, b, c, {"P1": -coeffs["P1"]} if (a, b, c) == ("xi", "P1", "xi") else coeffs)
            for a, b, c, coeffs in original(n)
        ]

    monkeypatch.setattr(suites, "_transform_table", flipped)
    for n in (1, 2):
        claims = {r.claim: r for r in suites.suite_curvature("tps", n)}
        claim = claims["curvature transform R(A,B)C matches the frame table on all pairs"]
        assert claim.status == "fail"
        assert claim.witness == {"mismatches": ["R(xi,P1)xi"]}


# ----------------------------------------------------------------------
# independent oracle: the same tables recomputed by sympy from the metric


@pytest.fixture
def sympy():
    # an optional test dependency (pyproject.toml); skipped where missing
    return pytest.importorskip("sympy")


def to_sympy(sympy, poly, symbols):
    acc = sympy.Integer(0)
    for exps, coef in poly.terms.items():
        term = sympy.Rational(coef.numerator, coef.denominator)
        for sym, e in zip(symbols, exps):
            term *= sym**e
        acc += term
    return acc


def sympy_christoffel(sympy, metric):
    """Symbols, g, its inverse computed from g alone (not the supplied
    closed-form inverse), and Gamma^a_{bc} as nested lists."""
    d = metric.dim
    xs = sympy.symbols(metric.chart.names)
    g = sympy.Matrix(d, d, lambda i, j: to_sympy(sympy, metric.g.entries[i][j], xs))
    ginv = g.inv()
    gamma = [
        [
            [
                sympy.cancel(
                    sum(
                        ginv[a, s] * (g[s, c].diff(xs[b]) + g[s, b].diff(xs[c]) - g[b, c].diff(xs[s]))
                        for s in range(d)
                    )
                    / 2
                )
                for c in range(d)
            ]
            for b in range(d)
        ]
        for a in range(d)
    ]
    return xs, g, ginv, gamma


def sympy_riemann(sympy, xs, gamma):
    """R^i_{jkl} from Gamma, with R(d_k, d_l) d_j = R^i_{jkl} d_i, as nested
    lists indexed [i][j][k][l]:
    R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
              + Gamma^i_{ks} Gamma^s_{lj} - Gamma^i_{ls} Gamma^s_{kj}."""
    r = range(len(xs))
    return [
        [
            [
                [
                    sympy.expand(
                        gamma[i][l][j].diff(xs[k])
                        - gamma[i][k][j].diff(xs[l])
                        + sum(
                            gamma[i][k][s] * gamma[s][l][j] - gamma[i][l][s] * gamma[s][k][j]
                            for s in r
                        )
                    )
                    for l in r
                ]
                for k in r
            ]
            for j in r
        ]
        for i in r
    ]


# the tampered metric is the one the negative control runs the curvature
# claims on
ORACLE_METRICS = [
    tps.phase_metric(1),
    tps.phase_metric(2),
    sympl.sympl_metric(1),
    suites.tampered_metric(2),
]


@pytest.mark.parametrize("metric", ORACLE_METRICS, ids=lambda m: m.name)
def test_christoffel_ricci_and_scalar_match_sympy(sympy, metric):
    d = metric.dim
    xs, g, ginv, gamma = sympy_christoffel(sympy, metric)
    table = metric.christoffel().gamma
    for a in range(d):
        for b in range(d):
            for c in range(d):
                assert sympy.expand(gamma[a][b][c] - to_sympy(sympy, table[a][b][c], xs)) == 0

    ricci = sympy.Matrix(
        d,
        d,
        lambda a, b: sympy.expand(
            sum(gamma[m][a][b].diff(xs[m]) - gamma[m][m][a].diff(xs[b]) for m in range(d))
            + sum(
                gamma[m][m][c] * gamma[c][a][b] - gamma[m][b][c] * gamma[c][m][a]
                for m in range(d)
                for c in range(d)
            )
        ),
    )
    cur = ricci_scalar(metric)
    for a in range(d):
        for b in range(d):
            assert sympy.expand(ricci[a, b] - to_sympy(sympy, cur.ricci.entries[a][b], xs)) == 0
    scalar = sympy.cancel(sum(ginv[a, b] * ricci[a, b] for a in range(d) for b in range(d)))
    assert sympy.expand(scalar - to_sympy(sympy, cur.scalar, xs)) == 0


@pytest.mark.parametrize("metric", ORACLE_METRICS, ids=lambda m: m.name)
def test_riemann_tensor_matches_sympy(sympy, metric):
    d = metric.dim
    xs, _g, _ginv, gamma = sympy_christoffel(sympy, metric)
    expect = sympy_riemann(sympy, xs, gamma)
    riem = riemann_tensor(metric)
    assert all(r.coeffs for r in riem.values())
    zero = LaurentPoly.zero(metric.chart)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    got = to_sympy(sympy, riem.get((i, j, k, l), zero), xs)
                    assert sympy.expand(expect[i][j][k][l] - got) == 0, (i, j, k, l)


@pytest.mark.parametrize("n", [1, 2])
def test_sectional_forms_match_sympy(sympy, n):
    # the planes of the sectional claims: g(R(A,B)B, A) and |A ^ B|^2 from
    # sympy's own Riemann tensor against SectionalForm's num and den
    metric = tps.phase_metric(n)
    xs, g, _ginv, gamma = sympy_christoffel(sympy, metric)
    riem = sympy_riemann(sympy, xs, gamma)
    r = range(metric.dim)
    xi, P, X = tps_frame(n)
    dx = [VectorField.coordinate(metric.chart, f"x{i}") for i in range(1, n + 1)]

    def inner(u, v):
        return sum(g[a, b] * u[a] * v[b] for a in r for b in r)

    def parts(a, b):
        A = [to_sympy(sympy, c, xs) for c in a.comps]
        B = [to_sympy(sympy, c, xs) for c in b.comps]
        rabb = [
            sum(riem[i][j][k][l] * A[k] * B[l] * B[j] for j in r for k in r for l in r)
            for i in r
        ]
        num = sympy.expand(inner(rabb, A))
        den = sympy.expand(inner(A, A) * inner(B, B) - inner(A, B) ** 2)
        form = SectionalForm(metric, a, b)
        assert sympy.expand(num - to_sympy(sympy, form.num, xs)) == 0
        assert sympy.expand(den - to_sympy(sympy, form.den, xs)) == 0
        return num, den

    for i in range(n):
        num, den = parts(P[i], dx[i])
        assert den != 0 and sympy.expand(4 * num - 3 * den) == 0
    vanishing = [(xi, P[0]), (xi, dx[0]), (xi, X[0])]
    if n >= 2:
        vanishing += [(P[0], P[1]), (dx[0], dx[1])]
    for a, b in vanishing:
        assert parts(a, b) == (0, 0)
