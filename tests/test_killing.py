"""Killing-equation ansatz solver and structure constants."""

import time
from fractions import Fraction

import pytest

from tpsgeo.curvature import MetricSpec, lie_derivative_metric
from tpsgeo.fields import VectorField, bracket
from tpsgeo.killing import (
    _entries,
    ansatz_basis,
    bracket_failures,
    killing_solve,
    killing_system,
    monomials_up_to,
    span_contains,
    spans_equal,
    structure_constants,
)
from tpsgeo.linalg import PolyMatrix
from tpsgeo.poly import Chart, LaurentPoly
from tpsgeo import suites, sympl, tps


class TestMonomials:
    def test_count_degree_two(self):
        # 1 + d + d(d+1)/2
        assert len(monomials_up_to(7, 2)) == 36

    def test_graded_order(self):
        monos = monomials_up_to(2, 2)
        assert monos[0] == (0, 0)
        assert sorted(map(sum, monos)) == list(map(sum, monos))


class TestGenericMetrics:
    def test_euclidean_dimension(self):
        chart = Chart(["u", "v", "w"])
        m = MetricSpec("euclid", chart, PolyMatrix.identity(chart, 3))
        assert len(killing_solve(m, 1)) == 6
        assert len(killing_solve(m, 2)) == 6

    def test_hyperbolic_plane_dimension(self):
        chart = Chart(["x", "y"], invertible=["y"])
        y2inv = LaurentPoly.variable(chart, "y", -2)
        z = LaurentPoly.zero(chart)
        m = MetricSpec("hyperbolic", chart, PolyMatrix(chart, [[y2inv, z], [z, y2inv]]))
        fields = killing_solve(m, 2)
        assert len(fields) == 3
        labelled = [(str(k), f) for k, f in enumerate(fields)]
        C = structure_constants(labelled, _entries, bracket)
        # sl(2) is not abelian
        assert any(v != 0 for row in C.values() for v in row.values())


def per_unknown_system(metric, unknowns):
    """The Killing equations built one unknown at a time: the column of
    X_u = x^alpha d_k is the upper triangle of L_{X_u} g."""
    chart = metric.chart
    rows = {}
    for u, (k, alpha) in enumerate(unknowns):
        comps = [LaurentPoly.zero(chart)] * chart.dim
        comps[k] = LaurentPoly(chart, {alpha: 1})
        lg = lie_derivative_metric(metric, VectorField(chart, comps))
        for i, row in enumerate(lg.entries):
            for j in range(i, chart.dim):
                for key, coef in row[j].packed_items():
                    rows.setdefault((i, j, key), {})[u] = coef
    return rows


def fractional_metric(n):
    """A metric with Fraction entries and a negative power: the Killing rows
    then mix ints and Fractions."""
    chart = Chart(["u", "v", "w"], invertible=["w"])
    w = LaurentPoly.variable(chart, "w")
    z, one = LaurentPoly.zero(chart), LaurentPoly.one(chart)
    g = [
        [one * Fraction(1, 2), w * Fraction(n, 3), z],
        [w * Fraction(n, 3), w.inverse(), one],
        [z, one, z],
    ]
    return MetricSpec("fractional", chart, PolyMatrix(chart, g))


METRICS = {
    "tps": tps.phase_metric,
    "sympl": sympl.sympl_metric,
    "tampered": suites.tampered_metric,
    "fractional": fractional_metric,
}


@pytest.mark.parametrize(
    "space,n,degree",
    [("tps", n, 2) for n in (1, 2, 3)]
    + [("sympl", n, 2) for n in (1, 2, 3)]
    + [("tps", 1, 3), ("tampered", 2, 2), ("fractional", 1, 2), ("fractional", 2, 3)],
)
def test_direct_killing_columns_match_the_per_unknown_lie_derivatives(space, n, degree):
    m = METRICS[space](n)
    unknowns = ansatz_basis(m.chart, degree)
    system = killing_system(m, unknowns)
    assert system == per_unknown_system(m, unknowns)
    assert all(row and all(row.values()) for row in system.values())


class TestPhaseSpaceKilling:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dimension_and_span(self, n):
        start = time.monotonic()
        fields = killing_solve(tps.phase_metric(n), 2)
        elapsed = time.monotonic() - start
        assert len(fields) == n * n + 2 * n + 1
        assert spans_equal(fields, [f for _, f in tps.killing_catalog(n)])
        assert elapsed < 20.0

    def test_degree_three_adds_nothing(self):
        assert len(killing_solve(tps.phase_metric(1), 3)) == 4

    def test_membership_is_exact(self):
        n = 2
        fields = killing_solve(tps.phase_metric(n), 2)
        cat = dict(tps.killing_catalog(n))
        assert span_contains(fields, cat["A1"] + cat["Q1_2"].scale(Fraction(3, 7)))
        bad = cat["A1"].scale(Fraction(1, 2)) + tps.build(n).frame["P"][0]
        assert not span_contains(fields, bad)


class TestSymplKilling:
    @pytest.mark.parametrize("n", [1, 2])
    def test_dimension(self, n):
        fields = killing_solve(sympl.sympl_metric(n), 2)
        assert len(fields) == (n + 2) ** 2 - 1

    def test_span_equals_catalog(self):
        fields = killing_solve(sympl.sympl_metric(1), 2)
        assert spans_equal(fields, [f for _, f in sympl.killing_catalog(1)])


class TestStructureConstants:
    def setup_method(self):
        self.n = 2
        self.labeled = tps.killing_catalog(self.n)
        self.labels = [l for l, _ in self.labeled]
        self.C = structure_constants(self.labeled, _entries, bracket)
        self.idx = {l: i for i, l in enumerate(self.labels)}

    def test_heisenberg_pair(self):
        assert self.C["A1", "B1"] == {"xi": 1}
        assert ("A1", "B2") not in self.C
        assert ("A1", "A2") not in self.C
        assert ("B1", "B2") not in self.C

    def test_gl_action(self):
        # the table keys each pair in catalog order, where A and B come
        # before Q: [Q1_2, A2] = -A1 is stored as [A2, Q1_2] = A1
        assert self.C["A2", "Q1_2"] == {"A1": 1}
        assert ("A1", "Q1_2") not in self.C
        assert self.C["B1", "Q1_2"] == {"B2": -1}
        assert self.C["Q1_2", "Q2_1"] == {"Q1_1": -1, "Q2_2": 1}

    def test_center(self):
        assert not [pair for pair in self.C if "xi" in pair]

    def test_antisymmetry_and_jacobi(self):
        # one entry per unordered pair, in catalog order, nonzero rows only
        assert all(self.idx[a] < self.idx[b] and row for (a, b), row in self.C.items())

        def row(a, b):
            if self.idx[a] > self.idx[b]:
                return {c: -v for c, v in row(b, a).items()}
            return self.C.get((a, b), {})

        def double(a, b, c):
            """[[a, b], c] as {label: coefficient}."""
            out = {}
            for e, u in row(a, b).items():
                for d, v in row(e, c).items():
                    out[d] = out.get(d, 0) + u * v
            return out

        labels = self.labels
        for i, a in enumerate(labels):
            for j, b in enumerate(labels[i + 1:], i + 1):
                for c in labels[j + 1:]:
                    total = {}
                    for term in (double(a, b, c), double(b, c, a), double(c, a, b)):
                        for d, v in term.items():
                            total[d] = total.get(d, 0) + v
                    assert not any(total.values())

    def test_not_closed_raises(self):
        cat = dict(self.labeled)
        with pytest.raises(ValueError):
            structure_constants([("A1", cat["A1"]), ("B1", cat["B1"])], _entries, bracket)

    def test_dependent_raises(self):
        cat = dict(self.labeled)
        with pytest.raises(ValueError):
            structure_constants(
                [("xi", cat["xi"]), ("2xi", cat["xi"].scale(2))], _entries, bracket
            )


# ----------------------------------------------------------------------
# independent oracle: the Killing system rebuilt and solved by sympy


@pytest.mark.parametrize("n", [1, 2])
def test_killing_system_rank_and_kernel_match_sympy(n):
    # an optional test dependency (pyproject.toml); skipped where missing
    sympy = pytest.importorskip("sympy")
    metric = tps.phase_metric(n)
    chart, d = metric.chart, metric.dim
    xs = sympy.symbols(chart.names)
    g = sympy.Matrix(
        d,
        d,
        lambda i, j: sum(
            (sympy.Rational(c.numerator, c.denominator) * sympy.prod(x**e for x, e in zip(xs, exps))
             for exps, c in metric.g.entries[i][j].terms.items()),
            sympy.Integer(0),
        ),
    )
    unknowns = ansatz_basis(chart, 2)
    cs = sympy.symbols(f"c0:{len(unknowns)}")
    comps = [sympy.Integer(0)] * d
    for c, (k, alpha) in zip(cs, unknowns):
        comps[k] += c * sympy.prod(x**e for x, e in zip(xs, alpha))
    # (L_X g)_ij = X^k d_k g_ij + g_ik d_j X^k + g_kj d_i X^k, upper triangle
    equations = []
    for i in range(d):
        for j in range(i, d):
            lg = sum(
                comps[k] * g[i, j].diff(xs[k]) + g[i, k] * comps[k].diff(xs[j])
                + g[k, j] * comps[k].diff(xs[i])
                for k in range(d)
            )
            equations.extend(sympy.Poly(sympy.expand(lg), *xs).coeffs())
    system, _ = sympy.linear_eq_to_matrix(equations, cs)
    rank = system.rank()

    fields = killing_solve(metric, 2)
    assert len(fields) == len(unknowns) - rank == n * n + 2 * n + 1
    # every field the solver returns is in sympy's kernel
    index = {key: u for u, key in enumerate(unknowns)}
    for f in fields:
        vec = [0] * len(unknowns)
        for k, comp in enumerate(f.comps):
            for alpha, c in comp.terms.items():
                vec[index[(k, alpha)]] = sympy.Rational(c.numerator, c.denominator)
        assert system * sympy.Matrix(vec) == sympy.zeros(system.rows, 1)


# ----------------------------------------------------------------------
# the closed-form bracket-table checker


class TestBracketFailures:
    def setup_method(self):
        t = tps.build(1)
        self.labelled = [("xi", t.frame["xi"]), ("P1", t.frame["P"][0]), ("X1", t.frame["X"][0])]

    def test_the_frame_table_passes(self):
        assert bracket_failures(self.labelled, {("P1", "X1"): {"xi": -1}}) == []

    def test_an_unlisted_pair_must_commute(self):
        assert bracket_failures(self.labelled, {}) == ["[P1,X1]"]

    def test_a_wrong_coefficient_fails_its_pair(self):
        table = {("P1", "X1"): {"xi": 1}}
        assert bracket_failures(self.labelled, table) == ["[P1,X1]"]

    def test_zero_coefficients_are_skipped(self):
        table = {("P1", "X1"): {"xi": -1, "P1": 0}, ("xi", "P1"): {"X1": 0}}
        assert bracket_failures(self.labelled, table) == []

    def test_a_label_the_list_lacks_fails_its_pair(self):
        table = {("P1", "X1"): {"xi": -1, "Y1": 1}}
        assert bracket_failures(self.labelled, table) == ["[P1,X1]"]
        # a listed pair the fields do not hold in that order fails too
        table = {("P1", "X1"): {"xi": -1}, ("X1", "P1"): {"xi": 1}, ("P1", "Y1"): {}}
        assert bracket_failures(self.labelled, table) == ["[X1,P1]", "[P1,Y1]"]


def test_no_exact_suite_scales_a_field_by_zero(monkeypatch, clear_caches):
    # the closed forms are sums over their nonzero coefficients: a field
    # scaled by 0 is work that is thrown away
    scale = VectorField.scale

    def guarded(self, c):
        if c == 0:
            raise AssertionError("a vector field scaled by 0")
        return scale(self, c)

    monkeypatch.setattr(VectorField, "scale", guarded)
    for name in ("curvature", "killing", "tps", "sympl", "heisenberg"):
        results = suites.SUITES[name](2)
        assert results and all(r.status != "fail" for r in results), name
    assert all(r.status == "exact-pass" for r in suites.suite_curvature("tps", 2))
