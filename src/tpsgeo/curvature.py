"""Generic pseudo-Riemannian pipeline over the exact tower.

metric -> Christoffel -> Riemann -> Ricci -> scalar -> sectional, plus the
covariant derivative, curvature transformation, and the Lie derivative of
a metric.  Everything is symbolic and exact; no floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .fields import VectorField, bracket, pairing
from .linalg import PolyMatrix, bareiss_det, matrix_inverse_exact
from .poly import Chart, LaurentPoly


class MetricSpec:
    """Symmetric exact metric with its exact inverse."""

    __slots__ = ("name", "chart", "g", "g_inv", "det", "_partials", "_christoffel")

    def __init__(self, name: str, chart: Chart, g: PolyMatrix, g_inv: PolyMatrix | None = None):
        if g.rows != g.cols or g.rows != chart.dim:
            raise ValueError("metric shape != chart dimension")
        if not g.is_symmetric():
            raise ValueError("metric must be symmetric")
        self.name = name
        self.chart = chart
        self.g = g
        if g_inv is None:
            self.g_inv, self.det = matrix_inverse_exact(g)
        else:
            ident = PolyMatrix.identity(chart, chart.dim)
            if (g @ g_inv) != ident:
                raise ValueError("supplied inverse fails g @ g_inv == I")
            self.g_inv = g_inv
            self.det = bareiss_det(g)
        self._partials = None
        self._christoffel = None

    @property
    def dim(self) -> int:
        return self.chart.dim

    def inner(self, x: VectorField, y: VectorField) -> LaurentPoly:
        """g(X, Y) as a Laurent polynomial."""
        return pairing(self.g, x, y)

    def partials(self) -> list[list[list[LaurentPoly]]]:
        """dg[i][j][k] = d_k g_ij, built once; the zero entries share one
        zero polynomial, so the table holds only the nonzero partials."""
        if self._partials is None:
            zero = LaurentPoly.zero(self.chart)
            dg = [[[zero] * self.dim for _ in row] for row in self.g.entries]
            for i, row in enumerate(self.g.entries):
                for j, e in enumerate(row):
                    if not e.coeffs:
                        continue
                    for k, name in enumerate(self.chart.names):
                        p = e.partial(name)
                        if p.coeffs:
                            dg[i][j][k] = p
            self._partials = dg
        return self._partials

    def christoffel(self) -> "ChristoffelTable":
        if self._christoffel is None:
            self._christoffel = christoffel(self)
        return self._christoffel


class ChristoffelTable:
    """Gamma^a_{bc}, symmetric in (b, c); dense nested lists."""

    __slots__ = ("chart", "gamma")

    def __init__(self, chart: Chart, gamma: Sequence[Sequence[Sequence[LaurentPoly]]]):
        self.chart = chart
        self.gamma = gamma
        d = chart.dim
        for a in range(d):
            for b in range(d):
                for c in range(b + 1, d):
                    if gamma[a][b][c] != gamma[a][c][b]:
                        raise ValueError("Christoffel symbols not symmetric in lower indices")

    def nonzero(self) -> dict[tuple[str, str, str], LaurentPoly]:
        """Map (upper, lower1, lower2) with lower1 <= lower2 positionally."""
        names = self.chart.names
        out = {}
        d = self.chart.dim
        for a in range(d):
            for b in range(d):
                for c in range(b, d):
                    v = self.gamma[a][b][c]
                    if not v.is_zero():
                        out[(names[a], names[b], names[c])] = v
        return out


def christoffel(metric: MetricSpec) -> ChristoffelTable:
    """Gamma^a_{bc} = (1/2) g^{as} (d_b g_{sc} + d_c g_{sb} - d_s g_{bc})."""
    chart = metric.chart
    d = chart.dim
    names = chart.names
    half = Fraction(1, 2)
    dg = metric.partials()
    gamma = []
    for a in range(d):
        plane = []
        for b in range(d):
            row = []
            for c in range(d):
                if c < b:
                    row.append(None)  # mirrored from the upper triangle below
                    continue
                acc = LaurentPoly.zero(chart)
                for s in range(d):
                    gas = metric.g_inv.entries[a][s]
                    if gas.is_zero():
                        continue
                    term = dg[s][c][b] + dg[s][b][c] - dg[b][c][s]
                    if term.is_zero():
                        continue
                    acc = acc + gas * term
                row.append(acc * half)
            plane.append(row)
        # mirror the lower triangle
        for b in range(d):
            for c in range(b):
                plane[b][c] = plane[c][b]
        gamma.append(plane)
    return ChristoffelTable(chart, gamma)


def trace_form(metric: MetricSpec) -> list[LaurentPoly]:
    """gamma_a = Gamma^b_{ab} (trace 1-form of the connection)."""
    table = metric.christoffel().gamma
    d = metric.dim
    out = []
    for a in range(d):
        acc = LaurentPoly.zero(metric.chart)
        for b in range(d):
            acc = acc + table[b][a][b]
        out.append(acc)
    return out


def covariant_derivative(metric: MetricSpec, x: VectorField, y: VectorField) -> VectorField:
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_{ij} X^i Y^j."""
    chart = metric.chart
    if x.chart != chart or y.chart != chart:
        raise ValueError("fields not over the metric chart")
    d = chart.dim
    gamma = metric.christoffel().gamma
    comps = []
    for k in range(d):
        acc = x.apply(y.comps[k])
        for i in range(d):
            if x.comps[i].is_zero():
                continue
            for j in range(d):
                gk = gamma[k][i][j]
                if gk.is_zero() or y.comps[j].is_zero():
                    continue
                acc = acc + gk * x.comps[i] * y.comps[j]
        comps.append(acc)
    return VectorField(chart, comps)


def riemann_transform(
    metric: MetricSpec, x: VectorField, y: VectorField, z: VectorField
) -> VectorField:
    """R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z."""
    a = covariant_derivative(metric, x, covariant_derivative(metric, y, z))
    b = covariant_derivative(metric, y, covariant_derivative(metric, x, z))
    c = covariant_derivative(metric, bracket(x, y), z)
    return a - b - c


def riemann_tensor(metric: MetricSpec) -> list:
    """Components R^i_{jkl} with R(d_k, d_l) d_j = R^i_{jkl} d_i."""
    chart = metric.chart
    d = chart.dim
    names = chart.names
    gamma = metric.christoffel().gamma
    zero = LaurentPoly.zero(chart)
    # the nonzero Gamma^i_{ks} of each (i, k), with their s
    support = [
        [[(s, g) for s, g in enumerate(row) if g.coeffs] for row in plane] for plane in gamma
    ]
    riem = [[[[zero] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
    for i in range(d):
        gi = gamma[i]
        for j in range(d):
            for k in range(d):
                for l in range(k + 1, d):
                    # d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
                    #   + Gamma^i_{ks} Gamma^s_{lj} - Gamma^i_{ls} Gamma^s_{kj}
                    a, b = gi[l][j], gi[k][j]
                    acc = a.partial(names[k]) if a.coeffs else zero
                    if b.coeffs:
                        acc = acc - b.partial(names[l])
                    for s, g in support[i][k]:
                        h = gamma[s][l][j]
                        if h.coeffs:
                            acc = acc + g * h
                    for s, g in support[i][l]:
                        h = gamma[s][k][j]
                        if h.coeffs:
                            acc = acc - g * h
                    if acc.coeffs:
                        riem[i][j][k][l] = acc
                        riem[i][j][l][k] = -acc
    return riem


class CurvatureTensors:
    __slots__ = ("riemann", "ricci", "scalar")

    def __init__(self, riemann, ricci: PolyMatrix, scalar: LaurentPoly):
        self.riemann = riemann
        self.ricci = ricci
        self.scalar = scalar


def ricci_scalar(metric: MetricSpec) -> CurvatureTensors:
    """Ricci via the index formula, cross-checked against the contraction of
    the full Riemann tensor; scalar = g^{ab} R_ab."""
    chart = metric.chart
    d = chart.dim
    names = chart.names
    gamma = metric.christoffel().gamma

    # index formula: R_ab = Gamma^m_{ba,m} - Gamma^m_{ma,b}
    #                     + Gamma^m_{mc} Gamma^c_{ba} - Gamma^m_{bc} Gamma^c_{ma}
    ric_rows = []
    for a in range(d):
        row = []
        for b in range(d):
            acc = LaurentPoly.zero(chart)
            for m in range(d):
                acc = acc + gamma[m][b][a].partial(names[m])
                acc = acc - gamma[m][m][a].partial(names[b])
                for c in range(d):
                    if not gamma[m][m][c].is_zero() and not gamma[c][b][a].is_zero():
                        acc = acc + gamma[m][m][c] * gamma[c][b][a]
                    if not gamma[m][b][c].is_zero() and not gamma[c][m][a].is_zero():
                        acc = acc - gamma[m][b][c] * gamma[c][m][a]
            row.append(acc)
        ric_rows.append(row)
    ricci = PolyMatrix(chart, ric_rows)

    riem = riemann_tensor(metric)
    for a in range(d):
        for b in range(d):
            contraction = LaurentPoly.zero(chart)
            for m in range(d):
                contraction = contraction + riem[m][a][m][b]
            if contraction != ricci.entries[a][b]:
                raise ArithmeticError("Ricci index formula disagrees with Riemann contraction")

    scalar = LaurentPoly.zero(chart)
    for a in range(d):
        for b in range(d):
            if not metric.g_inv.entries[a][b].is_zero():
                scalar = scalar + metric.g_inv.entries[a][b] * ricci.entries[a][b]
    return CurvatureTensors(riem, ricci, scalar)


class DegeneratePlaneError(ValueError):
    """The plane spanned by the two fields has |A ^ B|^2 = 0 at the point."""


class SectionalForm:
    """The sectional curvature of the plane (A, B) as polynomials, built once
    and evaluated at any number of points: num = g(R(A,B)B, A), and g(A,A),
    g(B,B), g(A,B) for the plane norm."""

    __slots__ = ("num", "gaa", "gbb", "gab")

    def __init__(self, metric: MetricSpec, a: VectorField, b: VectorField):
        self.num = metric.inner(riemann_transform(metric, a, b, b), a)
        self.gaa = metric.inner(a, a)
        self.gbb = metric.inner(b, b)
        self.gab = metric.inner(a, b)

    def parts(self, point: Mapping) -> tuple[Fraction, Fraction]:
        """(numerator, denominator) at the point, with
        den = g(A,A) g(B,B) - g(A,B)^2."""
        num = self.num.evaluate(point)
        gaa, gbb, gab = (f.evaluate(point) for f in (self.gaa, self.gbb, self.gab))
        return num, gaa * gbb - gab * gab

    def at(self, point: Mapping) -> Fraction:
        num, den = self.parts(point)
        if den == 0:
            raise DegeneratePlaneError("degenerate plane: |A ^ B|^2 = 0 at the point")
        return num / den


def sectional(metric: MetricSpec, a: VectorField, b: VectorField, point: Mapping) -> Fraction:
    return SectionalForm(metric, a, b).at(point)


def lie_derivative_metric(metric: MetricSpec, x: VectorField) -> PolyMatrix:
    """(L_X g)_{ij} = X^k d_k g_{ij} + g_{ik} d_j X^k + g_{kj} d_i X^k.  Only
    the nonzero components of X and of their partials contribute; d_k g_ij
    comes from the metric's table, d_j X^k from the field's Jacobian, and
    the upper triangle is summed and mirrored."""
    chart = metric.chart
    if x.chart != chart:
        raise ValueError("field not over metric chart")
    d = chart.dim
    entries = metric.g.entries
    dg = metric.partials()
    upper: dict[tuple[int, int], LaurentPoly] = {}

    def add(i: int, j: int, term: LaurentPoly) -> None:
        key = (i, j) if i <= j else (j, i)
        acc = upper.get(key)
        upper[key] = term if acc is None else acc + term

    # nonzero entries of each column of g (= of each row, g is symmetric)
    support = [[(i, entries[i][k]) for i in range(d) if entries[i][k].coeffs] for k in range(d)]
    for k, (comp, dx) in enumerate(zip(x.comps, x.jacobian())):
        if not comp.coeffs:
            continue
        # X^k d_k g_ij
        for i in range(d):
            for j, _ in support[i]:
                if j >= i:
                    dgij = dg[i][j][k]
                    if dgij.coeffs:
                        add(i, j, comp * dgij)
        # g_ik d_j X^k at (i, j) and, as g_kj d_i X^k, at (j, i): both in
        # the same upper entry, which on the diagonal gets it twice
        for j, dxk in dx:
            for i, gik in support[k]:
                term = gik * dxk
                add(i, j, term * 2 if i == j else term)
    zero = LaurentPoly.zero(chart)
    rows = [[zero] * d for _ in range(d)]
    for (i, j), acc in upper.items():
        rows[i][j] = rows[j][i] = acc
    return PolyMatrix(chart, rows)
