"""Generic pseudo-Riemannian pipeline over the exact tower.

metric -> Christoffel -> a sparse Riemann table -> {Ricci, scalar, R(A,B)},
each table built once per metric, plus the covariant derivative, the
sectional form and the Lie derivative of a metric.  Everything is symbolic
and exact; no floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .fields import VectorField, pairing
from .linalg import PolyMatrix, bareiss_det, matrix_inverse_exact
from .poly import Chart, LaurentPoly


class MetricSpec:
    """Symmetric exact metric with its exact inverse."""

    __slots__ = ("name", "chart", "g", "g_inv", "det", "_partials", "_christoffel", "_curvature")

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
        self._curvature = None

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

    def curvature(self) -> "CurvatureTensors":
        """The Riemann table, Ricci and scalar, built once."""
        if self._curvature is None:
            self._curvature = ricci_scalar(self)
        return self._curvature


class ChristoffelTable:
    """Gamma^a_{bc}, symmetric in (b, c); dense nested lists."""

    __slots__ = ("chart", "gamma")

    def __init__(self, chart: Chart, gamma: Sequence[Sequence[Sequence[LaurentPoly]]]):
        self.chart = chart
        self.gamma = gamma

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
    if x.chart is not chart or y.chart is not chart:
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


def riemann_tensor(metric: MetricSpec) -> dict[tuple[int, int, int, int], LaurentPoly]:
    """The nonzero components R^i_{jkl}, with R(d_k, d_l) d_j = R^i_{jkl} d_i,
    keyed (i, j, k, l); both orders of the antisymmetric pair (k, l) are
    listed."""
    chart = metric.chart
    d = chart.dim
    names = chart.names
    gamma = metric.christoffel().gamma
    zero = LaurentPoly.zero(chart)
    # the nonzero Gamma^i_{ks} of each (i, k), with their s
    support = [
        [[(s, g) for s, g in enumerate(row) if g.coeffs] for row in plane] for plane in gamma
    ]
    riem = {}
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
                        riem[i, j, k, l] = acc
                        riem[i, j, l, k] = -acc
    return riem


class CurvatureTensors:
    """The Riemann table of riemann_tensor, the same components grouped by
    their plane slots as planes[k, l] = [(i, j, R^i_{jkl}), ...], the Ricci
    matrix and the scalar."""

    __slots__ = ("riemann", "planes", "ricci", "scalar")

    def __init__(self, riemann: dict, ricci: PolyMatrix, scalar: LaurentPoly):
        self.riemann = riemann
        self.planes: dict[tuple[int, int], list[tuple[int, int, LaurentPoly]]] = {}
        for (i, j, k, l), r in riemann.items():
            self.planes.setdefault((k, l), []).append((i, j, r))
        self.ricci = ricci
        self.scalar = scalar


def ricci_scalar(metric: MetricSpec) -> CurvatureTensors:
    """Ricci as the contraction R_ab = R^m_{amb} of the Riemann table;
    scalar = g^{ab} R_ab."""
    chart = metric.chart
    d = chart.dim
    riem = riemann_tensor(metric)
    zero = LaurentPoly.zero(chart)
    rows = [[zero] * d for _ in range(d)]
    for (m, a, k, b), r in riem.items():
        if m == k:
            rows[a][b] = rows[a][b] + r
    scalar = zero
    for ginv_row, ric_row in zip(metric.g_inv.entries, rows):
        for gab, rab in zip(ginv_row, ric_row):
            if gab.coeffs and rab.coeffs:
                scalar = scalar + gab * rab
    return CurvatureTensors(riem, PolyMatrix(chart, rows), scalar)


def riemann_operator(
    metric: MetricSpec, a: VectorField, b: VectorField
) -> dict[int, dict[int, LaurentPoly]]:
    """R(A,B) as sparse rows {i: {j: R^i_{jkl} A^k B^l}}, summed over the
    nonzero components of A and B and the nonzero Riemann entries of their
    planes only.  R is function-linear in every slot, so this agrees with
    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z."""
    planes = metric.curvature().planes
    rows: dict[int, dict[int, LaurentPoly]] = {}
    for k, ak in enumerate(a.comps):
        if not ak.coeffs:
            continue
        for l, bl in enumerate(b.comps):
            comps = planes.get((k, l)) if bl.coeffs else None
            if comps is None:
                continue
            w = ak * bl
            for i, j, r in comps:
                row = rows.setdefault(i, {})
                term = r * w
                row[j] = row[j] + term if j in row else term
    return rows


def apply_rows(rows: dict[int, dict[int, LaurentPoly]], z: VectorField) -> VectorField:
    """The field with components sum_j rows[i][j] Z^j, over the nonzeros."""
    zero = LaurentPoly.zero(z.chart)
    comps = [zero] * z.chart.dim
    for i, row in rows.items():
        acc = zero
        for j, r in row.items():
            zj = z.comps[j]
            if zj.coeffs:
                acc = acc + r * zj
        comps[i] = acc
    return VectorField(z.chart, comps)


def riemann_transform(
    metric: MetricSpec, x: VectorField, y: VectorField, z: VectorField
) -> VectorField:
    """R(X,Y)Z, the sparse rows of R(X,Y) applied to Z."""
    if any(f.chart is not metric.chart for f in (x, y, z)):
        raise ValueError("fields not over the metric chart")
    return apply_rows(riemann_operator(metric, x, y), z)


class DegeneratePlaneError(ValueError):
    """The plane spanned by the two fields has |A ^ B|^2 = 0 at the point."""


class SectionalForm:
    """The sectional curvature of the plane (A, B) as two polynomials, built
    once and evaluated at any number of points: num = g(R(A,B)B, A) and the
    plane norm den = g(A,A) g(B,B) - g(A,B)^2."""

    __slots__ = ("num", "den")

    def __init__(self, metric: MetricSpec, a: VectorField, b: VectorField):
        self.num = metric.inner(riemann_transform(metric, a, b, b), a)
        gab = metric.inner(a, b)
        self.den = metric.inner(a, a) * metric.inner(b, b) - gab * gab

    def at(self, point: Mapping) -> Fraction:
        return self.at_values(self.num.chart.point_values(point))

    def at_values(self, vals: Sequence[tuple[int, int]]) -> Fraction:
        """at, for a point given as the chart's point_values."""
        num, den = self.num.evaluate_values(vals), self.den.evaluate_values(vals)
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
    if x.chart is not chart:
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
