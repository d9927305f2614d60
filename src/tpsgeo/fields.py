"""Symbolic vector fields, differential forms, and polynomial maps.

Forms are stored as dicts from strictly increasing coordinate-index tuples to
Laurent-polynomial coefficients, which makes wedge products, the exterior
derivative, interior products, Cartan's formula, and exact pullbacks all a
few lines each.  Vector fields carry one Laurent polynomial per coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import PolyMatrix
from .poly import Chart, LaurentPoly, Scalar


class VectorField:
    """A vector field with one Laurent polynomial per coordinate.  Fields are
    immutable, so the cached Jacobian never goes stale and a field can be
    shared, as the cached Killing catalogs are."""

    __slots__ = ("chart", "comps", "_jacobian")

    def __init__(self, chart: Chart, comps: Sequence[LaurentPoly]):
        if len(comps) != chart.dim:
            raise ValueError("component count != chart dimension")
        for c in comps:
            if c.chart is not chart:
                raise ValueError("component chart mismatch")
        _set = object.__setattr__
        _set(self, "chart", chart)
        _set(self, "comps", tuple(comps))
        _set(self, "_jacobian", None)

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")

    def __delattr__(self, name):
        raise AttributeError("VectorField is immutable")

    @staticmethod
    def zero(chart: Chart) -> "VectorField":
        z = LaurentPoly.zero(chart)
        return VectorField(chart, [z] * chart.dim)

    @staticmethod
    def coordinate(chart: Chart, name: str) -> "VectorField":
        """The coordinate field d/d(name)."""
        comps = [LaurentPoly.zero(chart)] * chart.dim
        comps[chart.index(name)] = LaurentPoly.one(chart)
        return VectorField(chart, comps)

    @staticmethod
    def from_dict(chart: Chart, comps: Mapping[str, LaurentPoly | Scalar]) -> "VectorField":
        out = [LaurentPoly.zero(chart)] * chart.dim
        for nm, c in comps.items():
            if not isinstance(c, LaurentPoly):
                c = LaurentPoly.constant(chart, c)
            out[chart.index(nm)] = c
        return VectorField(chart, out)

    def __add__(self, other: "VectorField") -> "VectorField":
        if self.chart is not other.chart:
            raise ValueError("chart mismatch")
        return VectorField(self.chart, [a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + other.scale(-1)

    def __neg__(self) -> "VectorField":
        return self.scale(-1)

    def scale(self, c) -> "VectorField":
        return VectorField(self.chart, [comp * c for comp in self.comps])

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.chart is other.chart and self.comps == other.comps

    def __hash__(self):
        return hash((self.chart, self.comps))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        """Directional derivative X(f)."""
        acc = LaurentPoly.zero(self.chart)
        if not f.coeffs:
            return acc
        for comp, nm in zip(self.comps, self.chart.names):
            if comp.coeffs:
                acc = acc + comp * f.partial(nm)
        return acc

    def jacobian(self) -> tuple[tuple[tuple[int, LaurentPoly], ...], ...]:
        """Per component k, the pairs (i, d_i X^k) with a nonzero partial;
        built on first use and kept."""
        if self._jacobian is None:
            names = self.chart.names
            jac = []
            for comp in self.comps:
                row = []
                if comp.coeffs:
                    for i, nm in enumerate(names):
                        p = comp.partial(nm)
                        if p.coeffs:
                            row.append((i, p))
                jac.append(tuple(row))
            object.__setattr__(self, "_jacobian", tuple(jac))
        return self._jacobian

    def with_chart(self, chart: Chart) -> "VectorField":
        """Reinterpret on a larger chart (new coordinates get zero component)."""
        comps = [LaurentPoly.zero(chart)] * chart.dim
        for nm, c in zip(self.chart.names, self.comps):
            comps[chart.index(nm)] = c.with_chart(chart)
        return VectorField(chart, comps)

    def __repr__(self) -> str:
        parts = [
            f"({c})*d/d{nm}"
            for c, nm in zip(self.comps, self.chart.names)
            if not c.is_zero()
        ]
        return "VectorField(" + (" + ".join(parts) if parts else "0") + ")"


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Lie bracket [X, Y]^k = X^i d_i Y^k - Y^i d_i X^k, summed over the
    nonzero partials of both fields' Jacobians."""
    if x.chart is not y.chart:
        raise ValueError("chart mismatch")
    xc, yc = x.comps, y.comps
    zero = LaurentPoly.zero(x.chart)
    comps = []
    for dyk, dxk in zip(y.jacobian(), x.jacobian()):
        acc = zero
        for i, p in dyk:
            if xc[i].coeffs:
                acc = acc + xc[i] * p
        for i, p in dxk:
            if yc[i].coeffs:
                acc = acc - yc[i] * p
        comps.append(acc)
    return VectorField(x.chart, comps)


class Form:
    """Exterior differential form of fixed degree with Laurent coefficients."""

    __slots__ = ("chart", "degree", "terms")

    def __init__(self, chart: Chart, degree: int, terms: Mapping[tuple, LaurentPoly] | None = None):
        # degree > chart.dim is allowed but such a form is identically zero
        if degree < 0:
            raise ValueError("degree out of range")
        self.chart = chart
        self.degree = degree
        clean: dict[tuple, LaurentPoly] = {}
        if terms:
            for idx, coef in terms.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise ValueError("index tuple length != degree")
                if list(idx) != sorted(set(idx)):
                    raise ValueError("indices must be strictly increasing")
                if idx and (idx[0] < 0 or idx[-1] >= chart.dim):
                    raise ValueError("coordinate index out of range")
                if not coef.is_zero():
                    clean[idx] = coef
        self.terms = clean

    # ------------------------------------------------------------------

    @staticmethod
    def function(chart: Chart, f: LaurentPoly) -> "Form":
        return Form(chart, 0, {(): f})

    @staticmethod
    def d_coord(chart: Chart, name: str) -> "Form":
        """The coordinate differential d(name)."""
        return Form(chart, 1, {(chart.index(name),): LaurentPoly.one(chart)})

    @staticmethod
    def one_form(chart: Chart, coeffs: Mapping[str, LaurentPoly | Scalar]) -> "Form":
        terms = {}
        for nm, c in coeffs.items():
            if not isinstance(c, LaurentPoly):
                c = LaurentPoly.constant(chart, c)
            terms[(chart.index(nm),)] = c
        return Form(chart, 1, terms)

    def __add__(self, other: "Form") -> "Form":
        if self.chart is not other.chart or self.degree != other.degree:
            raise ValueError("form mismatch")
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            s = terms.get(idx)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(idx, None)
            else:
                terms[idx] = s
        return Form(self.chart, self.degree, terms)

    def __sub__(self, other: "Form") -> "Form":
        return self + other.scale(-1)

    def __neg__(self) -> "Form":
        return self.scale(-1)

    def scale(self, c) -> "Form":
        return Form(self.chart, self.degree, {i: f * c for i, f in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (
            self.chart is other.chart
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("Form is unhashable")

    def is_zero(self) -> bool:
        return not self.terms

    # ------------------------------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        if self.chart is not other.chart:
            raise ValueError("chart mismatch")
        deg = self.degree + other.degree
        out: dict[tuple, LaurentPoly] = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                if set(i1) & set(i2):
                    continue
                merged = i1 + i2
                key, sign = _sort_with_sign(merged)
                coef = c1 * c2
                if sign < 0:
                    coef = -coef
                s = out.get(key)
                s = coef if s is None else s + coef
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return Form(self.chart, deg, out)

    def d(self) -> "Form":
        """Exterior derivative."""
        chart = self.chart
        out: dict[tuple, LaurentPoly] = {}
        for idx, coef in self.terms.items():
            for j, nm in enumerate(chart.names):
                if j in idx:
                    continue
                dc = coef.partial(nm)
                if dc.is_zero():
                    continue
                key, sign = _sort_with_sign((j,) + idx)
                if sign < 0:
                    dc = -dc
                s = out.get(key)
                s = dc if s is None else s + dc
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return Form(chart, self.degree + 1, out)

    def insert(self, x: VectorField) -> "Form":
        """Interior product i_X."""
        if self.degree == 0:
            raise ValueError("cannot contract a 0-form")
        if x.chart is not self.chart:
            raise ValueError("chart mismatch")
        out: dict[tuple, LaurentPoly] = {}
        for idx, coef in self.terms.items():
            for t, j in enumerate(idx):
                comp = x.comps[j]
                if comp.is_zero():
                    continue
                c = coef * comp
                if t % 2:
                    c = -c
                key = idx[:t] + idx[t + 1:]
                s = out.get(key)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return Form(self.chart, self.degree - 1, out)

    def __call__(self, *fields: VectorField) -> LaurentPoly:
        """Evaluate on vector fields (full contraction)."""
        if len(fields) != self.degree:
            raise ValueError("wrong number of arguments")
        # omega(a, b, ...) = i_... i_b i_a omega: insert left argument first
        cur = self
        for x in fields:
            cur = cur.insert(x)
        return cur.terms.get((), LaurentPoly.zero(self.chart))

    def lie_derivative(self, x: VectorField) -> "Form":
        """Cartan: L_X = i_X d + d i_X."""
        part1 = self.d().insert(x)
        if self.degree == 0:
            return part1
        return part1 + self.insert(x).d()

    def with_chart(self, chart: Chart) -> "Form":
        """Reinterpret on a larger chart (new coordinates get no terms)."""
        pos = [chart.index(nm) for nm in self.chart.names]
        terms = {}
        for idx, coef in self.terms.items():
            key, sign = _sort_with_sign(tuple(pos[i] for i in idx))
            coef = coef.with_chart(chart)
            terms[key] = -coef if sign < 0 else coef
        return Form(chart, self.degree, terms)

    def __repr__(self) -> str:
        if not self.terms:
            return f"Form(degree {self.degree}, 0)"
        names = self.chart.names
        parts = []
        for idx in sorted(self.terms):
            basis = "^".join(f"d{names[i]}" for i in idx) or "1"
            parts.append(f"({self.terms[idx]}) {basis}")
        return "Form(" + " + ".join(parts) + ")"


def _sort_with_sign(idx: tuple) -> tuple[tuple, int]:
    """Sort index tuple, tracking permutation sign; repeated index -> sign 0
    is impossible here because callers filter duplicates."""
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return tuple(lst), sign


def skew_rows(omega: Form, alpha: Form | None = None) -> list[dict[int, LaurentPoly]]:
    """The coefficient matrix of a 2-form as sparse skew rows: row a is
    {b: omega(d/da, d/db)} over the nonzero entries.  A 1-form alpha borders
    it in front: row 0 is {b + 1: alpha_b}, and coordinate a moves to a + 1."""
    if alpha is not None and alpha.chart is not omega.chart:
        raise ValueError("chart mismatch")
    shift = 0 if alpha is None else 1
    rows: list[dict[int, LaurentPoly]] = [{} for _ in range(omega.chart.dim + shift)]
    # alpha's terms are the row of a coordinate -1, in front of the chart
    border = [((-1, b), c) for (b,), c in alpha.terms.items()] if shift else []
    for (a, b), c in border + list(omega.terms.items()):
        rows[a + shift][b + shift] = c
        rows[b + shift][a + shift] = -c
    return rows


def top_coefficient(omega: Form, alpha: Form | None = None) -> LaurentPoly:
    """The coefficient of omega^m/m! (or alpha ^ omega^m/m!) on the
    chart-ordered volume: the Pfaffian of skew_rows(omega, alpha), zero for
    odd size.  It expands along the first row over the nonzero entries only,
    Pf(A) = sum_j (-1)^k A_0j Pf(A without rows and columns 0, j) with k the
    place of j after 0.  Every form in the package has one or two nonzeros
    per row, so all branches but one end at their next row; a dense form
    would cost (d-1)!! products."""
    rows = skew_rows(omega, alpha)

    def pfaffian(live: tuple) -> LaurentPoly:
        if not live:
            return LaurentPoly.one(omega.chart)
        row, rest = rows[live[0]], live[1:]
        terms = (
            row[j] * pfaffian(rest[:k] + rest[k + 1:]) * (-1) ** k for k, j in enumerate(rest) if j in row
        )
        return sum(terms, LaurentPoly.zero(omega.chart))

    return pfaffian(tuple(range(len(rows))))


def pairing(g: PolyMatrix, x: VectorField, y: VectorField) -> LaurentPoly:
    """g(X, Y) = X^i g_ij Y^j, summed over the nonzero terms only."""
    acc = LaurentPoly.zero(x.chart)
    for xi, row in zip(x.comps, g.entries):
        if not xi.coeffs:
            continue
        for gij, yj in zip(row, y.comps):
            if gij.coeffs and yj.coeffs:
                acc = acc + xi * gij * yj
    return acc


def apply_matrix_field(m: PolyMatrix, x: VectorField) -> VectorField:
    """The field m X with components m^a_b X^b; m is square over the
    field's chart."""
    comps = []
    for row in m.entries:
        acc = LaurentPoly.zero(x.chart)
        for mab, xb in zip(row, x.comps):
            if mab.coeffs and xb.coeffs:
                acc = acc + mab * xb
        comps.append(acc)
    return VectorField(x.chart, comps)


def sym2(a: Form, b: Form) -> PolyMatrix:
    """Matrix of the symmetric product a . b = (a x b + b x a)/2 of 1-forms."""
    if a.degree != 1 or b.degree != 1 or a.chart is not b.chart:
        raise ValueError("sym2 needs two 1-forms on one chart")
    chart = a.chart
    dim = chart.dim
    half = Fraction(1, 2)
    z = LaurentPoly.zero(chart)
    av = [a.terms.get((i,), z) for i in range(dim)]
    bv = [b.terms.get((i,), z) for i in range(dim)]
    return PolyMatrix(
        chart,
        [[(av[i] * bv[j] + av[j] * bv[i]) * half for j in range(dim)] for i in range(dim)],
    )


def tensor2(a: Form, b: Form) -> PolyMatrix:
    """Matrix of the plain tensor product a x b of 1-forms."""
    if a.degree != 1 or b.degree != 1 or a.chart is not b.chart:
        raise ValueError("tensor2 needs two 1-forms on one chart")
    chart = a.chart
    dim = chart.dim
    z = LaurentPoly.zero(chart)
    av = [a.terms.get((i,), z) for i in range(dim)]
    bv = [b.terms.get((i,), z) for i in range(dim)]
    return PolyMatrix(chart, [[av[i] * bv[j] for j in range(dim)] for i in range(dim)])


class PolyMap:
    """Map between charts with Laurent-polynomial components.

    components: for each coordinate name of the target chart, its expression
    in the source chart.  An explicit inverse (when supplied) enables exact
    pushforward of vector fields.
    """

    __slots__ = ("src", "dst", "comps", "inverse_map")

    def __init__(
        self,
        src: Chart,
        dst: Chart,
        comps: Mapping[str, LaurentPoly],
        inverse: "PolyMap | None" = None,
    ):
        self.src = src
        self.dst = dst
        self.comps = {}
        for nm in dst.names:
            if nm not in comps:
                raise ValueError(f"missing component for {nm}")
            c = comps[nm]
            if c.chart is not src:
                raise ValueError(f"component {nm} not over source chart")
            self.comps[nm] = c
        self.inverse_map = inverse
        if inverse is not None and (inverse.src != dst or inverse.dst != src):
            raise ValueError("inverse charts do not match")

    def at(self, point: Mapping[str, Scalar]) -> dict[str, Fraction]:
        """The image of a point, given by its source coordinates, keyed by
        the target names; the point is converted once for all components."""
        vals = self.src.point_values(point)
        return {nm: c.evaluate_values(vals) for nm, c in self.comps.items()}

    def pull_function(self, f: LaurentPoly) -> LaurentPoly:
        if f.chart is not self.dst:
            raise ValueError("function not over target chart")
        return f.substitute(self.comps, self.src)

    def pull_form(self, omega: Form, params=frozenset()) -> Form:
        """F^* omega.  The source symbols named in params are frozen: their
        differentials are dropped, which gives the slice-wise pullback for
        each fixed parameter value, computed jointly."""
        if omega.chart is not self.dst:
            raise ValueError("form not over target chart")
        # differentials of the components: the rows of the Jacobian
        d_comp = [
            Form(self.src, 1, {(b,): c for b, c in enumerate(row)})
            for row in self.jacobian(params).entries
        ]
        out = Form(self.src, omega.degree, {})
        for idx, coef in omega.terms.items():
            pulled = Form.function(self.src, self.pull_function(coef))
            for i in idx:
                pulled = pulled.wedge(d_comp[i])
            out = out + pulled
        return out

    def pull_metric(self, g: PolyMatrix, params=frozenset()) -> PolyMatrix:
        """J^T (g o F) J with J the Jacobian of the map; rows and columns of
        the frozen parameter symbols in params are zero."""
        if g.chart is not self.dst:
            raise ValueError("metric not over target chart")
        jac = self.jacobian(params)
        pulled = g.substitute(self.comps, self.src)
        return jac.transpose() @ pulled @ jac

    def jacobian(self, params=frozenset()) -> PolyMatrix:
        """Rows: target coordinates; columns: source coordinates.  The
        columns of the frozen parameter symbols in params are zero."""
        z = LaurentPoly.zero(self.src)
        return PolyMatrix(
            self.src,
            [
                [z if s in params else self.comps[nm].partial(s) for s in self.src.names]
                for nm in self.dst.names
            ],
        )

    def push_field(self, x: VectorField) -> VectorField:
        """(F_* X)^a = (J^a_b X^b) o F^{-1}; needs the explicit inverse."""
        if self.inverse_map is None:
            raise ValueError("pushforward needs an explicit inverse map")
        if x.chart is not self.src:
            raise ValueError("field not over source chart")
        comps = apply_matrix_field(self.jacobian(), x).comps
        return VectorField(
            self.dst, [c.substitute(self.inverse_map.comps, self.dst) for c in comps]
        )

    def compose(self, other: "PolyMap") -> "PolyMap":
        """self o other (apply other first)."""
        if other.dst != self.src:
            raise ValueError("charts do not compose")
        comps = {nm: c.substitute(other.comps, other.src) for nm, c in self.comps.items()}
        inv = None
        if self.inverse_map is not None and other.inverse_map is not None:
            inv = other.inverse_map.compose(self.inverse_map)
        return PolyMap(other.src, self.dst, comps, inverse=inv)
