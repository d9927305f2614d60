"""Heisenberg group H_n over the rationals: group law, exponential map with
its nilpotent matrix-series oracle, the diffeomorphism chi onto the contact
phase space, translation actions, and the invariant-structure checks.

Group and algebra elements, and the matrices of the oracle, are integer
numerators over one positive denominator, so that the group law, exp, log
and the oracle run in int arithmetic."""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Mapping

from .fields import Form, PolyMap, VectorField, bracket, pairing
from .killing import combination_equals, spans_contain
from .poly import Chart, LaurentPoly, _as_fraction
from . import tps


class _Triple:
    """(a, b, last) with a and b of one length n.

    num: the integer numerators (a_1..a_n, b_1..b_n, last); den: their
    positive common denominator, with gcd(den, *num) == 1, so that equal
    triples have equal fields.  ``a`` and ``b`` are the Fraction views.
    Every scalar must be an int or a Fraction (TypeError otherwise).
    Instances are treated as immutable.
    """

    __slots__ = ("num", "den")

    def __init__(self, a, b, last):
        a = [_as_fraction(x) for x in a]
        b = [_as_fraction(x) for x in b]
        if len(a) != len(b):
            raise ValueError("a and b must have the same length")
        vals = a + b + [_as_fraction(last)]
        # over the least common denominator the numerators share no factor
        # with it
        den = lcm(*(x.denominator for x in vals))
        self.num = tuple(x.numerator * (den // x.denominator) for x in vals)
        self.den = den

    @property
    def n(self) -> int:
        return len(self.num) // 2

    @property
    def a(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(x, den) for x in self.num[: self.n])

    @property
    def b(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(x, den) for x in self.num[self.n : -1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))


def _lowest(cls, num: list[int], den: int):
    """The cls triple with these numerators over den > 0, in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = [x // g for x in num]
    el = object.__new__(cls)
    el.num = tuple(num)
    el.den = den
    return el


class HeisElement(_Triple):
    """Group element (a, b, c); the group law appends <a, b1> to the center."""

    __slots__ = ()

    @property
    def c(self) -> Fraction:
        return Fraction(self.num[-1], self.den)

    def __repr__(self) -> str:
        return f"HeisElement(a={list(self.a)}, b={list(self.b)}, c={self.c})"

    def to_json(self) -> str:
        return json.dumps(
            {
                "a": [str(x) for x in self.a],
                "b": [str(x) for x in self.b],
                "c": str(self.c),
            }
        )

    @staticmethod
    def from_json(s: str) -> "HeisElement":
        d = json.loads(s)
        return HeisElement(
            [Fraction(x) for x in d["a"]], [Fraction(x) for x in d["b"]], Fraction(d["c"])
        )


class HeisAlgElement(_Triple):
    """Lie algebra element (a, b, z)."""

    __slots__ = ()

    @property
    def z(self) -> Fraction:
        return Fraction(self.num[-1], self.den)

    def __repr__(self) -> str:
        return f"HeisAlgElement(a={list(self.a)}, b={list(self.b)}, z={self.z})"


def element(num: list[int], den: int) -> HeisElement:
    """The group element with the integer numerators (a_1..a_n, b_1..b_n, c)
    over den > 0, in lowest terms."""
    return _lowest(HeisElement, num, den)


def identity(n: int) -> HeisElement:
    return HeisElement([0] * n, [0] * n, 0)


def multiply(g: HeisElement, g1: HeisElement) -> HeisElement:
    # over den * den1: numerators cross-multiplied, and <a, b1> has exactly
    # that denominator already
    p, d = g.num, g.den
    q, e = g1.num, g1.den
    if len(p) != len(q):
        raise ValueError("dimension mismatch")
    n = len(p) // 2
    num = [x * e + y * d for x, y in zip(p, q)]
    num[-1] += sum(map(mul, p[:n], q[n:-1]))
    return element(num, d * e)


def inverse(g: HeisElement) -> HeisElement:
    # (-a, -b, -c + <a, b>) over den^2
    p, d = g.num, g.den
    n = len(p) // 2
    num = [-x * d for x in p]
    num[-1] += sum(map(mul, p[:n], p[n:-1]))
    return element(num, d * d)


def _half_pairing(x: _Triple, sign: int, cls):
    """(a, b, last + sign <a, b> / 2) as a cls triple, over 2 den^2."""
    p, d = x.num, x.den
    n = len(p) // 2
    num = [2 * d * v for v in p]
    num[-1] += sign * sum(map(mul, p[:n], p[n:-1]))
    return _lowest(cls, num, 2 * d * d)


def exp(x: HeisAlgElement) -> HeisElement:
    return _half_pairing(x, 1, HeisElement)


def log(g: HeisElement) -> HeisAlgElement:
    return _half_pairing(g, -1, HeisAlgElement)


# ----------------------------------------------------------------------
# matrix picture, used as an independent oracle: built from the (a, b, c)
# entries and never from multiply.  A matrix is (numerators, denominator):
# a square list of int rows over one positive int.


def _pattern(x: _Triple, diagonal: int) -> list[list[int]]:
    """The (n+2) x (n+2) numerators with first row (diagonal, a, last),
    middle block (diagonal * I, b) and corner diagonal."""
    n, p = x.n, x.num
    m = [[diagonal if i == j else 0 for j in range(n + 2)] for i in range(n + 2)]
    for i in range(n):
        m[0][1 + i] = p[i]
        m[1 + i][n + 1] = p[n + i]
    m[0][n + 1] = p[-1]
    return m


def element_matrix(g: HeisElement) -> tuple[list[list[int]], int]:
    """Upper unitriangular rendering: first row (1, a, c), middle block
    (I, b), corner 1."""
    return _pattern(g, g.den), g.den


def algebra_matrix(x: HeisAlgElement) -> tuple[list[list[int]], int]:
    """Strictly upper triangular: first row (0, a, z), middle block (0, b)."""
    return _pattern(x, 0), x.den


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Dense product of square int matrices; zero products are skipped."""
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        row = out[i]
        for k, aik in enumerate(a[i]):
            if not aik:
                continue
            for j, bkj in enumerate(b[k]):
                if bkj:
                    row[j] += aik * bkj
    return out


def _same(m: tuple[list[list[int]], int], m1: tuple[list[list[int]], int]) -> bool:
    """Equal matrices, compared by cross-multiplication."""
    (rows, d), (rows1, d1) = m, m1
    return all(x * d1 == y * d for r, r1 in zip(rows, rows1) for x, y in zip(r, r1))


def exp_series_matrix(x: HeisAlgElement) -> tuple[list[list[int]], int]:
    """I + M + M^2/2, over 2 den^2; the series terminates because M^3 = 0."""
    m, d = algebra_matrix(x)
    m2 = _mat_mul(m, m)
    out = [[2 * d * v + v2 for v, v2 in zip(row, row2)] for row, row2 in zip(m, m2)]
    for i, row in enumerate(out):
        row[i] += 2 * d * d
    return out, 2 * d * d


def exp_matches_series(x: HeisAlgElement) -> bool:
    return _same(element_matrix(exp(x)), exp_series_matrix(x))


def multiply_matches_matrices(g: HeisElement, g1: HeisElement) -> bool:
    (m, d), (m1, d1) = element_matrix(g), element_matrix(g1)
    return _same(element_matrix(multiply(g, g1)), (_mat_mul(m, m1), d * d1))


# ----------------------------------------------------------------------
# the diffeomorphism chi onto the contact phase space


def chi(g: HeisElement) -> dict[str, Fraction]:
    """(a, b, c) -> (x0 = -c, p = b, x = a), evaluated from chi_map."""
    cm = chi_map(g.n)
    return cm.at(dict(zip(cm.src.names, (*g.a, *g.b, g.c))))


def chi_inv(point: Mapping, n: int) -> HeisElement:
    """The element over a point of the contact phase space, evaluated from
    the inverse of chi_map."""
    *ab, c = chi_map(n).inverse_map.at(point).values()
    return HeisElement(ab[:n], ab[n:], c)


def right_action(g: HeisElement, point: Mapping) -> dict[str, Fraction]:
    """chi o (right translation by g) o chi^{-1}: translation_map(n, "right")
    at the point, with g's coordinates as the parameters.  The group-model
    suite compares it with chi(chi^{-1}(point) g) through multiply."""
    n = g.n
    m = translation_map(n, "right")
    # the chart is (x0, p, x) followed by the parameters (ga, gb, gc)
    base, params = m.src.names[: 2 * n + 1], m.src.names[2 * n + 1 :]
    image = m.at({**point, **dict(zip(params, (*g.a, *g.b, g.c)))})
    return {nm: image[nm] for nm in base}


# ----------------------------------------------------------------------
# symbolic side: invariant fields, pullbacks, translation invariance


def group_chart(n: int) -> Chart:
    return Chart([f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n + 1)] + ["c"])


# built once per n, like the Killing catalogs: callers share the map and
# must not change it
@functools.cache
def chi_map(n: int) -> PolyMap:
    """(a, b, c) -> (x0 = -c, p = b, x = a), with its exact inverse."""
    src, dst = group_chart(n), tps.tps_chart(n)
    # (target, source, sign): each coordinate is a signed coordinate of the other chart
    pairs = [("x0", "c", -1)]
    pairs += [(f"{t}{i}", f"{s}{i}", 1) for i in range(1, n + 1) for t, s in (("p", "b"), ("x", "a"))]
    comps = {t: LaurentPoly.variable(src, s) * sign for t, s, sign in pairs}
    inv_comps = {s: LaurentPoly.variable(dst, t) * sign for t, s, sign in pairs}
    return PolyMap(src, dst, comps, inverse=PolyMap(dst, src, inv_comps))


def right_invariant_fields(n: int) -> list[tuple[str, VectorField]]:
    """Generators of left translations: xi_Z = d/dc, xi_A_i = d/da_i + b_i d/dc,
    xi_B_j = d/db_j."""
    chart = group_chart(n)
    out = [("Z", VectorField.coordinate(chart, "c"))]
    for i in range(1, n + 1):
        out.append(
            (f"A{i}", VectorField.from_dict(chart, {f"a{i}": 1, "c": LaurentPoly.variable(chart, f"b{i}")}))
        )
    for j in range(1, n + 1):
        out.append((f"B{j}", VectorField.coordinate(chart, f"b{j}")))
    return out


def left_invariant_fields(n: int) -> list[tuple[str, VectorField]]:
    """Generators of right translations: eta_C = d/dc, eta_A_i = d/da_i,
    eta_B_j = d/db_j + a_j d/dc."""
    chart = group_chart(n)
    out = [("C", VectorField.coordinate(chart, "c"))]
    for i in range(1, n + 1):
        out.append((f"A{i}", VectorField.coordinate(chart, f"a{i}")))
    for j in range(1, n + 1):
        out.append(
            (f"B{j}", VectorField.from_dict(chart, {f"b{j}": 1, "c": LaurentPoly.variable(chart, f"a{j}")}))
        )
    return out


def theta_h(n: int) -> Form:
    """chi^* of the contact form: -dc + sum b_i da^i."""
    return chi_map(n).pull_form(tps.contact_form(n))


def invariant_report(n: int) -> dict:
    """Pushforwards of the invariant frames through chi, the pulled-back
    contact form and its invariance under right translations, the constant
    Gram matrix of the pulled-back metric, and the nilradical landing in the
    isometry span."""
    cm = chi_map(n)
    chart = group_chart(n)
    frame = dict(tps.canonical_frame(n))
    reeb = frame["xi"]

    th = theta_h(n)
    expect_terms = {"c": LaurentPoly.constant(chart, -1)}
    for i in range(1, n + 1):
        expect_terms[f"a{i}"] = LaurentPoly.variable(chart, f"b{i}")
    theta_ok = th == Form.one_form(chart, expect_terms)

    xi_fields = dict(right_invariant_fields(n))
    push_xi_ok = cm.push_field(xi_fields["Z"]) == reeb.scale(-1)
    for i in range(1, n + 1):
        push_xi_ok &= cm.push_field(xi_fields[f"A{i}"]) == frame[f"X{i}"]
        push_xi_ok &= cm.push_field(xi_fields[f"B{i}"]) == frame[f"P{i}"]

    eta_fields = dict(left_invariant_fields(n))
    lie_ok = all(th.lie_derivative(f).is_zero() for f in eta_fields.values())

    # Gram of the pulled-back metric in the right-invariant frame
    gh = cm.pull_metric(tps.phase_metric(n).g)
    order = ["Z"] + [f"A{i}" for i in range(1, n + 1)] + [f"B{j}" for j in range(1, n + 1)]
    gram = []
    constant = True
    for la in order:
        row = []
        for lb in order:
            acc = pairing(gh, xi_fields[la], xi_fields[lb])
            constant &= acc.is_constant()
            row.append(acc.constant_value() if acc.is_constant() else None)
        gram.append(row)
    expect_gram = [[Fraction(0)] * (2 * n + 1) for _ in range(2 * n + 1)]
    expect_gram[0][0] = Fraction(1)
    for i in range(1, n + 1):
        expect_gram[i][n + i] = Fraction(1)
        expect_gram[n + i][i] = Fraction(1)
    gram_ok = constant and gram == expect_gram

    # eta pushforwards land in the isometry span (they are -xi, -B_i, -A_j)
    killing_span = [f for _, f in tps.killing_catalog(n)]
    push_eta = {label: cm.push_field(f) for label, f in eta_fields.items()}
    span_ok = spans_contain(killing_span, push_eta.values())
    eta_c_ok = push_eta["C"] == reeb.scale(-1)
    cat = dict(tps.killing_catalog(n))
    eta_exact_ok = all(
        combination_equals(push_eta[f"A{i}"], {f"B{i}": -1}, cat)
        and combination_equals(push_eta[f"B{i}"], {f"A{i}": -1}, cat)
        for i in range(1, n + 1)
    )

    # commutator consistency: [xi_A_i, xi_B_j] pushes to delta_ij * reeb
    comm_ok = True
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            push = cm.push_field(bracket(xi_fields[f"A{i}"], xi_fields[f"B{j}"]))
            comm_ok &= push == reeb if i == j else push.is_zero()

    return {
        "theta_h_matches": theta_ok,
        "xi_pushforwards": push_xi_ok,
        "right_translation_invariance": lie_ok,
        "gram_constant": constant,
        "gram_matches": gram_ok,
        "nilradical_in_isometry_span": span_ok,
        "eta_pushforwards_exact": eta_c_ok and eta_exact_ok,
        "commutator_consistency": comm_ok,
    }


@functools.cache
def translation_map(n: int, kind: str) -> PolyMap:
    """chi o (translation by the symbolic element (ga, gb, gc)) o chi^{-1}
    on the contact phase space, the parameters carried along unchanged:
    right, (x0 - gc - <gb, x>, p + gb, x + ga); left,
    (x0 - gc - <ga, p>, p + gb, x + ga).  Cached per (n, kind); callers
    share the map and must not change it."""
    if kind not in ("right", "left"):
        raise ValueError("translation kind must be right or left")
    params = [f"ga{i}" for i in range(1, n + 1)] + [f"gb{i}" for i in range(1, n + 1)] + ["gc"]
    ext = tps.tps_chart(n).extend(params)

    def v(nm):
        return LaurentPoly.variable(ext, nm)

    comps = {nm: v(nm) for nm in params}
    shift = v("x0") - v("gc")
    for i in range(1, n + 1):
        shift = shift - (v(f"gb{i}") * v(f"x{i}") if kind == "right" else v(f"ga{i}") * v(f"p{i}"))
        comps[f"p{i}"] = v(f"p{i}") + v(f"gb{i}")
        comps[f"x{i}"] = v(f"x{i}") + v(f"ga{i}")
    comps["x0"] = shift
    return PolyMap(ext, ext, comps)


def translation_invariance_report(n: int) -> tuple[tuple[bool, None], tuple[bool, None]]:
    """Two (passed, witness) pairs, with a symbolic group element
    (ga, gb, gc): the right action preserves theta and G exactly; the left
    action does not (its theta pullback gains sum gb_i dx^i - sum ga_i dp_i)."""
    right_map = translation_map(n, "right")
    left_map = translation_map(n, "left")
    ext = right_map.src
    params = ext.names[2 * n + 1 :]

    theta = tps.contact_form(n).with_chart(ext)
    g = tps.phase_metric(n).g.with_chart(ext)
    right_theta_ok = right_map.pull_form(theta, params) == theta
    right_metric_ok = right_map.pull_metric(g, params) == g
    left_theta = left_map.pull_form(theta, params)
    defect = left_theta - theta
    expect_defect = Form(ext, 1, {})
    for i in range(1, n + 1):
        expect_defect = expect_defect + Form.one_form(
            ext,
            {
                f"x{i}": LaurentPoly.variable(ext, f"gb{i}"),
                f"p{i}": -LaurentPoly.variable(ext, f"ga{i}"),
            },
        )
    return (right_theta_ok and right_metric_ok, None), (defect == expect_defect, None)
