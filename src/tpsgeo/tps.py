"""The (2n+1)-dimensional contact phase space of thermodynamics.

Chart (x0, p1..pn, x1..xn), contact form theta = dx0 + sum p_l dx^l, Reeb
field d/dx0, the canonical horizontal frame, the indefinite phase-space
metric G = 2 dp . dx + theta (x) theta, its almost-contact tensor, the
Killing catalog, and the constitutive hypersurface x0 + sum p_l x^l = 0
with its Gibbs-Duhem pairing.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Mapping

from .curvature import MetricSpec
from .fields import Form, VectorField, apply_matrix_field, skew_rows, sym2, tensor2, top_coefficient
from .killing import BracketTable, bracket_failures, bracket_table
from .linalg import Elimination, PolyMatrix, bareiss_det
from .poly import Chart, LaurentPoly


def tps_chart(n: int) -> Chart:
    if n < 1:
        raise ValueError("n must be >= 1")
    return Chart(["x0"] + [f"p{i}" for i in range(1, n + 1)] + [f"x{i}" for i in range(1, n + 1)])


# built once per n, like the metric below: the form and the frame are shared
# by every caller and never mutated
@functools.cache
def contact_form(n: int) -> Form:
    chart = tps_chart(n)
    coeffs = {"x0": LaurentPoly.one(chart)}
    for l in range(1, n + 1):
        coeffs[f"x{l}"] = LaurentPoly.variable(chart, f"p{l}")
    return Form.one_form(chart, coeffs)


@functools.cache
def canonical_frame(n: int) -> tuple[tuple[str, VectorField], ...]:
    """xi, P_l = d/dp_l, X_i = d/dx^i - p_i d/dx0 (theta-horizontal lifts), as
    (label, field) pairs in the order xi, P1..Pn, X1..Xn."""
    chart = tps_chart(n)
    out = [("xi", VectorField.coordinate(chart, "x0"))]
    out += [(f"P{l}", VectorField.coordinate(chart, f"p{l}")) for l in range(1, n + 1)]
    for i in range(1, n + 1):
        lift = {f"x{i}": 1, "x0": -LaurentPoly.variable(chart, f"p{i}")}
        out.append((f"X{i}", VectorField.from_dict(chart, lift)))
    return tuple(out)


# built once per n: a MetricSpec is never mutated, and it keeps its
# Christoffel table
@functools.cache
def phase_metric(n: int) -> MetricSpec:
    """G = 2 dp . dx + theta (x) theta; inverse supplied in closed form."""
    chart = tps_chart(n)
    z = LaurentPoly.zero(chart)
    one = LaurentPoly.one(chart)
    d = chart.dim

    def p(i):
        return LaurentPoly.variable(chart, f"p{i}")

    g = [[z] * d for _ in range(d)]
    g[0][0] = one
    for i in range(1, n + 1):
        xi_idx = chart.index(f"x{i}")
        pi_idx = chart.index(f"p{i}")
        g[0][xi_idx] = p(i)
        g[xi_idx][0] = p(i)
        g[pi_idx][xi_idx] = g[pi_idx][xi_idx] + one
        g[xi_idx][pi_idx] = g[xi_idx][pi_idx] + one
        for j in range(1, n + 1):
            xj_idx = chart.index(f"x{j}")
            g[xi_idx][xj_idx] = g[xi_idx][xj_idx] + p(i) * p(j)

    ginv = [[z] * d for _ in range(d)]
    ginv[0][0] = one
    for i in range(1, n + 1):
        xi_idx = chart.index(f"x{i}")
        pi_idx = chart.index(f"p{i}")
        ginv[0][pi_idx] = -p(i)
        ginv[pi_idx][0] = -p(i)
        ginv[pi_idx][xi_idx] = one
        ginv[xi_idx][pi_idx] = one

    return MetricSpec(f"tps-metric-n{n}", chart, PolyMatrix(chart, g), PolyMatrix(chart, ginv))


def metric_identity_check(n: int) -> tuple[bool, None]:
    """Expand 2 sum dp_l . dx^l + theta (x) theta and compare with the matrix."""
    chart = tps_chart(n)
    theta = contact_form(n)
    acc = tensor2(theta, theta)
    for l in range(1, n + 1):
        acc = acc + sym2(Form.d_coord(chart, f"p{l}"), Form.d_coord(chart, f"x{l}")).scale(2)
    return acc == phase_metric(n).g, None


def contact_volume(n: int) -> tuple[bool, dict]:
    """theta ^ (dtheta)^n is n! (-1)^(n(n-1)/2) times the chart-ordered
    coordinate volume; the witness shows its coefficient there, n! times
    top_coefficient(dtheta, theta), None unless that is a constant."""
    theta = contact_form(n)
    coef = top_coefficient(theta.d(), theta) * math.factorial(n)
    value = coef.constant_value() if coef.is_constant() else None
    want = Fraction(math.factorial(n) * (-1) ** (n * (n - 1) // 2))
    return value == want, {"coefficient": value, "expected": want}


def reeb_pinning(n: int) -> tuple[bool, dict]:
    """ker(dtheta) on the chart is 1-dimensional and spanned by d/dx0, and
    theta normalizes it to 1; dtheta has constant coefficients, so this is a
    pure rational kernel computation on its skew rows.  A dtheta coefficient
    that is not constant fails, with its coordinate pair under
    "nonconstant"."""
    chart = tps_chart(n)
    omega = contact_form(n).d()
    nonconstant = [
        [chart.names[a] for a in key] for key, c in omega.terms.items() if not c.is_constant()
    ]
    if nonconstant:
        return False, {"kernel_dimension": None, "nonconstant": nonconstant[:3]}
    rows = [{b: c.constant_value() for b, c in row.items()} for row in skew_rows(omega)]
    basis = Elimination(rows).kernel(range(chart.dim))
    return basis == [{0: 1}], {"kernel_dimension": len(basis)}


def frame_commutator_table(n: int) -> tuple[bool, dict | None]:
    """All frame commutators vanish except [P_i, X_i] = -xi."""
    table = {(f"P{i}", f"X{i}"): {"xi": -1} for i in range(1, n + 1)}
    failures = bracket_failures(canonical_frame(n), table)
    return not failures, {"failures": failures} if failures else None


def symplectic_gram_on_horizontal(n: int) -> tuple[bool, None]:
    """dtheta Gram on span(P, X): omega(P_i, X_j) = delta, omega(P,P) =
    omega(X,X) = 0."""
    omega = contact_form(n).d()
    frame = dict(canonical_frame(n))
    ok = True
    for i in range(1, n + 1):
        P, X = frame[f"P{i}"], frame[f"X{i}"]
        for j in range(1, n + 1):
            ok &= omega(P, frame[f"X{j}"]) == (1 if i == j else 0)
            ok &= omega(P, frame[f"P{j}"]).is_zero()
            ok &= omega(X, frame[f"X{j}"]).is_zero()
    return bool(ok), None


# ----------------------------------------------------------------------
# signature split and light cone


def signature_split(n: int) -> tuple[list[tuple[VectorField, Fraction]], list[tuple[VectorField, Fraction]]]:
    """Orthogonal split: plus-part (xi and v_l = (P_l + X_l)/2), minus-part
    (w_l = (P_l - X_l)/2).  Each field is paired with its exact squared norm;
    normalizing by 1/sqrt|norm| would give Gram diag(+1 x (n+1), -1 x n)."""
    frame = dict(canonical_frame(n))
    g = phase_metric(n)
    half = Fraction(1, 2)
    plus = [(frame["xi"], g.inner(frame["xi"], frame["xi"]).constant_value())]
    minus = []
    for l in range(1, n + 1):
        v = (frame[f"P{l}"] + frame[f"X{l}"]).scale(half)
        w = (frame[f"P{l}"] - frame[f"X{l}"]).scale(half)
        plus.append((v, g.inner(v, v).constant_value()))
        minus.append((w, g.inner(w, w).constant_value()))
    return plus, minus


def split_report(n: int) -> tuple[bool, dict]:
    plus, minus = signature_split(n)
    g = phase_metric(n)
    fields = [f for f, _ in plus] + [f for f, _ in minus]
    norms = [q for _, q in plus] + [q for _, q in minus]
    ok = all(q > 0 for _, q in plus) and all(q < 0 for _, q in minus)
    ok &= len(plus) == n + 1 and len(minus) == n
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            ok &= g.inner(fields[i], fields[j]).is_zero()
    # rescaled Gram: diagonal q/|q| = sign(q), off-diagonal already exactly 0
    normalized = [1 if q > 0 else -1 for q in norms]
    ok &= normalized == [1] * (n + 1) + [-1] * n
    return bool(ok), {"normalized_diagonal": normalized}


def light_cone_class(n: int, x: VectorField, point: Mapping) -> str:
    q = phase_metric(n).inner(x, x).evaluate(point)
    if q > 0:
        return "positive"
    if q < 0:
        return "negative"
    return "null"


# ----------------------------------------------------------------------
# almost contact structure


def almost_contact_tensor(n: int) -> PolyMatrix:
    """(1,1)-tensor phi with phi(xi) = 0, phi(X_i) = P_i, phi(P_k) = -X_k;
    matrix acts on component columns."""
    chart = tps_chart(n)
    z = LaurentPoly.zero(chart)
    m = [[z] * chart.dim for _ in range(chart.dim)]
    for i in range(1, n + 1):
        pi, xi_ = chart.index(f"p{i}"), chart.index(f"x{i}")
        # phi(d/dp_i) = -X_i = -d/dx^i + p_i d/dx0
        m[0][pi] = LaurentPoly.variable(chart, f"p{i}")
        m[xi_][pi] = LaurentPoly.constant(chart, -1)
        # phi(d/dx^i) = d/dp_i
        m[pi][xi_] = LaurentPoly.one(chart)
    return PolyMatrix(chart, m)


def compatibility_check(n: int) -> tuple[tuple[bool, dict], tuple[bool, None], tuple[bool, dict]]:
    """Three (passed, witness) pairs: phi^2 = -I + theta (x) xi with
    theta o phi = 0 and rank(phi) = 2n; the modified pairing law
    G(phi A, phi B) = -G(A, B) + theta(A) theta(B) on all frame pairs and as
    a matrix identity; and the classical law G(phi A, phi B) = G(A, B) -
    theta(A) theta(B) failing, with (X1, P1) as witness."""
    chart = tps_chart(n)
    g = phase_metric(n)
    phi = almost_contact_tensor(n)
    theta = contact_form(n)
    frame = dict(canonical_frame(n))

    # phi^2 + I - theta (x) xi == 0; xi = d/dx0 has the components of dx0
    theta_xi = tensor2(Form.d_coord(chart, "x0"), theta)
    phi_sq_ok = ((phi @ phi) + PolyMatrix.identity(chart, chart.dim) - theta_xi).is_zero()

    theta_phi_zero = all(
        theta(apply_matrix_field(phi, VectorField.coordinate(chart, nm))).is_zero()
        for nm in chart.names
    )

    # rank phi = 2n everywhere: ker phi = span(xi) follows from phi(xi) = 0
    # together with phi^2 = -I + theta(x)xi (any kernel vector V satisfies
    # V = theta(V) xi); det phi = 0 confirms rank < 2n+1
    rank_ok = (
        phi_sq_ok and apply_matrix_field(phi, frame["xi"]).is_zero() and bareiss_det(phi).is_zero()
    )

    modified_ok = True
    for a in frame.values():
        for b in frame.values():
            lhs = g.inner(apply_matrix_field(phi, a), apply_matrix_field(phi, b))
            rhs = -g.inner(a, b) + theta(a) * theta(b)
            modified_ok &= lhs == rhs
    # matrix form of the same law: phi^T G phi + G - theta theta^T = 0
    modified_ok &= ((phi.transpose() @ g.g @ phi) + g.g - tensor2(theta, theta)).is_zero()

    x1, p1 = frame["X1"], frame["P1"]
    witness_lhs = g.inner(apply_matrix_field(phi, x1), apply_matrix_field(phi, p1))
    witness_rhs = g.inner(x1, p1) - theta(x1) * theta(p1)

    return (
        (bool(phi_sq_ok and theta_phi_zero and rank_ok), {"rank_phi": 2 * n if rank_ok else None}),
        (bool(modified_ok), None),
        (witness_lhs != witness_rhs, {"lhs_vs_rhs": (str(witness_lhs), str(witness_rhs))}),
    )


# ----------------------------------------------------------------------
# Killing catalog


# built once per n, like phase_metric: the fields are immutable and keep
# their Jacobians for every bracket taken of them
@functools.cache
def killing_catalog(n: int) -> tuple[tuple[str, VectorField], ...]:
    """Generators of the isometry algebra of the phase metric, dimension
    n^2 + 2n + 1: the Reeb field, A_i = x^i d/dx0 - d/dp_i, B_j = -d/dx^j,
    and Q^k_l = p_l d/dp_k - x^k d/dx^l, as (label, field) pairs."""
    chart = tps_chart(n)

    def x(i):
        return LaurentPoly.variable(chart, f"x{i}")

    def p(i):
        return LaurentPoly.variable(chart, f"p{i}")

    out: list[tuple[str, VectorField]] = [("xi", VectorField.coordinate(chart, "x0"))]
    for i in range(1, n + 1):
        out.append((f"A{i}", VectorField.from_dict(chart, {"x0": x(i), f"p{i}": -1})))
    for j in range(1, n + 1):
        out.append((f"B{j}", VectorField.from_dict(chart, {f"x{j}": -1})))
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            out.append(
                (f"Q{k}_{l}", VectorField.from_dict(chart, {f"p{k}": p(l), f"x{l}": -x(k)}))
            )
    return tuple(out)


def catalog_brackets(n: int) -> BracketTable:
    """The catalog's brackets in closed form, keyed by label pairs in catalog
    order: [A_i, B_j] = delta_ij xi, [Q^k_l, A_i] = -delta_il A_k,
    [Q^k_l, B_j] = delta_kj B_l, [Q^k_l, Q^r_s] = delta_ks Q^r_l -
    delta_rl Q^k_s; every other pair commutes."""
    rng = range(1, n + 1)
    qs = [(k, l) for k in rng for l in rng]
    terms = [(f"A{i}", f"B{i}", "xi", 1) for i in rng]
    for k, l in qs:
        # [A_l, Q^k_l] = A_k and [B_k, Q^k_l] = -B_l, A and B before Q
        terms += [(f"A{l}", f"Q{k}_{l}", f"A{k}", 1), (f"B{k}", f"Q{k}_{l}", f"B{l}", -1)]
    for pos, (k, l) in enumerate(qs):
        for r, s in qs[pos + 1:]:
            if s == k:
                terms.append((f"Q{k}_{l}", f"Q{r}_{s}", f"Q{r}_{l}", 1))
            if l == r:
                terms.append((f"Q{k}_{l}", f"Q{r}_{s}", f"Q{k}_{s}", -1))
    return bracket_table(terms)


# ----------------------------------------------------------------------
# constitutive hypersurface


class ConstitutiveHypersurface:
    """x0 + sum p_l x^l = 0 with its tangent distribution and Gibbs-Duhem
    pairing sum x^i dp_i."""

    __slots__ = ("n", "chart", "defining", "theta", "gibbs_duhem")

    def __init__(self, n: int):
        self.n = n
        self.chart = tps_chart(n)
        f = LaurentPoly.variable(self.chart, "x0")
        for l in range(1, n + 1):
            f = f + LaurentPoly.variable(self.chart, f"p{l}") * LaurentPoly.variable(
                self.chart, f"x{l}"
            )
        self.defining = f
        self.theta = contact_form(n)
        gd = {}
        for i in range(1, n + 1):
            gd[f"p{i}"] = LaurentPoly.variable(self.chart, f"x{i}")
        self.gibbs_duhem = Form.one_form(self.chart, gd)

    def generators(self) -> list[tuple[str, VectorField]]:
        """The theta-horizontal lifts X1..Xn of the canonical frame, then the
        rotations P{i}_{j} = x^j d/dp_i - x^i d/dp_j."""
        chart = self.chart
        out = [(label, f) for label, f in canonical_frame(self.n) if label.startswith("X")]
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                out.append(
                    (
                        f"P{i}_{j}",
                        VectorField.from_dict(
                            chart,
                            {
                                f"p{i}": LaurentPoly.variable(chart, f"x{j}"),
                                f"p{j}": -LaurentPoly.variable(chart, f"x{i}"),
                            },
                        ),
                    )
                )
        return out

    def generator_report(self) -> tuple[bool, dict]:
        """Each generator is tangent to the hypersurface, theta-horizontal,
        and annihilated by the Gibbs-Duhem 1-form - all identically - and
        the differential identity holds; the witness names the generators."""
        gens = self.generators()
        ok = all(
            v.apply(self.defining).is_zero()
            and self.theta(v).is_zero()
            and self.gibbs_duhem(v).is_zero()
            for _, v in gens
        )
        ok = ok and self.differential_identity()
        return ok, {"generators": sorted(label for label, _ in gens)}

    def differential_identity(self) -> bool:
        """theta + sum x^i dp_i = d(defining function), globally."""
        lhs = self.theta + self.gibbs_duhem
        return lhs == Form.function(self.chart, self.defining).d()
