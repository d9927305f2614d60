"""Verification suites behind the command line: each suite re-derives a
family of closed-form facts (curvature tables, isometry algebras, the
nilpotent group model, potential-surface geometry) and reports claim by
claim.  Expected tables are rebuilt here from their index formulas so the
suites do not trust the code under test."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from . import heisenberg, killing, legendre, sympl, tps
from .curvature import (
    DegeneratePlaneError,
    MetricSpec,
    ricci_scalar,
    riemann_tensor,
    sectional,
    trace_form,
)
from .fields import VectorField, bracket
from .linalg import PolyMatrix
from .poly import LaurentPoly
from .report import Result, check

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def _rand_point(chart, rng) -> dict[str, Fraction]:
    return {nm: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for nm in chart.names}


# ----------------------------------------------------------------------
# expected tables, rebuilt from the index formulas


def expected_christoffel_tps(n: int) -> dict:
    """Nonzero Christoffel symbols of the phase metric, keyed
    (upper, lower1, lower2) with lower1 <= lower2 positionally."""
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
            val = LaurentPoly.zero(chart)
            if i == lo:
                val = val + p[hi] * (-HALF)
            if i == hi:
                val = val + p[lo] * (-HALF)
            if not val.is_zero():
                out[(f"x{i}", f"x{lo}", f"x{hi}")] = val
    return out


def expected_ricci_tps(n: int) -> PolyMatrix:
    chart = tps.tps_chart(n)
    z = LaurentPoly.zero(chart)
    half_n = Fraction(n, 2)
    rows = [[z] * chart.dim for _ in range(chart.dim)]
    rows[0][0] = LaurentPoly.constant(chart, -half_n)
    for i in range(1, n + 1):
        pi = LaurentPoly.variable(chart, f"p{i}")
        xi_ = chart.index(f"x{i}")
        rows[0][xi_] = pi * (-half_n)
        rows[xi_][0] = pi * (-half_n)
        rows[chart.index(f"p{i}")][xi_] = LaurentPoly.constant(chart, HALF)
        rows[xi_][chart.index(f"p{i}")] = LaurentPoly.constant(chart, HALF)
        for j in range(1, n + 1):
            pj = LaurentPoly.variable(chart, f"p{j}")
            rows[xi_][chart.index(f"x{j}")] = pi * pj * (-half_n)
    return PolyMatrix(chart, rows)


def expected_christoffel_sympl(n: int) -> dict:
    chart = sympl.sympl_chart(n)

    def p(i):
        return LaurentPoly.variable(chart, f"p{i}")

    out = {}
    for i in range(n + 1):
        for j in range(n + 1):
            for k in range(n + 1):
                val = LaurentPoly.zero(chart)
                if i == j:
                    val = val + p(k) * HALF
                if j == k:
                    val = val + p(i) * HALF
                if not val.is_zero():
                    out[(f"p{i}", f"p{j}", f"x{k}")] = val
                if j <= k:
                    out[(f"p{i}", f"x{j}", f"x{k}")] = p(i) * p(j) * p(k)
                    xval = LaurentPoly.zero(chart)
                    if i == j:
                        xval = xval + p(k) * (-HALF)
                    if i == k:
                        xval = xval + p(j) * (-HALF)
                    if not xval.is_zero():
                        out[(f"x{i}", f"x{j}", f"x{k}")] = xval
    return out


def _table_diff_witness(got: dict, expect: dict):
    extra = sorted(set(got) - set(expect))
    missing = sorted(set(expect) - set(got))
    wrong = sorted(k for k in set(got) & set(expect) if got[k] != expect[k])
    return {
        "extra_keys": [list(k) for k in extra[:3]],
        "missing_keys": [list(k) for k in missing[:3]],
        "wrong_values": [
            {"key": list(k), "got": str(got[k]), "expected": str(expect[k])}
            for k in wrong[:3]
        ],
    }


# ----------------------------------------------------------------------
# curvature suites


def _riemann_apply(riem, chart, a: VectorField, b: VectorField, c: VectorField) -> VectorField:
    """R(A,B)C by tensor contraction; R is function-linear in all slots, so
    contracting polynomial components agrees with the operator definition."""
    d = chart.dim
    comps = []
    for i in range(d):
        acc = LaurentPoly.zero(chart)
        for j in range(d):
            if c.comps[j].is_zero():
                continue
            for k in range(d):
                if a.comps[k].is_zero():
                    continue
                for l in range(d):
                    r = riem[i][j][k][l]
                    if r.is_zero() or b.comps[l].is_zero():
                        continue
                    acc = acc + r * c.comps[j] * a.comps[k] * b.comps[l]
        comps.append(acc)
    return VectorField(chart, comps)


def _transform_table_result(n: int, metric: MetricSpec, riem) -> Result:
    """R(A,B)C on every ordered frame pair against the constant-coefficient
    table: only xi-P, xi-X, P-P, X-X, P-X planes act, with 1/4 and 1/2
    coefficients."""
    t = tps.build(n)
    chart = metric.chart
    xi, P, X = t.frame["xi"], t.frame["P"], t.frame["X"]
    zero = VectorField.zero(chart)
    mismatches = []

    def record(a, b, c, expect, label):
        got = _riemann_apply(riem, chart, a, b, c)
        if got != expect:
            mismatches.append(label)

    for i in range(n):
        record(xi, P[i], xi, P[i].scale(QUARTER), f"R(xi,P{i+1})xi")
        record(xi, X[i], xi, X[i].scale(QUARTER), f"R(xi,X{i+1})xi")
        for j in range(n):
            record(xi, P[i], P[j], zero, f"R(xi,P{i+1})P{j+1}")
            record(
                xi, P[i], X[j],
                xi.scale(-QUARTER if i == j else 0),
                f"R(xi,P{i+1})X{j+1}",
            )
            record(
                xi, X[i], P[j],
                xi.scale(-QUARTER if i == j else 0),
                f"R(xi,X{i+1})P{j+1}",
            )
            record(xi, X[i], X[j], zero, f"R(xi,X{i+1})X{j+1}")

    for i in range(n):
        for j in range(n):
            record(P[i], P[j], xi, zero, f"R(P{i+1},P{j+1})xi")
            record(X[i], X[j], xi, zero, f"R(X{i+1},X{j+1})xi")
            record(P[i], X[j], xi, zero, f"R(P{i+1},X{j+1})xi")
            for k in range(n):
                record(P[i], P[j], P[k], zero, f"R(P{i+1},P{j+1})P{k+1}")
                record(
                    P[i], P[j], X[k],
                    P[j].scale(QUARTER if i == k else 0)
                    - P[i].scale(QUARTER if j == k else 0),
                    f"R(P{i+1},P{j+1})X{k+1}",
                )
                record(X[i], X[j], X[k], zero, f"R(X{i+1},X{j+1})X{k+1}")
                record(
                    X[i], X[j], P[k],
                    X[j].scale(QUARTER if i == k else 0)
                    - X[i].scale(QUARTER if j == k else 0),
                    f"R(X{i+1},X{j+1})P{k+1}",
                )
                record(
                    P[i], X[j], P[k],
                    P[i].scale(QUARTER if j == k else 0)
                    + P[k].scale(HALF if i == j else 0),
                    f"R(P{i+1},X{j+1})P{k+1}",
                )
                record(
                    P[i], X[j], X[k],
                    X[j].scale(-QUARTER if i == k else 0)
                    - X[k].scale(HALF if i == j else 0),
                    f"R(P{i+1},X{j+1})X{k+1}",
                )
    return check(
        "curvature transform R(A,B)C matches the frame table on all pairs",
        "curvature-table",
        not mismatches,
        witness={"mismatches": mismatches[:5]} if mismatches else {"pairs_exact": True},
    )


def _sectional_results(n: int, metric: MetricSpec, riem) -> list[Result]:
    t = tps.build(n)
    chart = metric.chart
    P, X, xi = t.frame["P"], t.frame["X"], t.frame["xi"]
    dx = [VectorField.coordinate(chart, f"x{i}") for i in range(1, n + 1)]
    rng = random.Random(20260825)
    out = []

    # conjugate pairs (P_i, d/dx^i): numerator == (3/4) denominator as
    # polynomials, then spot-evaluated at 100 random rational points
    def parts_polys(a, b):
        num = metric.inner(_riemann_apply(riem, chart, a, b, b), a)
        den = metric.inner(a, a) * metric.inner(b, b) - metric.inner(a, b) ** 2
        return num, den

    poly_ok = True
    point_fail = None
    for i in range(n):
        num, den = parts_polys(P[i], dx[i])
        poly_ok &= num == den * Fraction(3, 4)
    for _ in range(100):
        i = rng.randrange(n)
        pt = _rand_point(chart, rng)
        val = sectional(metric, P[i], dx[i], pt)
        if val != Fraction(3, 4):
            point_fail = {"i": i + 1, "point": {k: str(v) for k, v in pt.items()}, "value": str(val)}
            break
    out.append(
        check(
            "sectional curvature of (P_i, d/dx^i) equals 3/4 identically and at 100 random points",
            "curvature-table",
            poly_ok and point_fail is None,
            witness=point_fail or {"points_checked": 100, "identity": True},
        )
    )

    # vanishing families: both numerator and denominator are identically zero
    families = [("(xi,P_1)", xi, P[0]), ("(xi,dx^1)", xi, dx[0]), ("(xi,X_1)", xi, X[0])]
    if n >= 2:
        families += [("(P_1,P_2)", P[0], P[1]), ("(dx^1,dx^2)", dx[0], dx[1])]
    bad = []
    for label, a, b in families:
        num, den = parts_polys(a, b)
        if not (num.is_zero() and den.is_zero()):
            bad.append(label)
    out.append(
        check(
            "sectional numerator and plane norm vanish identically on the degenerate families",
            "curvature-table",
            not bad,
            witness={"failing": bad} if bad else {"families": [f[0] for f in families]},
        )
    )

    if n >= 2:
        raised = False
        try:
            sectional(metric, P[0], dx[1], _rand_point(chart, rng))
        except DegeneratePlaneError:
            raised = True
        out.append(
            check(
                "mixed pair (P_1, d/dx^2) is rejected as a degenerate plane",
                "curvature-table",
                raised,
                witness={"raises": "DegeneratePlaneError"},
            )
        )
    else:
        out.append(
            Result(
                "mixed pair (P_1, d/dx^2) is rejected as a degenerate plane",
                "curvature-table",
                "not-applicable",
                witness="needs n >= 2",
            )
        )
    return out


def _curvature_tps(n: int) -> list[Result]:
    m = tps.phase_metric(n)
    out = []
    want_det = LaurentPoly.constant(m.chart, Fraction((-1) ** n))
    out.append(
        check(
            "det(G) = (-1)^n",
            "curvature-table",
            m.det == want_det,
            witness={"det": str(m.det), "expected": str((-1) ** n)},
        )
    )

    got = m.christoffel().nonzero()
    expect = expected_christoffel_tps(n)
    ok = got == expect
    out.append(
        check(
            "Christoffel symbols match the seven closed-form families and nothing else",
            "curvature-table",
            ok,
            witness={"nonzero_count": len(got)} if ok else _table_diff_witness(got, expect),
        )
    )

    tf = trace_form(m)
    out.append(
        check(
            "connection trace form vanishes (det G is constant)",
            "curvature-table",
            all(c.is_zero() for c in tf),
            witness={"nonzero_slots": [i for i, c in enumerate(tf) if not c.is_zero()]},
        )
    )

    cur = ricci_scalar(m)
    ric_ok = cur.ricci == expected_ricci_tps(n)
    scal_ok = cur.scalar == Fraction(n, 2)
    out.append(
        check(
            "Ricci tensor matches its closed form",
            "curvature-table",
            ric_ok,
            witness={"matrix_exact": ric_ok},
        )
    )
    out.append(
        check(
            "scalar curvature equals n/2",
            "curvature-table",
            scal_ok,
            witness={"scalar": str(cur.scalar), "expected": str(Fraction(n, 2))},
        )
    )

    out.append(_transform_table_result(n, m, cur.riemann))
    out.extend(_sectional_results(n, m, cur.riemann))
    return out


def _curvature_sympl(n: int) -> list[Result]:
    m = sympl.sympl_metric(n)
    out = []
    want_det = LaurentPoly.constant(m.chart, Fraction((-1) ** (n + 1)))
    out.append(
        check(
            "det(G-tilde) = (-1)^(n+1)",
            "curvature-table",
            m.det == want_det,
            witness={"det": str(m.det), "expected": str((-1) ** (n + 1))},
        )
    )

    got = m.christoffel().nonzero()
    expect = expected_christoffel_sympl(n)
    ok = got == expect
    out.append(
        check(
            "Christoffel symbols match the three closed-form families and nothing else",
            "curvature-table",
            ok,
            witness={"nonzero_count": len(got)} if ok else _table_diff_witness(got, expect),
        )
    )

    tf = trace_form(m)
    out.append(
        check(
            "connection trace form vanishes (det G-tilde is constant)",
            "curvature-table",
            all(c.is_zero() for c in tf),
            witness={"nonzero_slots": [i for i, c in enumerate(tf) if not c.is_zero()]},
        )
    )

    rep = sympl.einstein_report(n)
    out.append(
        check(
            "lifted metric is Einstein: Ric = ((n+2)/2) G-tilde",
            "curvature-table",
            rep["einstein_factor"] is not None,
            witness={"einstein_factor": rep["einstein_factor"]},
        )
    )
    scal = rep["scalar"]
    out.append(
        check(
            "scalar curvature equals (n+1)(n+2)",
            "curvature-table",
            scal == rep["scalar_expected"],
            witness={
                "scalar": scal.constant_value() if scal.is_constant() else str(scal),
                "expected": rep["scalar_expected"],
            },
        )
    )

    vol = sympl.volume_report(n)
    out.append(
        check(
            "symplectic top power matches the paired volume with unit Pfaffian sign",
            "contact-structure",
            vol["passed"],
            witness={"pfaffian_sign": vol["pfaffian_sign"]},
        )
    )
    return out


def suite_curvature(space: str, n: int) -> list[Result]:
    if space == "tps":
        if not 1 <= n <= 4:
            raise ValueError("tps curvature supports 1 <= n <= 4")
        return _curvature_tps(n)
    if space == "sympl":
        if not 1 <= n <= 3:
            raise ValueError("sympl curvature supports 1 <= n <= 3")
        return _curvature_sympl(n)
    raise ValueError(f"unknown space {space!r}")


# ----------------------------------------------------------------------
# isometry suites


def _tps_bracket_results(n: int) -> list[Result]:
    """The catalog brackets in closed form: [A_i, B_j] = delta_ij xi,
    [Q^k_l, A_i] = -delta_il A_k, [Q^k_l, B_j] = delta_kj B_l,
    [Q^k_l, Q^r_s] = delta_ks Q^r_l - delta_rl Q^k_s, everything else zero."""
    cat = dict(tps.killing_catalog(n))
    chart = tps.tps_chart(n)
    zero = VectorField.zero(chart)

    def expected(la: str, lb: str) -> VectorField:
        if la == "xi" or lb == "xi":
            return zero
        if la[0] == "A" and lb[0] == "A":
            return zero
        if la[0] == "B" and lb[0] == "B":
            return zero
        if la[0] == "A" and lb[0] == "B":
            return cat["xi"] if la[1:] == lb[1:] else zero
        if la[0] == "B" and lb[0] == "A":
            return cat["xi"].scale(-1) if la[1:] == lb[1:] else zero
        if la[0] == "Q" and lb[0] == "Q":
            k, l = (int(s) for s in la[1:].split("_"))
            r, s = (int(t) for t in lb[1:].split("_"))
            acc = zero
            if s == k:
                acc = acc + cat[f"Q{r}_{l}"]
            if l == r:
                acc = acc - cat[f"Q{k}_{s}"]
            return acc
        if la[0] == "Q":
            k, l = (int(s) for s in la[1:].split("_"))
            i = int(lb[1:])
            if lb[0] == "A":
                return cat[f"A{k}"].scale(-1) if l == i else zero
            return cat[f"B{l}"] if k == i else zero
        return expected(lb, la).scale(-1)

    bad = []
    labels = list(cat)
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            la, lb = labels[a], labels[b]
            if bracket(cat[la], cat[lb]) != expected(la, lb):
                bad.append(f"[{la},{lb}]")
    return [
        check(
            "catalog brackets match the closed-form structure constants",
            "isometry-algebra",
            not bad,
            witness={"failing_brackets": bad[:5]} if bad else {"pairs": len(labels) * (len(labels) - 1) // 2},
        )
    ]


def suite_killing(space: str, n: int, degree: int = 2) -> list[Result]:
    if degree < 1:
        raise ValueError("polynomial degree for the solver must be >= 1")
    out = []
    if space == "tps":
        m = tps.phase_metric(n)
        fields = killing.killing_solve(m, degree)
        expect_dim = n * n + 2 * n + 1
        out.append(
            check(
                f"degree-{degree} isometry solve has dimension (n+1)^2",
                "isometry-algebra",
                len(fields) == expect_dim,
                witness={"dimension": len(fields), "expected": expect_dim},
            )
        )
        cat = [f for _, f in tps.killing_catalog(n)]
        out.append(
            check(
                "solved span equals the catalog span",
                "isometry-algebra",
                killing.spans_equal(fields, cat),
                witness={"catalog_size": len(cat)},
            )
        )
        rep = tps.catalog_killing_report(n)
        out.append(
            check(
                "every catalog field is a metric isometry generator",
                "isometry-algebra",
                rep["passed"],
                witness={"non_killing": rep["non_killing"]},
            )
        )
        out.extend(_tps_bracket_results(n))
    elif space == "sympl":
        m = sympl.sympl_metric(n)
        fields = killing.killing_solve(m, degree)
        expect_dim = (n + 2) ** 2 - 1
        if degree >= 2:
            out.append(
                check(
                    f"degree-{degree} isometry solve has dimension (n+2)^2 - 1",
                    "isometry-algebra",
                    len(fields) == expect_dim,
                    witness={"dimension": len(fields), "expected": expect_dim},
                )
            )
            cat = [f for _, f in sympl.killing_catalog(n)]
            out.append(
                check(
                    "solved span equals the catalog span",
                    "isometry-algebra",
                    killing.spans_equal(fields, cat),
                    witness={"catalog_size": len(cat)},
                )
            )
        else:
            out.append(
                Result(
                    "dimension check for the lifted metric",
                    "isometry-algebra",
                    "not-applicable",
                    witness=f"quadratic generators need degree >= 2; degree-1 solve found {len(fields)}",
                )
            )
        rep = sympl.catalog_report(n)
        out.append(
            check(
                "every catalog field is a metric isometry generator",
                "isometry-algebra",
                rep["passed"],
                witness={"count": rep.get("count")},
            )
        )
        br = sympl.bracket_report(n)
        out.append(
            check(
                "catalog brackets match the closed-form structure constants",
                "isometry-algebra",
                br["passed"],
                witness={"failures": br.get("failures", [])},
            )
        )
        sl = sympl.sl_embedding_report(n)
        out.append(
            check(
                "rescaled generators reproduce the traceless-matrix bracket exactly",
                "isometry-algebra",
                sl["passed"],
                witness={"dimension": (n + 2) ** 2 - 1},
            )
        )
    else:
        raise ValueError(f"unknown space {space!r}")
    return out


# ----------------------------------------------------------------------
# structure suites for verify-all


def suite_tps(n: int) -> list[Result]:
    out = []
    out.append(
        check(
            "metric identity: G = theta (x) theta + sym(dp,dx)",
            "contact-structure",
            tps.metric_identity_check(n),
        )
    )
    _, coef = tps.contact_volume(n)
    want = Fraction(math.factorial(n) * (-1) ** (n * (n - 1) // 2))
    out.append(
        check(
            "theta ^ (d theta)^n is the chart volume up to the exact constant",
            "contact-structure",
            coef == want,
            witness={"coefficient": coef, "expected": want},
        )
    )
    rep = tps.reeb_pinning(n)
    out.append(
        check(
            "Reeb field is pinned by theta(xi)=1 and xi in ker(d theta)",
            "contact-structure",
            rep["passed"],
            witness={"kernel_dimension": rep["kernel_dimension"]},
        )
    )
    out.append(
        check(
            "canonical frame commutators: [P_i, X_j] = -delta_ij xi, others zero",
            "contact-structure",
            tps.frame_commutator_table(n)["passed"],
        )
    )
    out.append(
        check(
            "d theta restricted to the horizontal frame is the standard pairing",
            "contact-structure",
            tps.symplectic_gram_on_horizontal(n)["passed"],
        )
    )
    sp = tps.split_report(n)
    out.append(
        check(
            "orthogonal split has signature (n+1, n)",
            "metric-split",
            sp["passed"],
            witness={"normalized_diagonal": sp["normalized_diagonal"]},
        )
    )
    t = tps.build(n)
    pt = _rand_point(t.chart, random.Random(7))
    cone = {
        "xi": tps.light_cone_class(n, t.frame["xi"], pt),
        "P_1": tps.light_cone_class(n, t.frame["P"][0], pt),
        "X_1": tps.light_cone_class(n, t.frame["X"][0], pt),
    }
    out.append(
        check(
            "light cone: xi is positive, P_1 and X_1 are null",
            "metric-split",
            cone == {"xi": "positive", "P_1": "null", "X_1": "null"},
            witness=cone,
        )
    )
    comp = tps.compatibility_check(n)
    out.append(
        check(
            "phi^2 = -I + theta (x) xi with rank(phi) = 2n",
            "compatibility",
            comp["phi_squared_ok"] and comp["rank_phi"] == 2 * n,
            witness={"rank_phi": comp["rank_phi"]},
        )
    )
    out.append(
        check(
            "modified pairing law G(phi A, phi B) = -G(A,B) + theta(A)theta(B)",
            "compatibility",
            comp["modified_law_ok"],
        )
    )
    out.append(
        check(
            "classical pairing law fails, witnessed on (X_1, P_1)",
            "compatibility",
            comp["classical_law_fails"],
            witness={"lhs_vs_rhs": comp["classical_witness"]},
        )
    )
    hyp = tps.constitutive_hypersurface(n)
    gen = hyp.generator_report()
    out.append(
        check(
            "constitutive hypersurface generators are tangent, horizontal, and pairing-free",
            "contact-structure",
            gen["passed"] and hyp.differential_identity(),
            witness={"generators": sorted(gen["generators"])},
        )
    )
    return out


def suite_sympl(n: int) -> list[Result]:
    out = []
    emb = sympl.embedding_report(n)
    out.append(
        check(
            "p_0 = 1 embedding pulls the lifted forms back to the contact data",
            "contact-structure",
            emb["passed"],
            witness={k: emb[k] for k in ("theta_pullback", "metric_pullback", "omega_pullback")},
        )
    )
    out.append(
        check(
            "canonical null frame satisfies its bracket and pairing table",
            "metric-split",
            sympl.frame_report(n)["passed"],
        )
    )
    out.append(
        check(
            "null cone identity G(V,V) = 2 sum f_i g_i on the frame coefficients",
            "metric-split",
            sympl.null_cone_identity(n)["passed"],
        )
    )
    ham = sympl.hamiltonian_report(n)
    out.append(
        check(
            "catalog generators are Hamiltonian for the symplectic form",
            "isometry-algebra",
            ham["passed"],
            witness={"failures": ham.get("failures", [])},
        )
    )
    nij = sympl.nijenhuis_report(n)
    out.append(
        check(
            "cone complex structure has vanishing torsion on the frame pairs",
            "compatibility",
            nij["j_squared_minus_identity"] and nij["torsion_failures"] == 0,
            witness={"pairs_checked": nij["pairs_checked"]},
        )
    )
    out.append(
        check(
            "non-parallelism witness -2 d theta(phi X_1, X_1) theta(xi) = -2",
            "compatibility",
            nij["remark_witness"] == "-2" and nij["nonparallel_witness"] == "1",
            witness={"remark": nij["remark_witness"], "direct": nij["nonparallel_witness"]},
        )
    )
    out.append(
        check(
            "Ricci pairing of the Reeb direction equals -n/2",
            "curvature-table",
            nij["ricci_reeb"] == Fraction(-n, 2),
            witness={"ricci_reeb": nij["ricci_reeb"]},
        )
    )
    out.append(
        check(
            "scaling action preserves the lifted metric and rescales theta-tilde",
            "isometry-algebra",
            sympl.hyperbolic_report(n)["passed"],
        )
    )
    out.append(
        check(
            "projective charts cover, with exact transition maps",
            "projective-cells",
            sympl.proj_report(n)["passed"],
        )
    )
    cell_bad = [k for k in range(n + 1) if not sympl.cell_report(n, k)["passed"]]
    out.append(
        check(
            "cell restrictions have the stated contact form and metric blocks",
            "projective-cells",
            not cell_bad,
            witness={"cells": list(range(n + 1)), "failing": cell_bad},
        )
    )
    sig = sympl.quadric_signature(n)
    out.append(
        check(
            "incidence quadric has split signature",
            "projective-cells",
            sig == (n + 1, n + 1, 0),
            witness={"signature": list(sig)},
        )
    )
    if n == 2:
        gas = sympl.ideal_gas_report(Fraction(2))
        out.append(
            check(
                "ideal-gas ray lies in the expected projective cell",
                "projective-cells",
                gas["passed"],
                witness={"cell": gas["cell"], "lam": gas["lam"]},
            )
        )
    aff = sympl.affine_report(n)
    out.append(
        check(
            "affine change of contact potential is an exact symplectomorphism",
            "contact-structure",
            aff["passed"],
            witness={"omega_pullback_sign": aff["omega_pullback_sign"]},
        )
    )
    return out


def suite_heisenberg(n: int) -> list[Result]:
    out = []
    rng = random.Random(42)

    def rand_el():
        return heisenberg.HeisElement(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)],
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)],
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )

    ident = heisenberg.identity(n)
    axiom_bad = None
    for _ in range(200):
        g, h, k = rand_el(), rand_el(), rand_el()
        assoc = heisenberg.multiply(heisenberg.multiply(g, h), k) == heisenberg.multiply(
            g, heisenberg.multiply(h, k)
        )
        unit = heisenberg.multiply(g, ident) == g and heisenberg.multiply(ident, g) == g
        inv = heisenberg.multiply(g, heisenberg.inverse(g)) == ident
        if not (assoc and unit and inv):
            axiom_bad = g.to_json()
            break
    out.append(
        check(
            "group axioms hold exactly over 200 random rational triples",
            "group-model",
            axiom_bad is None,
            witness=axiom_bad or {"samples": 200},
        )
    )

    series_bad = None
    for _ in range(50):
        g, h = rand_el(), rand_el()
        x = heisenberg.log(g)
        if not heisenberg.exp_matches_series(x):
            series_bad = {"element": g.to_json(), "kind": "exp-series"}
            break
        if not heisenberg.multiply_matches_matrices(g, h):
            series_bad = {"kind": "matrix-product"}
            break
        if heisenberg.exp(heisenberg.log(g)) != g:
            series_bad = {"element": g.to_json(), "kind": "exp-log"}
            break
    out.append(
        check(
            "exponential agrees with the nilpotent matrix series; log inverts it",
            "group-model",
            series_bad is None,
            witness=series_bad or {"samples": 50},
        )
    )

    rt_bad = None
    for _ in range(25):
        g = rand_el()
        p = heisenberg.chi(rand_el())
        if heisenberg.right_action(g, p) != heisenberg.chi(
            heisenberg.multiply(heisenberg.chi_inv(p, n), g)
        ):
            rt_bad = g.to_json()
            break
    out.append(
        check(
            "chart map intertwines right translation with its closed-form action",
            "group-model",
            rt_bad is None,
            witness=rt_bad or {"samples": 25},
        )
    )

    inv_rep = heisenberg.invariant_report(n)
    for claim, key in [
        ("chart map identifies the invariant one-form with theta", "theta_h_matches"),
        ("invariant frame pushes to (-xi, X_i, P_j)", "xi_pushforwards"),
        ("left-invariant frame pushes to exact isometry generators", "eta_pushforwards_exact"),
        ("central commutator matches through the chart map", "commutator_consistency"),
        ("frame Gram matrix of the pulled metric is constant", "gram_constant"),
        ("nilpotent frame spans inside the isometry algebra", "nilradical_in_isometry_span"),
    ]:
        out.append(check(claim, "group-model", bool(inv_rep[key]), witness={"key": key}))

    tr = heisenberg.translation_invariance_report(n)
    out.append(
        check(
            "right translations preserve theta and G with symbolic parameters",
            "group-model",
            tr["right_preserves_theta"] and tr["right_preserves_metric"],
        )
    )
    out.append(
        check(
            "left translation defect on theta equals sum(gb_i dx^i - ga_i dp_i)",
            "group-model",
            tr["left_theta_defect_matches"],
        )
    )

    g = rand_el()
    out.append(
        check(
            "JSON round trip preserves elements exactly",
            "plumbing",
            heisenberg.HeisElement.from_json(g.to_json()) == g,
            witness=g.to_json(),
        )
    )
    return out


def suite_legendre() -> list[Result]:
    out = []
    rng = np.random.default_rng(20260825)
    models = {
        "van_der_waals": (
            legendre.van_der_waals(),
            lambda: np.array([rng.uniform(-1.5, 1.5), rng.uniform(1.3, 4.0)]),
        ),
        "van_der_waals_literal": (
            legendre.van_der_waals(positive_exponent=True),
            lambda: np.array([rng.uniform(-1.5, 1.5), rng.uniform(1.3, 4.0)]),
        ),
        "ideal_gas_energy": (
            legendre.ideal_gas_energy(),
            lambda: np.array([rng.uniform(-1.5, 1.5), rng.uniform(0.4, 4.0)]),
        ),
        "quadratic": (
            legendre.quadratic([[2.0, 0.5], [0.5, 1.0]]),
            lambda: rng.uniform(-2.0, 2.0, size=2),
        ),
        "quadratic_mixed": (
            legendre.quadratic([[2.0, 0.5], [0.5, 1.0]], part_i=(1,)),
            lambda: rng.uniform(-2.0, 2.0, size=2),
        ),
        "homogeneous_demo": (
            legendre.homogeneous_demo(),
            lambda: np.array([rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0)]),
        ),
    }

    worst_theta = {}
    worst_block = {}
    for name, (model, sample) in models.items():
        im = legendre.induced_metric(model, np.array([sample() for _ in range(100)]))
        worst_theta[name] = max(0.0, *im["surface_point"]["legendre_residual"].tolist())
        worst_block[name] = max(0.0, *im["block_agreement"].tolist())
    out.append(
        check(
            "contact form pulls back to zero on every surface (100 points per model)",
            "surface-geometry",
            max(worst_theta.values()) < 1e-12,
            witness={k: float(v) for k, v in worst_theta.items()},
            exact=False,
        )
    )
    out.append(
        check(
            "induced metric agrees with its Hessian block formula",
            "surface-geometry",
            max(worst_block.values()) < 1e-10,
            witness={k: float(v) for k, v in worst_block.items()},
            exact=False,
        )
    )

    quad = models["quadratic"][0]
    rep = legendre.second_fundamental_form(
        quad, np.array([rng.uniform(-2.0, 2.0, size=2) for _ in range(20)])
    )
    ii_worst = max(0.0, *rep["ii_norm"].tolist())
    out.append(
        check(
            "quadratic potentials give totally geodesic surfaces",
            "surface-geometry",
            ii_worst < 1e-12,
            witness={"worst_ii_norm": float(ii_worst)},
            exact=False,
        )
    )

    vdw = models["van_der_waals"][0]
    from .jets import jet_fd_compare

    rep = jet_fd_compare(
        vdw.evaluator, vdw.plain, np.array([1.0, 2.0]), rel={0: 1e-8, 1: 1e-8, 2: 1e-8, 3: 1e-7}
    )
    o2, o3 = rep["orders"][2], rep["orders"][3]
    out.append(
        check(
            "van der Waals second derivatives match the difference oracle at (S,V)=(1,2) within 1e-8 relative",
            "surface-geometry",
            o2["passed"],
            witness={"max_abs_diff": float(o2["max_abs_diff"]), "tolerance": float(o2["tolerance"])},
            exact=False,
        )
    )
    out.append(
        check(
            "van der Waals third derivatives match the refined oracle within 1e-7 relative",
            "surface-geometry",
            o3["passed"],
            witness={"max_abs_diff": float(o3["max_abs_diff"]), "tolerance": float(o3["tolerance"])},
            exact=False,
        )
    )

    bases = np.array([[rng.uniform(-1.0, 1.0), rng.uniform(1.5, 3.0)] for _ in range(10)])
    rep = legendre.second_fundamental_form(vdw, bases)
    dec_worst = max(0.0, *rep["decomposition_residual"].tolist())
    out.append(
        check(
            "tangential derivative decomposes through the curvature coefficients",
            "surface-geometry",
            dec_worst < 1e-9,
            witness={"worst_residual": float(dec_worst)},
            exact=False,
        )
    )

    demo = models["homogeneous_demo"][0]
    hom = legendre.homogeneity_check(demo, [models["homogeneous_demo"][1]() for _ in range(10)])
    out.append(
        check(
            "degree-1 potential lies on the constitutive hypersurface with zero pairing",
            "surface-geometry",
            hom["passed"]
            and hom["constitutive_residual"] < 1e-12
            and hom["gibbs_duhem_residual"] < 1e-12,
            witness={
                "constitutive": float(hom["constitutive_residual"]),
                "gibbs_duhem": float(hom["gibbs_duhem_residual"]),
            },
            exact=False,
        )
    )

    nonhom = legendre.homogeneity_check(vdw, [np.array([0.5, 2.5])])
    out.append(
        Result(
            "scaling checks for a non-homogeneous potential",
            "surface-geometry",
            "not-applicable" if nonhom["status"] == "not-applicable" else "fail",
            witness={"status": nonhom["status"]},
        )
    )

    lit = models["van_der_waals_literal"][0]
    grid = [[s, v] for s in np.linspace(0.5, 2.0, 10) for v in np.linspace(1.5, 3.0, 10)]
    lit_indef = "indefinite" in legendre.stability_classify(lit, grid)["definiteness"]
    out.append(
        check(
            "literal-exponent van der Waals grid contains an indefinite (spinodal) point",
            "surface-geometry",
            lit_indef,
            witness={"grid": "[0.5,2]x[1.5,3], 10x10"},
            exact=False,
        )
    )
    grid = [[s, v] for s in np.linspace(-3.0, 1.0, 12).tolist()
            for v in np.linspace(1.5, 3.0, 10).tolist()]
    definiteness = legendre.stability_classify(vdw, grid)["definiteness"]
    phys_indef = next((pt for pt, d in zip(grid, definiteness) if d == "indefinite"), None)
    out.append(
        check(
            "physical-exponent van der Waals spinodal found for S in [-3, 1]",
            "surface-geometry",
            phys_indef is not None,
            witness={"point": phys_indef},
            exact=False,
        )
    )
    return out


# ----------------------------------------------------------------------
# negative control


def tampered_metric(n: int) -> MetricSpec:
    """Phase metric with one symmetric entry pair sign-flipped; falls back to
    a different pair if the first flip makes the matrix singular."""
    base = tps.phase_metric(n)
    chart = base.chart
    for a, b in [("x0", "x1"), ("p1", "x1")]:
        rows = [row[:] for row in base.g.entries]
        ia, ib = chart.index(a), chart.index(b)
        rows[ia][ib] = rows[ia][ib] * (-1)
        if ia != ib:
            rows[ib][ia] = rows[ib][ia] * (-1)
        try:
            return MetricSpec("tampered", chart, PolyMatrix(chart, rows))
        except (ValueError, ZeroDivisionError, ArithmeticError):
            continue
    raise RuntimeError("could not build an invertible tampered metric")


def tamper_suite(n: int = 2) -> list[Result]:
    """Runs the curvature claims against a deliberately corrupted metric; the
    suite is wired correctly only if this produces failures with witnesses."""
    m = tampered_metric(n)
    out = []
    got = m.christoffel().nonzero()
    expect = expected_christoffel_tps(n)
    ok = got == expect
    out.append(
        check(
            "Christoffel symbols match the seven closed-form families and nothing else",
            "curvature-table",
            ok,
            witness={"nonzero_count": len(got)} if ok else _table_diff_witness(got, expect),
        )
    )
    cur = ricci_scalar(m)
    out.append(
        check(
            "Ricci tensor matches its closed form",
            "curvature-table",
            cur.ricci == expected_ricci_tps(n),
            witness={"flipped_entry": "(x0, x1)"},
        )
    )
    out.append(
        check(
            "scalar curvature equals n/2",
            "curvature-table",
            cur.scalar == Fraction(n, 2),
            witness={"scalar": str(cur.scalar), "expected": str(Fraction(n, 2))},
        )
    )
    return out


def negative_control_result(n: int = 2) -> Result:
    results = tamper_suite(n)
    failures = [r for r in results if r.status == "fail"]
    return check(
        "negative control: a corrupted metric is caught by the curvature claims",
        "plumbing",
        len(failures) >= 1,
        witness={
            "induced_failures": len(failures),
            "first": failures[0].claim if failures else None,
        },
    )


# ----------------------------------------------------------------------
# registry for verify-all


def _capped(ns, n_max):
    return [n for n in ns if n_max is None or n <= n_max]


def _verify_curvature(n_max=None) -> list[Result]:
    out = []
    for n in _capped((1, 2, 3), n_max):
        out.extend(_curvature_tps(n))
    if n_max is None or n_max >= 4:
        out.append(
            check(
                "det(G) = (-1)^n at n = 4",
                "curvature-table",
                tps.phase_metric(4).det
                == LaurentPoly.constant(tps.tps_chart(4), Fraction(1)),
            )
        )
    for n in _capped((1, 2), n_max):
        out.extend(_curvature_sympl(n))
    if n_max is None or n_max >= 3:
        out.append(
            check(
                "det(G-tilde) = (-1)^(n+1) at n = 3",
                "curvature-table",
                sympl.sympl_metric(3).det
                == LaurentPoly.constant(sympl.sympl_chart(3), Fraction(1)),
            )
        )
    return out


def _verify_killing(n_max=None) -> list[Result]:
    out = []
    for n in _capped((1, 2, 3), n_max):
        out.extend(suite_killing("tps", n, 2))
    out.extend(suite_killing("tps", 1, 3))
    for n in _capped((1, 2), n_max):
        out.extend(suite_killing("sympl", n, 2))
    return out


def _verify_tps(n_max=None) -> list[Result]:
    out = []
    for n in _capped((1, 2, 3), n_max):
        out.extend(suite_tps(n))
    return out


def _verify_sympl(n_max=None) -> list[Result]:
    out = []
    for n in _capped((1, 2), n_max):
        out.extend(suite_sympl(n))
    return out


def _verify_heisenberg(n_max=None) -> list[Result]:
    out = []
    for n in _capped((1, 2), n_max):
        out.extend(suite_heisenberg(n))
    return out


def _verify_legendre(n_max=None) -> list[Result]:
    return suite_legendre()


SUITES = {
    "curvature": _verify_curvature,
    "killing": _verify_killing,
    "tps": _verify_tps,
    "sympl": _verify_sympl,
    "heisenberg": _verify_heisenberg,
    "legendre": _verify_legendre,
}
