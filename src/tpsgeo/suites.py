"""Verification suites behind the command line: each suite re-derives a
family of closed-form facts (curvature tables, isometry algebras, the
nilpotent group model, potential-surface geometry) and reports claim by
claim.  Expected tables are rebuilt here from their index formulas so the
suites do not trust the code under test.

Every suite is a table of rows (claim text, family, (passed, witness)), in
the order the claims print, and _claims turns the rows into results.  The
pair comes from a math module's check or from a small pair builder here;
the witness is None where the claim prints none, and a passed of None marks
a claim that does not apply."""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import numpy as np

from . import heisenberg, killing, legendre, pcg, sympl, tps
from .curvature import (
    DegeneratePlaneError,
    MetricSpec,
    SectionalForm,
    apply_rows,
    riemann_operator,
    sectional,
    trace_form,
)
from .fields import VectorField
from .linalg import PolyMatrix
from .poly import LaurentPoly
from .report import Result, check

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def _rand_point(chart, rng) -> list[tuple[int, int]]:
    """A random rational point as the chart's point_values: for each name a
    numerator in [-9, 9], then a denominator in [1, 9]."""
    return [(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in chart.names]


def _point(chart, vals: list[tuple[int, int]]) -> dict[str, Fraction]:
    return {nm: Fraction(a, b) for nm, (a, b) in zip(chart.names, vals)}


def _claims(*rows, exact: bool = True) -> list[Result]:
    """One result per (claim text, family, (passed, witness)) row; a passed
    of None marks the claim not applicable, and exact=False marks the
    passing claims numeric."""
    return [
        Result(text, ref, "not-applicable", witness)
        if passed is None
        else check(text, ref, passed, witness, exact)
        for text, ref, (passed, witness) in rows
    ]


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


def _named_entries(matrix: PolyMatrix) -> dict[tuple[str, str], LaurentPoly]:
    """The nonzero entries of a matrix, keyed by (row name, column name)."""
    names = matrix.chart.names
    return {
        (names[i], names[j]): e
        for i, row in enumerate(matrix.entries)
        for j, e in enumerate(row)
        if e.coeffs
    }


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


def _transform_table(n: int) -> list[tuple[str, str, str, dict[str, Fraction]]]:
    """R(A,B)C on the frame pairs as (A, B, C, {label: coefficient}) records
    for R(A,B)C = sum coefficient * frame[label], in the order they are
    checked: only the xi-P, xi-X, P-P, X-X and P-X planes act, with 1/4 and
    1/2 coefficients."""
    P = [f"P{i}" for i in range(1, n + 1)]
    X = [f"X{i}" for i in range(1, n + 1)]
    out = []

    def rec(a, b, c, *terms):
        # a term (label, coefficient, holds) counts when its delta holds
        coeffs: dict[str, Fraction] = {}
        for label, coef, holds in terms:
            if holds:
                coeffs[label] = coeffs.get(label, 0) + coef
        out.append((a, b, c, coeffs))

    for i in range(n):
        rec("xi", P[i], "xi", (P[i], QUARTER, True))
        rec("xi", X[i], "xi", (X[i], QUARTER, True))
        for j in range(n):
            rec("xi", P[i], P[j])
            rec("xi", P[i], X[j], ("xi", -QUARTER, i == j))
            rec("xi", X[i], P[j], ("xi", -QUARTER, i == j))
            rec("xi", X[i], X[j])

    for i in range(n):
        for j in range(n):
            rec(P[i], P[j], "xi")
            rec(X[i], X[j], "xi")
            rec(P[i], X[j], "xi")
            for k in range(n):
                rec(P[i], P[j], P[k])
                rec(P[i], P[j], X[k], (P[j], QUARTER, i == k), (P[i], -QUARTER, j == k))
                rec(X[i], X[j], X[k])
                rec(X[i], X[j], P[k], (X[j], QUARTER, i == k), (X[i], -QUARTER, j == k))
                rec(P[i], X[j], P[k], (P[i], QUARTER, j == k), (P[k], HALF, i == j))
                rec(P[i], X[j], X[k], (X[j], -QUARTER, i == k), (X[k], -HALF, i == j))
    return out


def _transform_check(n: int, metric: MetricSpec) -> tuple[bool, dict]:
    """R(A,B)C on every frame pair of the table against its coefficients.
    Each plane's operator is built once and applied to every C."""
    frame = dict(tps.canonical_frame(n))
    ops: dict[tuple[str, str], dict[int, dict[int, LaurentPoly]]] = {}
    mismatches = []
    for a, b, c, coeffs in _transform_table(n):
        if (a, b) not in ops:
            ops[a, b] = riemann_operator(metric, frame[a], frame[b])
        if not killing.combination_equals(apply_rows(ops[a, b], frame[c]), coeffs, frame):
            mismatches.append(f"R({a},{b}){c}")
    return not mismatches, {"mismatches": mismatches[:5]} if mismatches else {"pairs_exact": True}


def _sectional_rows(n: int, metric: MetricSpec) -> tuple:
    frame = dict(tps.canonical_frame(n))
    chart = metric.chart
    P = [frame[f"P{i}"] for i in range(1, n + 1)]
    xi, X1 = frame["xi"], frame["X1"]
    dx = [VectorField.coordinate(chart, f"x{i}") for i in range(1, n + 1)]
    rng = random.Random(20260825)

    # conjugate pairs (P_i, d/dx^i): numerator == (3/4) denominator as
    # polynomials, then spot-evaluated at 100 random rational points
    forms = [SectionalForm(metric, P[i], dx[i]) for i in range(n)]
    poly_ok = all(f.num == f.den * Fraction(3, 4) for f in forms)
    point_fail = None
    for _ in range(100):
        i = rng.randrange(n)
        vals = _rand_point(chart, rng)
        val = forms[i].at_values(vals)
        if val != Fraction(3, 4):
            pt = {k: str(v) for k, v in _point(chart, vals).items()}
            point_fail = {"i": i + 1, "point": pt, "value": str(val)}
            break

    # vanishing families: both numerator and denominator are identically zero
    families = [("(xi,P_1)", xi, P[0]), ("(xi,dx^1)", xi, dx[0]), ("(xi,X_1)", xi, X1)]
    if n >= 2:
        families += [("(P_1,P_2)", P[0], P[1]), ("(dx^1,dx^2)", dx[0], dx[1])]
    bad = []
    for label, a, b in families:
        form = SectionalForm(metric, a, b)
        if not (form.num.is_zero() and form.den.is_zero()):
            bad.append(label)

    mixed = None, "needs n >= 2"
    if n >= 2:
        try:
            sectional(metric, P[0], dx[1], _point(chart, _rand_point(chart, rng)))
            rejected = False
        except DegeneratePlaneError:
            rejected = True
        mixed = rejected, {"raises": "DegeneratePlaneError"}
    return (
        (
            "sectional curvature of (P_i, d/dx^i) equals 3/4 identically and at 100 random points",
            "curvature-table",
            (
                poly_ok and point_fail is None,
                point_fail or {"points_checked": 100, "identity": True},
            ),
        ),
        (
            "sectional numerator and plane norm vanish identically on the degenerate families",
            "curvature-table",
            (not bad, {"failing": bad} if bad else {"families": [f[0] for f in families]}),
        ),
        ("mixed pair (P_1, d/dx^2) is rejected as a degenerate plane", "curvature-table", mixed),
    )


def _det(metric: MetricSpec, want: int) -> tuple[bool, dict]:
    ok = metric.det == LaurentPoly.constant(metric.chart, Fraction(want))
    return ok, {"det": str(metric.det), "expected": str(want)}


def _christoffel(metric: MetricSpec, expect: dict) -> tuple[bool, dict]:
    got = metric.christoffel().nonzero()
    if got == expect:
        return True, {"nonzero_count": len(got)}
    return False, _table_diff_witness(got, expect)


def _trace_form(metric: MetricSpec) -> tuple[bool, dict]:
    nonzero = [i for i, c in enumerate(trace_form(metric)) if not c.is_zero()]
    return not nonzero, {"nonzero_slots": nonzero}


def _tps_tensor_rows(n: int, metric: MetricSpec) -> tuple:
    """The Christoffel, Ricci and scalar rows of the tps curvature suite,
    for the phase metric or, in tamper_suite, a corrupted one."""
    cur = metric.curvature()
    ricci = expected_ricci_tps(n)
    scalar = Fraction(n, 2)
    return (
        (
            "Christoffel symbols match the seven closed-form families and nothing else",
            "curvature-table",
            _christoffel(metric, expected_christoffel_tps(n)),
        ),
        (
            "Ricci tensor matches its closed form",
            "curvature-table",
            (True, {"matrix_exact": True})
            if cur.ricci == ricci
            else (False, _table_diff_witness(_named_entries(cur.ricci), _named_entries(ricci))),
        ),
        (
            "scalar curvature equals n/2",
            "curvature-table",
            (cur.scalar == scalar, {"scalar": str(cur.scalar), "expected": str(scalar)}),
        ),
    )


def _curvature_tps(n: int) -> list[Result]:
    m = tps.phase_metric(n)
    christoffel, ricci, scalar = _tps_tensor_rows(n, m)
    return _claims(
        ("det(G) = (-1)^n", "curvature-table", _det(m, (-1) ** n)),
        christoffel,
        ("connection trace form vanishes (det G is constant)", "curvature-table", _trace_form(m)),
        ricci,
        scalar,
        (
            "curvature transform R(A,B)C matches the frame table on all pairs",
            "curvature-table",
            _transform_check(n, m),
        ),
        *_sectional_rows(n, m),
    )


def _curvature_sympl(n: int) -> list[Result]:
    m = sympl.sympl_metric(n)
    einstein, scalar = sympl.einstein_report(n)
    return _claims(
        ("det(G-tilde) = (-1)^(n+1)", "curvature-table", _det(m, (-1) ** (n + 1))),
        (
            "Christoffel symbols match the three closed-form families and nothing else",
            "curvature-table",
            _christoffel(m, expected_christoffel_sympl(n)),
        ),
        (
            "connection trace form vanishes (det G-tilde is constant)",
            "curvature-table",
            _trace_form(m),
        ),
        ("lifted metric is Einstein: Ric = ((n+2)/2) G-tilde", "curvature-table", einstein),
        ("scalar curvature equals (n+1)(n+2)", "curvature-table", scalar),
        (
            "symplectic top power matches the paired volume with unit Pfaffian sign",
            "contact-structure",
            sympl.volume_report(n),
        ),
    )


def _of_space(builders: dict, space: str):
    if space not in builders:
        raise ValueError(f"unknown space {space!r}")
    return builders[space]


def suite_curvature(space: str, n: int) -> list[Result]:
    return _of_space({"tps": _curvature_tps, "sympl": _curvature_sympl}, space)(n)


# ----------------------------------------------------------------------
# isometry suites


def _solve_rows(text: str, fields: list[VectorField], catalog, expected: int) -> tuple:
    """The solve's rows: its dimension, and its span against the catalog's."""
    dimension = len(fields)
    return (
        (
            text,
            "isometry-algebra",
            (dimension == expected, {"dimension": dimension, "expected": expected}),
        ),
        (
            "solved span equals the catalog span",
            "isometry-algebra",
            (killing.spans_equal(fields, [f for _, f in catalog]), {"catalog_size": len(catalog)}),
        ),
    )


def _catalog_rows(metric: MetricSpec, catalog, expected: int, shown: str, brackets) -> tuple:
    """The catalog's rows: every field is Killing and the catalog has the
    expected size (a pass shows the report's entry `shown`, a failure all of
    them), and the brackets' (passed, witness) pair, which each space checks
    against its own closed-form table."""
    rep = killing.catalog_report(metric, catalog, expected)
    return (
        (
            "every catalog field is a metric isometry generator",
            "isometry-algebra",
            (
                rep["passed"],
                {shown: rep[shown]}
                if rep["passed"]
                else {k: rep[k] for k in ("non_killing", "count", "expected_count")},
            ),
        ),
        ("catalog brackets match the closed-form structure constants", "isometry-algebra", brackets),
    )


def _killing_tps(n: int, degree: int) -> list[Result]:
    m = tps.phase_metric(n)
    fields = killing.killing_solve(m, degree)
    expect_dim = (n + 1) ** 2
    catalog = tps.killing_catalog(n)
    bad = killing.bracket_failures(catalog, tps.catalog_brackets(n))
    pairs = len(catalog) * (len(catalog) - 1) // 2
    return _claims(
        *_solve_rows(
            f"degree-{degree} isometry solve has dimension (n+1)^2", fields, catalog, expect_dim
        ),
        *_catalog_rows(
            m,
            catalog,
            expect_dim,
            "non_killing",
            (not bad, {"failing_brackets": bad[:5]} if bad else {"pairs": pairs}),
        ),
    )


def _killing_sympl(n: int, degree: int) -> list[Result]:
    m = sympl.sympl_metric(n)
    fields = killing.killing_solve(m, degree)
    expect_dim = (n + 2) ** 2 - 1
    catalog = sympl.killing_catalog(n)
    if degree >= 2:
        solve = _solve_rows(
            f"degree-{degree} isometry solve has dimension (n+2)^2 - 1", fields, catalog, expect_dim
        )
    else:
        solve = (
            (
                "dimension check for the lifted metric",
                "isometry-algebra",
                (None, f"quadratic generators need degree >= 2; degree-1 solve found {len(fields)}"),
            ),
        )
    br_ok, br = sympl.bracket_report(n)
    # the matrices reproduce the printed table and the bracket claim proves
    # that the fields do: the embedding needs both (sl_embedding_report)
    sl_ok, sl = sympl.sl_embedding_report(n)
    sl_ok &= br_ok
    sl["brackets_match"] &= br_ok
    return _claims(
        *solve,
        *_catalog_rows(m, catalog, expect_dim, "count", (br_ok, br)),
        (
            "rescaled generators reproduce the traceless-matrix bracket exactly",
            "isometry-algebra",
            (sl_ok, {"dimension": expect_dim} if sl_ok else sl),
        ),
    )


def suite_killing(space: str, n: int, degree: int = 2) -> list[Result]:
    if degree < 1:
        raise ValueError("polynomial degree for the solver must be >= 1")
    return _of_space({"tps": _killing_tps, "sympl": _killing_sympl}, space)(n, degree)


# ----------------------------------------------------------------------
# structure suites for verify-all


def _light_cone(n: int) -> tuple[bool, dict]:
    chart = tps.tps_chart(n)
    pt = _point(chart, _rand_point(chart, random.Random(7)))
    frame = dict(tps.canonical_frame(n))
    cone = {
        "xi": tps.light_cone_class(n, frame["xi"], pt),
        "P_1": tps.light_cone_class(n, frame["P1"], pt),
        "X_1": tps.light_cone_class(n, frame["X1"], pt),
    }
    return cone == {"xi": "positive", "P_1": "null", "X_1": "null"}, cone


def suite_tps(n: int) -> list[Result]:
    phi_squared, modified, classical = tps.compatibility_check(n)
    return _claims(
        (
            "metric identity: G = theta (x) theta + sym(dp,dx)",
            "contact-structure",
            tps.metric_identity_check(n),
        ),
        (
            "theta ^ (d theta)^n is the chart volume up to the exact constant",
            "contact-structure",
            tps.contact_volume(n),
        ),
        (
            "Reeb field is pinned by theta(xi)=1 and xi in ker(d theta)",
            "contact-structure",
            tps.reeb_pinning(n),
        ),
        (
            "canonical frame commutators: [P_i, X_j] = -delta_ij xi, others zero",
            "contact-structure",
            tps.frame_commutator_table(n),
        ),
        (
            "d theta restricted to the horizontal frame is the standard pairing",
            "contact-structure",
            tps.symplectic_gram_on_horizontal(n),
        ),
        ("orthogonal split has signature (n+1, n)", "metric-split", tps.split_report(n)),
        ("light cone: xi is positive, P_1 and X_1 are null", "metric-split", _light_cone(n)),
        ("phi^2 = -I + theta (x) xi with rank(phi) = 2n", "compatibility", phi_squared),
        (
            "modified pairing law G(phi A, phi B) = -G(A,B) + theta(A)theta(B)",
            "compatibility",
            modified,
        ),
        ("classical pairing law fails, witnessed on (X_1, P_1)", "compatibility", classical),
        (
            "constitutive hypersurface generators are tangent, horizontal, and pairing-free",
            "contact-structure",
            tps.ConstitutiveHypersurface(n).generator_report(),
        ),
    )


def _cells(n: int) -> tuple[bool, dict]:
    failing = [k for k in range(n + 1) if not sympl.cell_report(n, k)]
    return not failing, {"cells": list(range(n + 1)), "failing": failing}


def _quadric(n: int) -> tuple[bool, dict]:
    sig = sympl.quadric_signature(n)
    witness = {"signature": list(sig)} if sig else {"polarization_identity": False}
    return sig == (n + 1, n + 1, 0), witness


def suite_sympl(n: int) -> list[Result]:
    torsion, nonparallel, ricci_reeb = sympl.nijenhuis_report(n)
    # the ideal-gas example is stated at n = 2 only
    gas = [
        (
            "ideal-gas ray lies in the expected projective cell",
            "projective-cells",
            sympl.ideal_gas_report(Fraction(2)),
        )
    ] if n == 2 else []
    return _claims(
        (
            "p_0 = 1 embedding pulls the lifted forms back to the contact data",
            "contact-structure",
            sympl.embedding_report(n),
        ),
        (
            "canonical null frame satisfies its bracket and pairing table",
            "metric-split",
            sympl.frame_report(n),
        ),
        (
            "null cone identity G(V,V) = 2 sum f_i g_i on the frame coefficients",
            "metric-split",
            sympl.null_cone_identity(n),
        ),
        (
            "catalog generators are Hamiltonian for the symplectic form",
            "isometry-algebra",
            sympl.hamiltonian_report(n),
        ),
        (
            "cone complex structure has vanishing torsion on the frame pairs",
            "compatibility",
            torsion,
        ),
        (
            "non-parallelism witness -2 d theta(phi X_1, X_1) theta(xi) = -2",
            "compatibility",
            nonparallel,
        ),
        ("Ricci pairing of the Reeb direction equals -n/2", "curvature-table", ricci_reeb),
        (
            "scaling action preserves the lifted metric and rescales theta-tilde",
            "isometry-algebra",
            sympl.hyperbolic_report(n),
        ),
        (
            "projective charts cover, with exact transition maps",
            "projective-cells",
            sympl.proj_report(n),
        ),
        (
            "cell restrictions have the stated contact form and metric blocks",
            "projective-cells",
            _cells(n),
        ),
        ("incidence quadric has split signature", "projective-cells", _quadric(n)),
        *gas,
        (
            "affine change of contact potential is an exact symplectomorphism",
            "contact-structure",
            sympl.affine_report(n),
        ),
    )


def _rand_element(rng, n: int) -> heisenberg.HeisElement:
    """a_1..a_n, b_1..b_n, c, each drawn as a numerator in [-9, 9] and then
    a denominator in [1, 9], put over one denominator."""
    pairs = [(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in range(2 * n + 1)]
    den = math.lcm(*(q for _, q in pairs))
    return heisenberg.element([p * (den // q) for p, q in pairs], den)


def suite_heisenberg(n: int) -> list[Result]:
    rand_el = functools.partial(_rand_element, random.Random(42), n)

    def axioms():
        ident = heisenberg.identity(n)
        for _ in range(200):
            g, h, k = rand_el(), rand_el(), rand_el()
            assoc = heisenberg.multiply(heisenberg.multiply(g, h), k) == heisenberg.multiply(
                g, heisenberg.multiply(h, k)
            )
            unit = heisenberg.multiply(g, ident) == g and heisenberg.multiply(ident, g) == g
            inv = heisenberg.multiply(g, heisenberg.inverse(g)) == ident
            if not (assoc and unit and inv):
                return False, g.to_json()
        return True, {"samples": 200}

    def series():
        for _ in range(50):
            g, h = rand_el(), rand_el()
            if not heisenberg.exp_matches_series(heisenberg.log(g)):
                return False, {"element": g.to_json(), "kind": "exp-series"}
            if not heisenberg.multiply_matches_matrices(g, h):
                return False, {"kind": "matrix-product"}
            if heisenberg.exp(heisenberg.log(g)) != g:
                return False, {"element": g.to_json(), "kind": "exp-log"}
        return True, {"samples": 50}

    def right_action():
        for _ in range(25):
            g = rand_el()
            p = heisenberg.chi(rand_el())
            if heisenberg.right_action(g, p) != heisenberg.chi(
                heisenberg.multiply(heisenberg.chi_inv(p, n), g)
            ):
                return False, g.to_json()
        return True, {"samples": 25}

    inv_rep = heisenberg.invariant_report(n)

    def invariant(*keys):
        # holds when all its report keys do; the witness names the first
        # key, or the first failing one
        failing = [key for key in keys if not inv_rep[key]]
        return not failing, {"key": (failing or keys)[0]}

    def round_trip():
        g = rand_el()
        return heisenberg.HeisElement.from_json(g.to_json()) == g, g.to_json()

    right, left = heisenberg.translation_invariance_report(n)
    # the rows run in order, so the sampled claims draw from rng in order
    return _claims(
        ("group axioms hold exactly over 200 random rational triples", "group-model", axioms()),
        (
            "exponential agrees with the nilpotent matrix series; log inverts it",
            "group-model",
            series(),
        ),
        (
            "chart map intertwines right translation with its closed-form action",
            "group-model",
            right_action(),
        ),
        (
            "chart map identifies the invariant one-form with theta",
            "group-model",
            invariant("theta_h_matches", "right_translation_invariance"),
        ),
        ("invariant frame pushes to (-xi, X_i, P_j)", "group-model", invariant("xi_pushforwards")),
        (
            "left-invariant frame pushes to exact isometry generators",
            "group-model",
            invariant("eta_pushforwards_exact"),
        ),
        (
            "central commutator matches through the chart map",
            "group-model",
            invariant("commutator_consistency"),
        ),
        (
            "frame Gram matrix of the pulled metric is constant",
            "group-model",
            invariant("gram_constant", "gram_matches"),
        ),
        (
            "nilpotent frame spans inside the isometry algebra",
            "group-model",
            invariant("nilradical_in_isometry_span"),
        ),
        ("right translations preserve theta and G with symbolic parameters", "group-model", right),
        ("left translation defect on theta equals sum(gb_i dx^i - ga_i dp_i)", "group-model", left),
        ("JSON round trip preserves elements exactly", "plumbing", round_trip()),
    )


def suite_legendre() -> list[Result]:
    # numpy's default_rng(20260825) stream, without loading numpy.random
    rng = pcg.PCG64(20260825)
    # each model with the box its base points are drawn from: k points are
    # one rng.uniform(low, high, size=(k, 2)) draw, which takes the same
    # numbers from rng, in the same order, as k scalar draws per coordinate
    models = {
        "van_der_waals": (legendre.van_der_waals(), (-1.5, 1.3), (1.5, 4.0)),
        "van_der_waals_literal": (
            legendre.van_der_waals(positive_exponent=True),
            (-1.5, 1.3),
            (1.5, 4.0),
        ),
        "ideal_gas_energy": (legendre.ideal_gas_energy(), (-1.5, 0.4), (1.5, 4.0)),
        "quadratic": (legendre.quadratic([[2.0, 0.5], [0.5, 1.0]]), -2.0, 2.0),
        "quadratic_mixed": (
            legendre.quadratic([[2.0, 0.5], [0.5, 1.0]], part_i=(1,)),
            -2.0,
            2.0,
        ),
        "homogeneous_demo": (legendre.homogeneous_demo(), (0.5, -2.0), (3.0, 2.0)),
    }
    # every pair is computed in the order the claims print, so the samples
    # draw from rng in that order

    worst_theta = {}
    worst_block = {}
    for name, (model, low, high) in models.items():
        im = legendre.induced_metric(model, rng.uniform(low, high, size=(100, 2)))
        worst_theta[name] = max(0.0, *im["surface_point"]["legendre_residual"].tolist())
        worst_block[name] = max(0.0, *im["block_agreement"].tolist())
    theta = max(worst_theta.values()) < legendre.CONTACT_TOL, {
        k: float(v) for k, v in worst_theta.items()
    }
    block = max(worst_block.values()) < legendre.BLOCK_TOL, {
        k: float(v) for k, v in worst_block.items()
    }

    quad = models["quadratic"][0]
    rep = legendre.second_fundamental_form(quad, rng.uniform(-2.0, 2.0, size=(20, 2)))
    ii_worst = max(0.0, *rep["ii_norm"].tolist())
    geodesic = ii_worst < legendre.GEODESIC_TOL, {"worst_ii_norm": float(ii_worst)}

    vdw = models["van_der_waals"][0]
    from .jets import jet_fd_compare

    rep = jet_fd_compare(
        vdw.evaluator, vdw.plain, np.array([1.0, 2.0]), rel={0: 1e-8, 1: 1e-8, 2: 1e-8, 3: 1e-7}
    )
    o2, o3 = (
        (
            o["passed"],
            {"max_abs_diff": float(o["max_abs_diff"]), "tolerance": float(o["tolerance"])},
        )
        for o in (rep["orders"][2], rep["orders"][3])
    )

    rep = legendre.second_fundamental_form(vdw, rng.uniform((-1.0, 1.5), (1.0, 3.0), size=(10, 2)))
    dec_worst = max(0.0, *rep["decomposition_residual"].tolist())
    decomposition = dec_worst < legendre.DECOMPOSITION_TOL, {"worst_residual": float(dec_worst)}

    demo, low, high = models["homogeneous_demo"]
    hom = legendre.homogeneity_check(demo, rng.uniform(low, high, size=(10, 2)))
    degree_one = hom["passed"], {
        "constitutive": float(hom["constitutive_residual"]),
        "gibbs_duhem": float(hom["gibbs_duhem_residual"]),
    }

    status = legendre.homogeneity_check(vdw, [np.array([0.5, 2.5])])["status"]
    nonhom = None if status == "not-applicable" else False, {"status": status}

    lit = models["van_der_waals_literal"][0]
    grid = [[s, v] for s in np.linspace(0.5, 2.0, 10) for v in np.linspace(1.5, 3.0, 10)]
    lit_indef = "indefinite" in legendre.stability_classify(lit, grid)["definiteness"]
    grid = [[s, v] for s in np.linspace(-3.0, 1.0, 12).tolist()
            for v in np.linspace(1.5, 3.0, 10).tolist()]
    definiteness = legendre.stability_classify(vdw, grid)["definiteness"]
    phys_indef = next((pt for pt, d in zip(grid, definiteness) if d == "indefinite"), None)
    return _claims(
        (
            "contact form pulls back to zero on every surface (100 points per model)",
            "surface-geometry",
            theta,
        ),
        ("induced metric agrees with its Hessian block formula", "surface-geometry", block),
        ("quadratic potentials give totally geodesic surfaces", "surface-geometry", geodesic),
        (
            "van der Waals second derivatives match the difference oracle at (S,V)=(1,2) within 1e-8 relative",
            "surface-geometry",
            o2,
        ),
        (
            "van der Waals third derivatives match the refined oracle within 1e-7 relative",
            "surface-geometry",
            o3,
        ),
        (
            "tangential derivative decomposes through the curvature coefficients",
            "surface-geometry",
            decomposition,
        ),
        (
            "degree-1 potential lies on the constitutive hypersurface with zero pairing",
            "surface-geometry",
            degree_one,
        ),
        ("scaling checks for a non-homogeneous potential", "surface-geometry", nonhom),
        (
            "literal-exponent van der Waals grid contains an indefinite (spinodal) point",
            "surface-geometry",
            (lit_indef, {"grid": "[0.5,2]x[1.5,3], 10x10"}),
        ),
        (
            "physical-exponent van der Waals spinodal found for S in [-3, 1]",
            "surface-geometry",
            (phys_indef is not None, {"point": phys_indef}),
        ),
        exact=False,
    )


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
    """Runs the curvature suite's Christoffel, Ricci and scalar claims on a
    deliberately corrupted metric; the suite is wired correctly only if this
    produces failures with witnesses."""
    return _claims(*_tps_tensor_rows(n, tampered_metric(n)))


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


def _tps_det_at(n: int) -> list[Result]:
    ok, _ = _det(tps.phase_metric(n), (-1) ** n)
    return _claims((f"det(G) = (-1)^n at n = {n}", "curvature-table", (ok, None)))


def _sympl_det_at(n: int) -> list[Result]:
    ok, _ = _det(sympl.sympl_metric(n), (-1) ** (n + 1))
    return _claims((f"det(G-tilde) = (-1)^(n+1) at n = {n}", "curvature-table", (ok, None)))


# Per suite, its (builder, n, args) entries in the order they run: each gives
# builder(n, *args), and --n-max drops the entries above it.
VERIFY = {
    "curvature": (
        *((_curvature_tps, n, ()) for n in (1, 2, 3)),
        (_tps_det_at, 4, ()),
        *((_curvature_sympl, n, ()) for n in (1, 2)),
        (_sympl_det_at, 3, ()),
    ),
    "killing": (
        *((_killing_tps, n, (2,)) for n in (1, 2, 3)),
        (_killing_tps, 1, (3,)),
        *((_killing_sympl, n, (2,)) for n in (1, 2)),
    ),
    "tps": tuple((suite_tps, n, ()) for n in (1, 2, 3)),
    "sympl": tuple((suite_sympl, n, ()) for n in (1, 2)),
    "heisenberg": tuple((suite_heisenberg, n, ()) for n in (1, 2)),
    # the surface checks take no n; at n = 1 they run under every --n-max
    "legendre": ((lambda n: suite_legendre(), 1, ()),),
}


def _run(entries, n_max: int | None = None) -> list[Result]:
    return [r for build, n, args in entries if n_max is None or n <= n_max for r in build(n, *args)]


SUITES = {name: functools.partial(_run, entries) for name, entries in VERIFY.items()}
