"""Symplectization of the contact phase space: tautological form, lifted
metric, canonical frame, isometry catalog with its sl(n+2) picture, complex
structure on the cone, scaling action, projectivization charts and cells,
incidence quadric, and the affine-group symplectomorphism.

Chart: (p_0..p_n, x^0..x^n) with every p-symbol invertible.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Mapping

from .curvature import MetricSpec, covariant_derivative
from .fields import Form, PolyMap, VectorField, apply_matrix_field, bracket, pairing, top_coefficient
# solve_exact is unused here; the benchmark's alias tests call it as sympl.solve_exact
from .linalg import Elimination, PolyMatrix, solve_exact
from .poly import Chart, LaurentPoly
from . import tps
from .killing import BracketTable, bracket_failures, bracket_table, structure_constants

HALF = Fraction(1, 2)


def sympl_chart(n: int) -> Chart:
    names = [f"p{i}" for i in range(n + 1)] + [f"x{i}" for i in range(n + 1)]
    return Chart(names, invertible=[f"p{i}" for i in range(n + 1)])


# built once per n, like the metric below: the form and the frame are shared
# by every caller and never mutated
@functools.cache
def tautological_form(n: int) -> Form:
    chart = sympl_chart(n)
    terms = {}
    for i in range(n + 1):
        terms[f"x{i}"] = LaurentPoly.variable(chart, f"p{i}")
    return Form.one_form(chart, terms)


# built once per n: a MetricSpec is never mutated, and it keeps its
# Christoffel table
@functools.cache
def sympl_metric(n: int) -> MetricSpec:
    """G-tilde = 2 sum dp_i . dx^i + (sum p_i dx^i)^2; closed-form inverse."""
    chart = sympl_chart(n)
    z = LaurentPoly.zero(chart)
    d = 2 * (n + 1)
    g = [[z] * d for _ in range(d)]
    inv = [[z] * d for _ in range(d)]
    for i in range(n + 1):
        pi, xi = chart.index(f"p{i}"), chart.index(f"x{i}")
        g[pi][xi] = g[xi][pi] = LaurentPoly.one(chart)
        inv[pi][xi] = inv[xi][pi] = LaurentPoly.one(chart)
        for j in range(n + 1):
            pp = LaurentPoly.variable(chart, f"p{i}") * LaurentPoly.variable(chart, f"p{j}")
            g[xi][chart.index(f"x{j}")] = pp
            inv[pi][chart.index(f"p{j}")] = -pp
    return MetricSpec(f"sympl-{n}", chart, PolyMatrix(chart, g), PolyMatrix(chart, inv))


def volume_report(n: int) -> tuple[bool, dict]:
    """omega^{n+1}/(n+1)! equals the product of the dp_i ^ dx^i planes: both
    are top-degree, so they are equal when their top_coefficient is.  That
    coefficient, on the chart-ordered volume, is the exact Pfaffian sign."""
    chart = sympl_chart(n)
    one = LaurentPoly.one(chart)
    planes = Form(chart, 2, {(chart.index(f"p{i}"), chart.index(f"x{i}")): one for i in range(n + 1)})
    coef = top_coefficient(tautological_form(n).d())
    pfaffian_sign = coef.constant_value() if coef.is_constant() else None
    ok = coef == top_coefficient(planes) and pfaffian_sign is not None and abs(pfaffian_sign) == 1
    return ok, {"pfaffian_sign": pfaffian_sign}


# ----------------------------------------------------------------------
# embedding of the contact phase space at p_0 = 1


def embedding(n: int) -> PolyMap:
    src = tps.tps_chart(n)
    dst = sympl_chart(n)
    comps = {"p0": LaurentPoly.one(src), "x0": LaurentPoly.variable(src, "x0")}
    for i in range(1, n + 1):
        comps[f"p{i}"] = LaurentPoly.variable(src, f"p{i}")
        comps[f"x{i}"] = LaurentPoly.variable(src, f"x{i}")
    return PolyMap(src, dst, comps)


def embedding_report(n: int) -> tuple[bool, dict]:
    j = embedding(n)
    theta = tautological_form(n)
    pulled = {
        "theta_pullback": j.pull_form(theta) == tps.contact_form(n),
        "metric_pullback": j.pull_metric(sympl_metric(n).g) == tps.phase_metric(n).g,
        "omega_pullback": j.pull_form(theta.d()) == tps.contact_form(n).d(),
    }
    return all(pulled.values()), pulled


def einstein_report(n: int) -> tuple[tuple[bool, dict], tuple[bool, dict]]:
    """Two (passed, witness) pairs: Ric = ((n+2)/2) G-tilde, and the scalar
    curvature (n+1)(n+2)."""
    m = sympl_metric(n)
    cur = m.curvature()
    factor = Fraction(n + 2, 2)
    einstein = cur.ricci == m.g.scale(factor)
    scal, want = cur.scalar, Fraction((n + 1) * (n + 2))
    shown = scal.constant_value() if scal.is_constant() else str(scal)
    return (
        (einstein, {"einstein_factor": factor if einstein else None}),
        (scal == want, {"scalar": shown, "expected": want}),
    )


# ----------------------------------------------------------------------
# canonical frame


@functools.cache
def canonical_frame(n: int) -> tuple[tuple[str, VectorField], ...]:
    """P-tilde_i = p_i d/dp_i, L_k = p_k^{-1} d/dx^k, X-tilde_j = L_j - Phat,
    Phat = sum P-tilde_s / 2, as (label, field) pairs in the order
    P0..Pn, L0..Ln, X0..Xn, Phat."""
    chart = sympl_chart(n)
    ptil = [
        VectorField.from_dict(chart, {f"p{i}": LaurentPoly.variable(chart, f"p{i}")})
        for i in range(n + 1)
    ]
    ell = [
        VectorField.from_dict(chart, {f"x{k}": LaurentPoly.variable(chart, f"p{k}", -1)})
        for k in range(n + 1)
    ]
    phat = VectorField.zero(chart)
    for f in ptil:
        phat = phat + f
    phat = phat.scale(HALF)
    xtil = [ell[j] - phat for j in range(n + 1)]
    families = (("P", ptil), ("L", ell), ("X", xtil))
    out = [(f"{kind}{i}", f) for kind, fields in families for i, f in enumerate(fields)]
    return (*out, ("Phat", phat))


def frame_brackets(n: int) -> BracketTable:
    """The frame's brackets in closed form, keyed by label pairs in the order
    P, L, X, Phat: [P_i, L_i] = [P_i, X_i] = -L_i, [L_i, X_j] = -L_i/2,
    [X_i, X_j] = (X_j - X_i)/2, [L_i, Phat] = [X_i, Phat] = L_i/2; every
    other pair commutes."""
    rng = range(n + 1)
    terms = []
    for i in rng:
        terms += [(f"P{i}", f"L{i}", f"L{i}", -1), (f"P{i}", f"X{i}", f"L{i}", -1)]
        terms += [(f"L{i}", f"X{j}", f"L{i}", -HALF) for j in rng]
        for j in range(i + 1, n + 1):
            terms += [(f"X{i}", f"X{j}", f"X{j}", HALF), (f"X{i}", f"X{j}", f"X{i}", -HALF)]
        terms += [(f"L{i}", "Phat", f"L{i}", HALF), (f"X{i}", "Phat", f"L{i}", HALF)]
    return bracket_table(terms)


def frame_report(n: int) -> tuple[bool, dict | None]:
    """The frame's bracket table (frame_brackets) and its pairings with G."""
    frame = canonical_frame(n)
    g = sympl_metric(n)
    failures = bracket_failures(frame, frame_brackets(n))
    fr = dict(frame)
    ok = True
    for i in range(n + 1):
        P, L, X = fr[f"P{i}"], fr[f"L{i}"], fr[f"X{i}"]
        for j in range(n + 1):
            delta = Fraction(1 if i == j else 0)
            ok &= g.inner(P, fr[f"P{j}"]).is_zero()
            ok &= g.inner(P, fr[f"L{j}"]) == LaurentPoly.constant(g.chart, delta)
            ok &= g.inner(L, fr[f"L{j}"]) == LaurentPoly.one(g.chart)
            ok &= g.inner(X, fr[f"X{j}"]).is_zero()
            ok &= g.inner(X, fr[f"P{j}"]) == LaurentPoly.constant(g.chart, delta)
        ok &= g.inner(X, fr["Phat"]) == LaurentPoly.constant(g.chart, HALF)
    passed = bool(ok) and not failures
    return passed, None if passed else {"failures": failures, "pairings": bool(ok)}


def null_cone_identity(n: int) -> tuple[bool, None]:
    """For V = sum f_i P-tilde_i + g_i X-tilde_i with symbolic coefficients:
    G(V, V) = 2 sum f_i g_i, so V is null iff sum f_i g_i = 0."""
    base = sympl_chart(n)
    names = [f"f{i}" for i in range(n + 1)] + [f"g{i}" for i in range(n + 1)]
    chart = base.extend(names)
    fr = dict(canonical_frame(n))
    v = VectorField.zero(chart)
    for i in range(n + 1):
        fi = LaurentPoly.variable(chart, f"f{i}")
        gi = LaurentPoly.variable(chart, f"g{i}")
        v = v + fr[f"P{i}"].with_chart(chart).scale(fi) + fr[f"X{i}"].with_chart(chart).scale(gi)
    q = pairing(sympl_metric(n).g.with_chart(chart), v, v)
    expect = LaurentPoly.zero(chart)
    for i in range(n + 1):
        expect = expect + LaurentPoly.variable(chart, f"f{i}") * LaurentPoly.variable(
            chart, f"g{i}"
        ) * 2
    return q == expect, None


# ----------------------------------------------------------------------
# isometry catalog and its sl(n+2) picture


# built once per n, like sympl_metric: the fields are immutable and keep
# their Jacobians for every bracket taken of them
@functools.cache
def killing_catalog(n: int) -> tuple[tuple[str, VectorField], ...]:
    """Q^i_j = x^i d/dx^j - p_j d/dp_i, X_s = d/dx^s,
    D^i = (x^i/2) Q + (1 - <x,p>/2) d/dp_i with Q = sum Q^s_s;
    (n+2)^2 - 1 generators in total, as (label, field) pairs."""
    chart = sympl_chart(n)

    def x(i):
        return LaurentPoly.variable(chart, f"x{i}")

    def p(i):
        return LaurentPoly.variable(chart, f"p{i}")

    out: list[tuple[str, VectorField]] = []
    for i in range(n + 1):
        for j in range(n + 1):
            out.append(
                (f"Q{i}_{j}", VectorField.from_dict(chart, {f"x{j}": x(i), f"p{i}": -p(j)}))
            )
    for s in range(n + 1):
        out.append((f"X{s}", VectorField.from_dict(chart, {f"x{s}": 1})))
    pairing = incidence_quadric(n)
    for i in range(n + 1):
        comps = {f"p{i}": LaurentPoly.one(chart) - pairing * HALF}
        d = VectorField.from_dict(chart, comps)
        for s in range(n + 1):
            d = d + VectorField.from_dict(
                chart, {f"x{s}": x(i) * x(s) * HALF, f"p{s}": -(x(i) * p(s) * HALF)}
            )
        out.append((f"D{i}", d))
    return tuple(out)


def catalog_brackets(n: int) -> BracketTable:
    """The printed relations, keyed by label pairs in catalog order:
    [Q^i_j, X_s] = -delta^i_s X_j, [Q^i_j, D^s] = delta^s_j D^i,
    [X_s, D^i] = (Q^i_s + delta^i_s Q)/2 with Q = sum Q^t_t, the gl
    relations [Q^i_j, Q^k_l] = delta_jk Q^i_l - delta_li Q^k_j, and
    [X, X] = [D, D] = 0."""
    rng = range(n + 1)
    qs = [(i, j) for i in rng for j in rng]
    terms = []
    for i, j in qs:
        terms += [(f"Q{i}_{j}", f"X{i}", f"X{j}", -1), (f"Q{i}_{j}", f"D{j}", f"D{i}", 1)]
    for pos, (i, j) in enumerate(qs):
        for k, l in qs[pos + 1:]:
            if j == k:
                terms.append((f"Q{i}_{j}", f"Q{k}_{l}", f"Q{i}_{l}", 1))
            if l == i:
                terms.append((f"Q{i}_{j}", f"Q{k}_{l}", f"Q{k}_{j}", -1))
    for s in rng:
        terms += [(f"X{s}", f"D{i}", f"Q{i}_{s}", HALF) for i in rng]
        terms += [(f"X{s}", f"D{s}", f"Q{t}_{t}", HALF) for t in rng]
    return bracket_table(terms)


def bracket_report(n: int) -> tuple[bool, dict]:
    """The catalog's brackets against catalog_brackets(n), one per pair."""
    failures = bracket_failures(killing_catalog(n), catalog_brackets(n))
    return not failures, {"failures": failures}


def hamiltonian_report(n: int) -> tuple[bool, dict]:
    """i_X omega = dH with H_{Q^i_j} = -x^i p_j, H_{X_k} = -p_k,
    H_{D^s} = x^s (1 - <x,p>/2)."""
    chart = sympl_chart(n)
    omega = tautological_form(n).d()

    def x(i):
        return LaurentPoly.variable(chart, f"x{i}")

    def p(i):
        return LaurentPoly.variable(chart, f"p{i}")

    pairing = incidence_quadric(n)
    expected: dict[str, LaurentPoly] = {}
    for i in range(n + 1):
        for j in range(n + 1):
            expected[f"Q{i}_{j}"] = -(x(i) * p(j))
        expected[f"X{i}"] = -p(i)
        expected[f"D{i}"] = x(i) * (LaurentPoly.one(chart) - pairing * HALF)
    bad = []
    for label, field in killing_catalog(n):
        h = Form.function(chart, expected[label])
        if omega.insert(field) != h.d():
            bad.append(label)
    return not bad, {"failures": bad}


# ----------------------------------------------------------------------
# sl(n+2) structure-constant comparison (complex matrices over Q(i))


def _cbracket(a: dict, b: dict) -> dict:
    """[a, b] = ab - ba for complex matrices stored sparse as
    {(part, row, col): value}, part 0 real and part 1 imaginary."""
    out: dict = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for (px, i, k), u in x.items():
            for (py, k2, j), v in y.items():
                if k == k2:
                    # imaginary times imaginary is real, with i * i = -1
                    w = -u * v if px and py else u * v
                    key = (px ^ py, i, j)
                    out[key] = out.get(key, 0) + sign * w
    return out


def sl_matrices(n: int) -> list[tuple[str, dict]]:
    """The matrix picture in gl(n+2, C), in catalog label order, as sparse
    {(part, row, col): value} matrices (part 0 real, 1 imaginary):
    Q^i_j -> E_ij - tr/(n+2), X_s -> i E_{n+1,s}, D^l -> i E_{l,n+1}
    (the X and D images carry a hidden 1/sqrt(2) absorbed into the
    structure constants)."""
    m = n + 2
    out = []
    for i in range(n + 1):
        for j in range(n + 1):
            mat = {(0, i, j): Fraction(1)}
            if i == j:
                for k in range(m):
                    mat[0, k, k] = mat.get((0, k, k), 0) - Fraction(1, m)
            out.append((f"Q{i}_{j}", mat))
    for s in range(n + 1):
        out.append((f"X{s}", {(1, m - 1, s): Fraction(1)}))
    for l in range(n + 1):
        out.append((f"D{l}", {(1, l, m - 1): Fraction(1)}))
    return out


def sl_embedding_report(n: int) -> tuple[bool, dict]:
    """The structure-constant table of the matrix picture equals the printed
    catalog table catalog_brackets(n) after rescaling C^c_ab by
    2^{(e_a + e_b - e_c)/2}, where e = 0 on the Q family and e = 1 on the X
    and D families (the sqrt(2) from the normalized embedding).

    The catalog fields are not bracketed here.  bracket_report proves that
    their table is the printed one, so together the two reports prove that
    M_a -> 2^{e_a/2} X_a is a Lie algebra homomorphism from the real span of
    the matrices, a real form of sl(n+2, C).  That form is simple, so a
    homomorphism with a nonzero image is injective: the fields are
    independent and span a copy of it, with no separate check."""
    mats = sl_matrices(n)
    labels_match = [label for label, _ in mats] == [label for label, _ in killing_catalog(n)]
    weight = {label: 0 if label.startswith("Q") else 1 for label, _ in mats}

    traceless = all(
        sum(v for (p, i, j), v in mat.items() if i == j and p == part) == 0
        for _, mat in mats
        for part in (0, 1)
    )

    def rescaled(printed: BracketTable) -> BracketTable | None:
        """The printed table with C^c_ab rescaled and its zero entries
        dropped, or None when some entry names a label outside the picture
        or needs an odd power of sqrt(2)."""
        out = {}
        for (a, b), row in printed.items():
            new = {}
            for c, v in row.items():
                if not weight.keys() >= {a, b, c}:
                    return None
                e = weight[a] + weight[b] - weight[c]
                if e % 2:
                    return None
                if v:
                    new[c] = v * 2 ** (e // 2)
            if new:
                out[a, b] = new
        return out

    # the tables are compared label by label, so a catalog whose labels
    # differ from the matrix picture's has nothing to compare; dependent
    # matrices have no table, so a table that matches also proves them
    # independent
    ok = False
    if labels_match:
        try:
            matrices = structure_constants(mats, lambda mat: mat, _cbracket)
        except ValueError:
            # dependent matrices, or a bracket outside their span: there is
            # no table to compare
            pass
        else:
            ok = rescaled(catalog_brackets(n)) == matrices
    witness = {"dimension": len(mats), "labels_match": labels_match, "brackets_match": ok}
    return traceless and ok, witness


# ----------------------------------------------------------------------
# complex structure on the cone over the contact phase space


def cone_chart(n: int) -> Chart:
    return Chart(("t",) + tps.tps_chart(n).names)


def cone_complex_structure(n: int) -> PolyMatrix:
    """J(d/dt) = -xi, J(xi) = d/dt, J(P_i) = -X_i, J(X_i) = P_i; acts on
    component columns over the cone chart (t, x0, p, x)."""
    chart = cone_chart(n)
    z = LaurentPoly.zero(chart)
    d = chart.dim
    m = [[z] * d for _ in range(d)]
    it, ix0 = chart.index("t"), chart.index("x0")
    m[ix0][it] = LaurentPoly.constant(chart, -1)
    m[it][ix0] = LaurentPoly.one(chart)
    for i in range(1, n + 1):
        ip, ix = chart.index(f"p{i}"), chart.index(f"x{i}")
        pi = LaurentPoly.variable(chart, f"p{i}")
        m[ix][ip] = LaurentPoly.constant(chart, -1)
        m[ix0][ip] = pi
        m[ip][ix] = LaurentPoly.one(chart)
        m[it][ix] = pi
    return PolyMatrix(chart, m)


def nijenhuis_report(n: int) -> tuple[tuple[bool, dict], tuple[bool, dict], tuple[bool, dict]]:
    """Three (passed, witness) pairs: J^2 = -I and the torsion N_J(A, B) =
    J^2[A,B] + [JA,JB] - J[JA,B] - J[A,JB] vanishes on every pair from
    (xi, P_i, X_j, d/dt); the non-parallelism witnesses
    -2 dtheta(phi X_1, X_1) theta(xi) = -2 and 2 G((nabla_{X_1} phi) xi, X_1)
    = 1; and Ric(xi, xi) = -n/2."""
    chart = cone_chart(n)
    jm = cone_complex_structure(n)
    d = chart.dim
    jj = jm @ jm
    j_squared_ok = (jj + PolyMatrix.identity(chart, d)).is_zero()

    frame = dict(tps.canonical_frame(n))
    fields = [f.with_chart(chart) for f in frame.values()]
    fields.append(VectorField.coordinate(chart, "t"))

    def j(v):
        return apply_matrix_field(jm, v)

    failures = 0
    pairs = 0
    for a in range(len(fields)):
        for b in range(a, len(fields)):
            fa, fb = fields[a], fields[b]
            nj = (
                apply_matrix_field(jj, bracket(fa, fb))
                + bracket(j(fa), j(fb))
                - j(bracket(j(fa), fb))
                - j(bracket(fa, j(fb)))
            )
            pairs += 1
            if not nj.is_zero():
                failures += 1

    # witnesses on the base
    g = tps.phase_metric(n)
    phi = tps.almost_contact_tensor(n)
    theta = tps.contact_form(n)
    x1, reeb = frame["X1"], frame["xi"]
    omega = theta.d()
    witness_remark = -2 * omega(apply_matrix_field(phi, x1), x1) * theta(reeb)
    # (nabla_{X_1} phi) xi  =  nabla_{X_1}(phi xi) - phi(nabla_{X_1} xi)
    nab = covariant_derivative(g, x1, apply_matrix_field(phi, reeb)) - apply_matrix_field(
        phi, covariant_derivative(g, x1, reeb)
    )
    witness_direct = 2 * g.inner(nab, x1)
    ric_xi = g.curvature().ricci.entries[g.chart.index("x0")][g.chart.index("x0")]

    return (
        (j_squared_ok and failures == 0, {"pairs_checked": pairs}),
        (
            witness_remark == -2 and witness_direct == 1,
            {"remark": str(witness_remark), "direct": str(witness_direct)},
        ),
        (
            ric_xi == Fraction(-n, 2),
            {"ricci_reeb": ric_xi.constant_value() if ric_xi.is_constant() else None},
        ),
    )


# ----------------------------------------------------------------------
# scaling (hyperbolic rotation) action


# built once per n, like _chart_factors: callers share the map and must not
# change it
@functools.cache
def hyperbolic_map(n: int) -> PolyMap:
    """(p, x) -> (lam p, lam^{-1} x) on the localized cone, with lam a fresh
    invertible symbol; the inverse scales by lam^{-1}."""
    chart = _localized_chart(n).extend(["lam"], invertible=["lam"])
    lam = LaurentPoly.variable(chart, "lam")
    lam_inv = LaurentPoly.variable(chart, "lam", -1)
    comps = {"lam": lam}
    inv_comps = {"lam": lam}
    for i in range(n + 1):
        p, x = LaurentPoly.variable(chart, f"p{i}"), LaurentPoly.variable(chart, f"x{i}")
        comps[f"p{i}"], comps[f"x{i}"] = lam * p, lam_inv * x
        inv_comps[f"p{i}"], inv_comps[f"x{i}"] = lam_inv * p, lam * x
    return PolyMap(chart, chart, comps, inverse=PolyMap(chart, chart, inv_comps))


def hyperbolic_report(n: int) -> tuple[bool, None]:
    """The scaling by a fixed nonzero lam preserves the tautological form,
    the symplectic form, and the metric; verified as exact identities in the
    symbolic scale, with lam frozen as a parameter.  At lam = 1 the map is
    the identity."""
    f = hyperbolic_map(n)
    chart = f.src
    theta = tautological_form(n).with_chart(chart)
    g = sympl_metric(n).g.with_chart(chart)
    theta_ok = f.pull_form(theta, {"lam"}) == theta
    metric_ok = f.pull_metric(g, {"lam"}) == g
    omega_ok = f.pull_form(theta.d(), {"lam"}) == theta.d()
    ident = True
    for nm in chart.names:
        if nm == "lam":
            continue
        sub = f.comps[nm].substitute({"lam": LaurentPoly.one(chart)}, chart)
        ident &= sub == LaurentPoly.variable(chart, nm)
    return bool(theta_ok and metric_ok and omega_ok and ident), None


def hyperbolic_action_point(n: int, point: Mapping, lam) -> dict:
    """The scaling by a nonzero lam at a point (p, x), from hyperbolic_map."""
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("scale must be nonzero")
    image = hyperbolic_map(n).at({**point, "lam": lam})
    del image["lam"]
    return image


# ----------------------------------------------------------------------
# projectivization charts


def _localized_chart(n: int) -> Chart:
    names = sympl_chart(n).names
    return Chart(names, invertible=names)


def proj_chart_ids(n: int) -> list[tuple[str, int]]:
    """Fixed scan order: U_0..U_n then V_0..V_n."""
    return [("U", j) for j in range(n + 1)] + [("V", k) for k in range(n + 1)]


def proj_chart_functions(n: int, cid: tuple[str, int]) -> dict[str, LaurentPoly]:
    """Affine coordinates of the chart as Laurent monomials on the localized
    cone: U_j uses (x^i p_j; p_l/p_j, l != j), V_k uses (x^i/x^k, i != k;
    p_l x^k).  All are invariant under the scaling action."""
    kind, j = cid
    if not (0 <= j <= n):
        raise ValueError("chart index out of range")
    chart = _localized_chart(n)

    def mono(**exps):
        e = [0] * chart.dim
        for nm, k in exps.items():
            e[chart.index(nm)] = k
        return LaurentPoly(chart, {tuple(e): Fraction(1)})

    out = {}
    if kind == "U":
        for i in range(n + 1):
            out[f"xp{i}"] = mono(**{f"x{i}": 1, f"p{j}": 1})
        for l in range(n + 1):
            if l != j:
                out[f"pr{l}"] = mono(**{f"p{l}": 1, f"p{j}": -1})
    elif kind == "V":
        for i in range(n + 1):
            if i != j:
                out[f"xr{i}"] = mono(**{f"x{i}": 1, f"x{j}": -1})
        for l in range(n + 1):
            out[f"px{l}"] = mono(**{f"p{l}": 1, f"x{j}": 1})
    else:
        raise ValueError("chart kind must be U or V")
    return out


def _exponents(f: LaurentPoly) -> dict[int, int]:
    """The exponent vector of a monomial, sparse by variable index."""
    ((e, _c),) = f.terms.items()
    return {i: k for i, k in enumerate(e) if k}


@functools.cache
def _chart_factors(
    n: int, cid: tuple[str, int]
) -> tuple[dict[str, LaurentPoly], list[str], Elimination]:
    """The chart's functions, their sorted names, and their exponent vectors
    (in that order) factored once, so that any exponent vector can be written
    in terms of them.  Cached: callers share the result and must not change
    it."""
    fa = proj_chart_functions(n, cid)
    names = sorted(fa)
    return fa, names, Elimination(_exponents(fa[nm]) for nm in names)


def transition_relations(
    n: int, cid_a: tuple[str, int], cid_b: tuple[str, int]
) -> dict[str, dict[str, int]]:
    """Each coordinate of chart b as a Laurent monomial in the coordinates of
    chart a; exact on the overlap.  Solved from the exponent lattice and then
    verified as a monomial identity."""
    fa, a_names, factored = _chart_factors(n, cid_a)
    fb = _chart_factors(n, cid_b)[0]
    chart = _localized_chart(n)
    out = {}
    for nm_b, f in fb.items():
        sol, residual = factored.reduce(_exponents(f))
        if residual:
            raise ValueError(f"no monomial transition for {nm_b}")
        rel = {}
        check = LaurentPoly.one(chart)
        for k, coef in sol.items():
            nm_a = a_names[k]
            if coef.denominator != 1:
                raise ValueError(f"non-integer exponent in transition for {nm_b}")
            rel[nm_a] = int(coef)
            check = check * fa[nm_a] ** int(coef)
        if check != f:
            raise ValueError(f"transition verification failed for {nm_b}")
        out[nm_b] = rel
    return out


def proj_report(n: int) -> tuple[bool, None]:
    """Scaling invariance of every chart function (weight zero in the
    exponent lattice, plus a symbolic pullback check) and existence of exact
    monomial transitions for every ordered chart pair."""
    act = hyperbolic_map(n)
    invariant = True
    for cid in proj_chart_ids(n):
        for f in _chart_factors(n, cid)[0].values():
            lifted = f.with_chart(act.src)
            invariant &= act.pull_function(lifted) == lifted

    transitions_ok = True
    ids = proj_chart_ids(n)
    for a in ids:
        for b in ids:
            if a == b:
                continue
            try:
                transition_relations(n, a, b)
            except ValueError:
                transitions_ok = False

    # the printed example: on U_0 and U_1, (x^i p_1) = (x^i p_0) (p_1 / p_0)
    try:
        rel01 = transition_relations(n, ("U", 0), ("U", 1))
    except ValueError:
        example_ok = False
    else:
        example_ok = all(
            rel01[f"xp{i}"] == {f"xp{i}": 1, "pr1": 1} for i in range(n + 1)
        )
    return bool(invariant and transitions_ok and example_ok), None


# ----------------------------------------------------------------------
# cells


def cell_chart(n: int, k: int) -> Chart:
    """Coordinates on the cell {p_0 = .. = p_{k-1} = 0, p_k = 1}: the abelian
    block x^0..x^{k-1} first, then the contact block (x^k, p_{k+1}.., x^{k+1}..)."""
    names = [f"x{i}" for i in range(k)]
    names.append(f"x{k}")
    names += [f"p{l}" for l in range(k + 1, n + 1)]
    names += [f"x{i}" for i in range(k + 1, n + 1)]
    return Chart(names)


def cell_inclusion(n: int, k: int) -> PolyMap:
    src = cell_chart(n, k)
    dst = sympl_chart(n)
    comps = {}
    for l in range(n + 1):
        if l < k:
            comps[f"p{l}"] = LaurentPoly.zero(src)
        elif l == k:
            comps[f"p{l}"] = LaurentPoly.one(src)
        else:
            comps[f"p{l}"] = LaurentPoly.variable(src, f"p{l}")
    for i in range(n + 1):
        comps[f"x{i}"] = LaurentPoly.variable(src, f"x{i}")
    return PolyMap(src, dst, comps)


def cell_restrict(n: int, k: int) -> tuple[Form, PolyMatrix]:
    """theta_k = dx^k + sum_{i>k} p_i dx^i and the restricted metric G_k,
    both computed as exact pullbacks along the inclusion of the cell."""
    if not (0 <= k <= n):
        raise ValueError("cell index out of range")
    inc = cell_inclusion(n, k)
    return inc.pull_form(tautological_form(n)), inc.pull_metric(sympl_metric(n).g)


def cell_report(n: int, k: int) -> bool:
    """G_k is block-diagonal: zero on the abelian x^0..x^{k-1} directions and
    a copy of the contact phase-space metric of rank parameter n-k on the rest."""
    theta_k, g_k = cell_restrict(n, k)
    src = cell_chart(n, k)

    expect_terms = {f"x{k}": LaurentPoly.one(src)}
    for i in range(k + 1, n + 1):
        expect_terms[f"x{i}"] = LaurentPoly.variable(src, f"p{i}")
    theta_ok = theta_k == Form.one_form(src, expect_terms)

    m = n - k
    z = LaurentPoly.zero(src)
    expect = [[z] * src.dim for _ in range(src.dim)]
    if m == 0:
        # the contact block degenerates to the single direction dx^n . dx^n
        i = src.index(f"x{k}")
        expect[i][i] = LaurentPoly.one(src)
    else:
        base = tps.phase_metric(m).g
        tchart = tps.tps_chart(m)
        src_of = {"x0": f"x{k}"}
        for l in range(1, m + 1):
            src_of[f"p{l}"] = f"p{k+l}"
            src_of[f"x{l}"] = f"x{k+l}"
        rename = {nm: LaurentPoly.variable(src, target) for nm, target in src_of.items()}
        for a, nma in enumerate(tchart.names):
            for b, nmb in enumerate(tchart.names):
                ia = src.index(src_of[nma])
                ib = src.index(src_of[nmb])
                expect[ia][ib] = base.entries[a][b].substitute(rename, src)
    block_ok = g_k == PolyMatrix(src, expect)

    zero_rows_ok = all(
        all(g_k.entries[src.index(f"x{i}")][b].is_zero() for b in range(src.dim))
        for i in range(k)
    )
    return bool(theta_ok and block_ok and zero_rows_ok)


def cell_classify(n: int, point: Mapping) -> dict:
    """Least k with p_k != 0; the scaling with lam = 1/p_k moves the point
    onto the affine plane of cell k.  Points with all p_i = 0 belong to the
    degenerate stratum k = n+1, which carries no cell chart."""
    pt = {nm: Fraction(point[nm]) for nm in sympl_chart(n).names}
    for k in range(n + 1):
        if pt[f"p{k}"] != 0:
            lam = 1 / pt[f"p{k}"]
            moved = hyperbolic_action_point(n, pt, lam)
            return {"cell": k, "lam": lam, "representative": moved, "degenerate": False}
    return {"cell": n + 1, "lam": None, "representative": None, "degenerate": True}


# ----------------------------------------------------------------------
# incidence quadric


def incidence_quadric(n: int) -> LaurentPoly:
    chart = sympl_chart(n)
    q = LaurentPoly.zero(chart)
    for i in range(n + 1):
        q = q + LaurentPoly.variable(chart, f"p{i}") * LaurentPoly.variable(chart, f"x{i}")
    return q


def quadric_signature(n: int) -> tuple[int, int, int] | None:
    """Signature of sum p_i x^i: the polarization u_i = x^i + p_i,
    v_i = x^i - p_i diagonalizes it to (sum u_i^2 - v_i^2)/4, with n + 1
    squares of each sign.  None when that identity fails."""
    chart = sympl_chart(n)
    diag = LaurentPoly.zero(chart)
    for i in range(n + 1):
        u = LaurentPoly.variable(chart, f"x{i}") + LaurentPoly.variable(chart, f"p{i}")
        v = LaurentPoly.variable(chart, f"x{i}") - LaurentPoly.variable(chart, f"p{i}")
        diag = diag + u * u - v * v
    if diag != incidence_quadric(n) * 4:
        return None
    return n + 1, n + 1, 0


def ideal_gas_report(r=Fraction(2)) -> tuple[bool, dict]:
    """n = 2 with the thermodynamic naming (x^0, x^1, x^2) = (U, T, V) and
    (p_1, p_2) = (-S, p).  On the slice p_0 = 0 the incidence quadric reads
    -S T + p V = 0; fixing the entropy at the gas constant S = r turns it
    into the state equation p V = r T.  Sample points with p V = r T are
    members, and the scaling with lam = -1/S moves them into cell 1."""
    n = 2
    r = Fraction(r)
    q = incidence_quadric(n)

    def state_point(t, pres, vol, u=Fraction(7)):
        return {
            "p0": Fraction(0),
            "p1": -r,
            "p2": Fraction(pres),
            "x0": Fraction(u),
            "x1": Fraction(t),
            "x2": Fraction(vol),
        }

    members = []
    for t, pres, vol in [(3, r, 3), (5, 2 * r, Fraction(5, 2)), (Fraction(7, 2), r * 7, Fraction(1, 2))]:
        pt = state_point(t, pres, vol)
        members.append(q.evaluate(pt) == 0 and Fraction(pres) * Fraction(vol) == r * Fraction(t))
    non_member_pt = state_point(3, r, 4)
    non_member = q.evaluate(non_member_pt) != 0

    pt = state_point(3, r, 3)
    cls = cell_classify(n, pt)
    lam_ok = cls["cell"] == 1 and cls["lam"] == -1 / r
    moved = cls["representative"]
    moved_member = q.evaluate(moved) == 0 and moved["p1"] == 1

    passed = all(members) and non_member and lam_ok and moved_member
    return bool(passed), {"cell": cls["cell"], "lam": cls["lam"]}


# ----------------------------------------------------------------------
# affine-group symplectomorphism


def affine_chart(n: int) -> Chart:
    names = [f"h{i}" for i in range(n + 1)] + [f"z{i}" for i in range(n + 1)]
    return Chart(names, invertible=[f"h{i}" for i in range(n + 1)])


def affine_map(n: int) -> PolyMap:
    """chi: (h, z) -> (p = h, x = -h^{-1} z), with exact inverse."""
    src = affine_chart(n)
    dst = sympl_chart(n)
    comps = {}
    for i in range(n + 1):
        comps[f"p{i}"] = LaurentPoly.variable(src, f"h{i}")
        comps[f"x{i}"] = -(
            LaurentPoly.variable(src, f"h{i}", -1) * LaurentPoly.variable(src, f"z{i}")
        )
    inv_comps = {}
    for i in range(n + 1):
        inv_comps[f"h{i}"] = LaurentPoly.variable(dst, f"p{i}")
        inv_comps[f"z{i}"] = -(
            LaurentPoly.variable(dst, f"p{i}") * LaurentPoly.variable(dst, f"x{i}")
        )
    inverse = PolyMap(dst, src, inv_comps)
    return PolyMap(src, dst, comps, inverse=inverse)


def affine_report(n: int) -> tuple[bool, dict]:
    """Exact pullback identities for the map (h, z) -> (p = h, x = -z/h):
    the tautological form pulls back to -sum(dz_i - z_i h_i^{-1} dh_i), the
    symplectic form to -sum h_i^{-1} dh_i ^ dz_i, and the right/left
    invariant fields push to p d/dp and -p^{-1} d/dx with the printed
    bracket relations."""
    chi = affine_map(n)
    src = chi.src
    dst = chi.dst
    theta = tautological_form(n)

    pulled_theta = chi.pull_form(theta)
    # -dz + z h^{-1} dh, and the other printed sign variant -dz - z h^{-1} dh
    expect_theta = variant = Form(src, 1, {})
    for i in range(n + 1):
        zh = LaurentPoly.variable(src, f"z{i}") * LaurentPoly.variable(src, f"h{i}", -1)
        expect_theta = expect_theta + Form.one_form(src, {f"z{i}": -1, f"h{i}": zh})
        variant = variant + Form.one_form(src, {f"z{i}": -1, f"h{i}": -zh})
    theta_ok = pulled_theta == expect_theta
    matches_variant = pulled_theta == variant

    pulled_omega = chi.pull_form(theta.d())
    expect_omega = Form(src, 2, {})
    for i in range(n + 1):
        hinv = Form.function(src, LaurentPoly.variable(src, f"h{i}", -1))
        term = hinv.wedge(Form.d_coord(src, f"h{i}")).wedge(Form.d_coord(src, f"z{i}"))
        expect_omega = expect_omega + term
    omega_sign_negative = pulled_omega == expect_omega.scale(-1)
    omega_sign_positive = pulled_omega == expect_omega

    push_ok = True
    bracket_ok = True
    for i in range(n + 1):
        hi = LaurentPoly.variable(src, f"h{i}")
        xi_a = VectorField.from_dict(src, {f"h{i}": hi, f"z{i}": LaurentPoly.variable(src, f"z{i}")})
        xi_z = VectorField.coordinate(src, f"z{i}")
        pa = chi.push_field(xi_a)
        pz = chi.push_field(xi_z)
        expect_pa = VectorField.from_dict(dst, {f"p{i}": LaurentPoly.variable(dst, f"p{i}")})
        expect_pz = VectorField.from_dict(
            dst, {f"x{i}": -LaurentPoly.variable(dst, f"p{i}", -1)}
        )
        push_ok &= pa == expect_pa and pz == expect_pz
        bracket_ok &= bracket(xi_a, xi_z) == xi_z.scale(-1)
        eta_a = VectorField.from_dict(src, {f"h{i}": hi})
        eta_z = VectorField.from_dict(src, {f"z{i}": hi})
        bracket_ok &= bracket(eta_a, eta_z) == eta_z

    roundtrip = chi.inverse_map.compose(chi)
    ident_ok = all(
        roundtrip.comps[nm] == LaurentPoly.variable(src, nm) for nm in src.names
    )

    passed = bool(
        theta_ok
        and not matches_variant
        and omega_sign_negative
        and not omega_sign_positive
        and push_ok
        and bracket_ok
        and ident_ok
    )
    sign = "-" if omega_sign_negative else ("+" if omega_sign_positive else None)
    return passed, {"omega_pullback_sign": sign}
