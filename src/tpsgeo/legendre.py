"""Legendre submanifolds of the contact phase space built from a scalar
potential and a partition of the variable indices: parameterization, induced
metric, adapted tangent/normal frames, second fundamental form, homogeneity
and stability reports, plus a small catalog of potentials."""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from . import jets as jetmod
from . import tps
from .jets import DomainError, Jet3


class DegenerateSurfaceError(ValueError):
    """The induced metric is singular at the requested base point."""


class PotentialModel:
    """A potential phi of n variables with a partition of {1..n} into the
    momentum part I and the coordinate part J.

    The evaluator maps a base array (slot k-1 holds p_k for k in I, x^k for
    k in J) to a Jet3; plain is the same function on floats, used by the
    finite-difference oracle.  Convention 'canonical' builds a Legendre
    surface (p_j = -phi_j on J); 'graph' is the momentumless graph embedding
    with p = +grad(phi), kept for metric comparisons.
    """

    __slots__ = (
        "name",
        "nvars",
        "part_i",
        "part_j",
        "evaluator",
        "plain",
        "parameters",
        "homogeneous_degree",
        "convention",
        "in_domain",
    )

    def __init__(
        self,
        name,
        nvars,
        part_i,
        evaluator,
        plain,
        parameters=None,
        homogeneous_degree=None,
        convention="canonical",
        in_domain=None,
    ):
        self.name = str(name)
        self.nvars = int(nvars)
        if self.nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.part_i = frozenset(int(k) for k in part_i)
        full = frozenset(range(1, self.nvars + 1))
        if not self.part_i <= full:
            raise ValueError("partition indices out of range")
        self.part_j = full - self.part_i
        if convention not in ("canonical", "graph"):
            raise ValueError(f"unknown convention {convention!r}")
        if convention == "graph" and self.part_i:
            raise ValueError("the graph convention needs an empty momentum part")
        self.convention = convention
        self.evaluator = evaluator
        self.plain = plain
        self.parameters = dict(parameters or {})
        self.homogeneous_degree = homogeneous_degree
        self.in_domain = in_domain if in_domain is not None else (lambda b: True)

    def jet(self, base) -> Jet3:
        b = np.asarray(base, dtype=float)
        if b.shape != (self.nvars,):
            raise ValueError("base point has the wrong length")
        if not np.all(np.isfinite(b)):
            raise DomainError("base point has a non-finite coordinate")
        if not self.in_domain(b):
            raise DomainError(f"base point outside the domain of {self.name}")
        out = self.evaluator(Jet3.seeds(b))
        if out.nvars != self.nvars:
            raise ValueError("evaluator returned a jet of the wrong dimension")
        return out


# ----------------------------------------------------------------------
# parameterization


def surface_point(model: PotentialModel, base) -> dict:
    """Ambient point of the surface over a base point, together with the
    jet of phi there, the tangent frame (rows in chart order) and the
    residual of the contact form on it (zero for the canonical convention:
    the surface is Legendre)."""
    b = np.asarray(base, dtype=float)
    jet = model.jet(b)
    n = model.nvars
    p = np.empty(n)
    x = np.empty(n)
    if model.convention == "graph":
        x0 = jet.value
        p[:] = jet.grad
        x[:] = b
    else:
        x0 = jet.value - sum(b[i - 1] * jet.grad[i - 1] for i in model.part_i)
        for k in range(1, n + 1):
            if k in model.part_i:
                p[k - 1] = b[k - 1]
                x[k - 1] = jet.grad[k - 1]
            else:
                p[k - 1] = -jet.grad[k - 1]
                x[k - 1] = b[k - 1]
    ambient = {"x0": float(x0)}
    for k in range(1, n + 1):
        ambient[f"p{k}"] = float(p[k - 1])
    for k in range(1, n + 1):
        ambient[f"x{k}"] = float(x[k - 1])
    t = _tangent_frame(model, jet, b, p)
    res = 0.0
    for k in range(n):
        val = t[k, 0] + sum(p[s] * t[k, 1 + n + s] for s in range(n))
        scale = 1.0 + abs(t[k, 0]) + sum(abs(p[s] * t[k, 1 + n + s]) for s in range(n))
        res = max(res, abs(val) / scale)
    return {
        "base": b,
        "ambient": ambient,
        "jet": jet,
        "tangent": t,
        "legendre_residual": res,
        "convention": model.convention,
    }


def _tangent_frame(model: PotentialModel, jet: Jet3, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Pushforward of the base coordinate frame; rows are ambient vectors in
    chart order (x0, p_1..p_n, x^1..x^n)."""
    n = model.nvars
    h = jet.hess
    t = np.zeros((n, 2 * n + 1))
    for k in range(1, n + 1):
        row = t[k - 1]
        if model.convention == "graph":
            row[0] = jet.grad[k - 1]
            for s in range(1, n + 1):
                row[s] = h[s - 1, k - 1]
            row[n + k] = 1.0
            continue
        for s in range(1, n + 1):
            if s in model.part_i:
                row[s] = 1.0 if s == k else 0.0
                row[n + s] = h[s - 1, k - 1]
            else:
                row[s] = -h[s - 1, k - 1]
                row[n + s] = 1.0 if s == k else 0.0
        row[0] = -sum(p[s - 1] * row[n + s] for s in range(1, n + 1))
    return t


@functools.cache
def _float_tables(n: int) -> tuple:
    """Float term tables of the exact phase-space objects for one n: the
    chart names, the metric G, the X fields of the canonical frame, and the
    nonzero Christoffel symbols as (upper, lower1, lower2, terms)."""
    metric = tps.phase_metric(n)
    chart = metric.chart
    g = tuple(tuple(_terms(e) for e in row) for row in metric.g.entries)
    xrows = tuple(tuple(_terms(c) for c in x.comps) for x in tps.canonical_frame(n)["X"])
    gamma = tuple(
        (chart.index(up), chart.index(lo1), chart.index(lo2), _terms(poly))
        for (up, lo1, lo2), poly in metric.christoffel().nonzero().items()
    )
    return chart.names, g, xrows, gamma


def _terms(poly) -> tuple:
    """(float coefficient, variable indices repeated by exponent) per term."""
    out = []
    for exps, coef in poly.terms.items():
        if any(e < 0 for e in exps):
            raise ValueError("negative exponents have no float term table")
        out.append((float(coef), tuple(i for i, e in enumerate(exps) for _ in range(e))))
    return tuple(out)


def _evaluate(terms: tuple, point: list) -> float:
    """A term table at a float point.  The coefficient is multiplied by one
    variable at a time, so a monomial of degree <= 2 whose coefficient is a
    signed power of two rounds once, like its exact value converted to
    float; every table of the phase space has that form."""
    total = 0.0
    for coef, idx in terms:
        val = coef
        for i in idx:
            val *= point[i]
        total += val
    return total


def _chart_point(names: tuple, ambient: dict) -> list:
    return [ambient[nm] for nm in names]


def ambient_metric(n: int, ambient: dict) -> np.ndarray:
    """The phase-space metric at a point, as a float matrix in chart order."""
    names, g, _, _ = _float_tables(n)
    point = _chart_point(names, ambient)
    return np.array([[_evaluate(e, point) for e in row] for row in g])


# ----------------------------------------------------------------------
# induced metric


def induced_metric(model: PotentialModel, base) -> dict:
    """Pullback of the ambient metric to the surface, computed as the Gram
    matrix of the tangent frame and cross-checked against the block formula
    (+2 hess on the I block, -2 hess on the J block, zero mixed) for the
    canonical convention, or against 2 hess plus the contact-form square for
    the graph convention."""
    sp = surface_point(model, base)
    jet, t = sp["jet"], sp["tangent"]
    n = model.nvars
    g = ambient_metric(n, sp["ambient"])
    pullback = t @ g @ t.T
    hess = jet.hess.copy()
    if model.convention == "graph":
        sympl = 2.0 * hess
        theta_on_t = 2.0 * jet.grad
        expected = sympl + np.outer(theta_on_t, theta_on_t)
        agreement = float(np.max(np.abs(pullback - expected))) if n else 0.0
        out = {
            "pullback": pullback,
            "hessian": hess,
            "symplectic_part": sympl,
            "block_agreement": agreement,
        }
    else:
        expected = np.zeros((n, n))
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                if k in model.part_i and l in model.part_i:
                    expected[k - 1, l - 1] = 2.0 * hess[k - 1, l - 1]
                elif k in model.part_j and l in model.part_j:
                    expected[k - 1, l - 1] = -2.0 * hess[k - 1, l - 1]
        agreement = float(np.max(np.abs(pullback - expected)))
        out = {
            "pullback": pullback,
            "hessian": hess,
            "block_formula": expected,
            "block_agreement": agreement,
        }
    out["ambient_metric"] = g
    out["surface_point"] = sp
    out["passed"] = bool(agreement < 1e-10 and sp["legendre_residual"] < (1e-12 if model.convention == "canonical" else np.inf))
    return out


# ----------------------------------------------------------------------
# adapted frames


def _frame_vectors(n: int, ambient: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reeb, momentum and horizontal frame vectors at a point, as rows."""
    xi = np.zeros(2 * n + 1)
    xi[0] = 1.0
    pvec = np.zeros((n, 2 * n + 1))
    for k in range(1, n + 1):
        pvec[k - 1, k] = 1.0
    names, _, xrows, _ = _float_tables(n)
    point = _chart_point(names, ambient)
    xvec = np.array([[_evaluate(c, point) for c in row] for row in xrows])
    return xi, pvec, xvec


def _block_inverse(model: PotentialModel, hess: np.ndarray) -> np.ndarray:
    """Blockwise inverse of the Hessian: the I and J blocks inverted
    separately, mixed entries zero."""
    n = model.nvars
    out = np.zeros((n, n))
    for part in (model.part_i, model.part_j):
        idx = sorted(k - 1 for k in part)
        if not idx:
            continue
        sub = hess[np.ix_(idx, idx)]
        out[np.ix_(idx, idx)] = np.linalg.inv(sub)
    return out


def frames(model: PotentialModel, base) -> dict:
    """Adapted frames along the surface: tangent Y_k and normal Z_k, with
    the auxiliary V/W pair they are built from, and orthogonality checks."""
    if model.convention != "canonical":
        raise ValueError("frames need the canonical convention")
    im = induced_metric(model, base)
    sp = im["surface_point"]
    n = model.nvars
    hess = im["hessian"]
    pullback = im["pullback"]
    scale = float(np.max(np.abs(pullback)))
    if scale == 0.0 or abs(np.linalg.det(pullback / scale)) <= 1e-10:
        raise DegenerateSurfaceError("degenerate surface metric")
    xi, pvec, xvec = _frame_vectors(n, sp["ambient"])
    v = np.zeros((n, 2 * n + 1))
    w = np.zeros((n, 2 * n + 1))
    for k in range(1, n + 1):
        if k in model.part_i:
            v[k - 1] = pvec[k - 1]
            w[k - 1] = xvec[k - 1]
        else:
            v[k - 1] = xvec[k - 1]
            w[k - 1] = -pvec[k - 1]
    y = v + hess @ w
    hinv = _block_inverse(model, hess)
    z = w - 0.5 * (hinv @ y)
    g = im["ambient_metric"]
    vw_gram = v @ g @ w.T
    vw_expected = np.zeros((n, n))
    for k in range(1, n + 1):
        vw_expected[k - 1, k - 1] = 1.0 if k in model.part_i else -1.0
    yz_gram = y @ g @ z.T
    zz_gram = z @ g @ z.T
    assembled = np.vstack([y, z, xi.reshape(1, -1)])
    norms = np.max(np.abs(assembled), axis=1)
    span_det = float(abs(np.linalg.det(assembled / norms[:, None])))
    checks = {
        "vw_table": float(np.max(np.abs(vw_gram - vw_expected))),
        "yz_orthogonality": float(np.max(np.abs(yz_gram))),
        "span_det": span_det,
    }
    gram_vs_y = y @ g @ y.T
    return {
        "surface_point": sp,
        "induced": im,
        "V": v,
        "W": w,
        "Y": y,
        "Z": z,
        "xi": xi,
        "hessian_inverse_blocks": hinv,
        "zz_gram": zz_gram,
        "y_gram": gram_vs_y,
        "checks": checks,
        "passed": bool(
            checks["vw_table"] < 1e-12
            and checks["yz_orthogonality"] < 1e-10
            and span_det > 1e-8
            and np.max(np.abs(gram_vs_y - pullback)) < 1e-10
        ),
    }


# ----------------------------------------------------------------------
# second fundamental form

def _gamma_values(n: int, ambient: dict) -> list:
    """Nonzero Christoffel symbols of the ambient metric at a point, as
    (upper, lower1, lower2, value)."""
    names, _, _, gamma = _float_tables(n)
    point = _chart_point(names, ambient)
    return [(up, lo1, lo2, _evaluate(terms, point)) for up, lo1, lo2, terms in gamma]


def _gamma_quadratic(gamma: list, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gamma^rho_{mu nu} a^mu b^nu from the symbol values at a point."""
    out = np.zeros(a.size)
    for up, lo1, lo2, val in gamma:
        if lo1 == lo2:
            out[up] += val * a[lo1] * b[lo2]
        else:
            out[up] += val * (a[lo1] * b[lo2] + a[lo2] * b[lo1])
    return out


def _tangent_derivative(model: PotentialModel, jet: Jet3, p: np.ndarray, k: int, l: int) -> np.ndarray:
    """d/d(base_k) of the ambient components of Y_l, using third derivatives
    of the potential along the surface."""
    n = model.nvars
    h, t3 = jet.hess, jet.third
    dp_row = np.zeros(n)  # d p_s / d b_k
    for s in range(1, n + 1):
        if s in model.part_i:
            dp_row[s - 1] = 1.0 if s == k else 0.0
        else:
            dp_row[s - 1] = -h[s - 1, k - 1]
    dpcomp = np.zeros(n)
    dxcomp = np.zeros(n)
    xcomp = np.zeros(n)
    for s in range(1, n + 1):
        if s in model.part_i:
            xcomp[s - 1] = h[l - 1, s - 1]
            dxcomp[s - 1] = t3[l - 1, s - 1, k - 1]
        else:
            xcomp[s - 1] = 1.0 if s == l else 0.0
            dpcomp[s - 1] = -t3[l - 1, s - 1, k - 1]
    out = np.zeros(2 * n + 1)
    out[1 : n + 1] = dpcomp
    out[n + 1 :] = dxcomp
    out[0] = -sum(dp_row[s] * xcomp[s] + p[s] * dxcomp[s] for s in range(n))
    return out


def second_fundamental_form(model: PotentialModel, base) -> dict:
    """Third-derivative coefficients of the surface in the normal frame,
    with the full decomposition check of the ambient covariant derivative
    of the tangent frame into tangential and normal parts."""
    fr = frames(model, base)
    sp = fr["surface_point"]
    jet = sp["jet"]
    n = model.nvars
    p = np.array([sp["ambient"][f"p{k}"] for k in range(1, n + 1)])
    hinv = fr["hessian_inverse_blocks"]
    y, z = fr["Y"], fr["Z"]
    gamma_at = _gamma_values(n, sp["ambient"])
    coeffs = jet.third.copy()
    worst = 0.0
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            deriv = _tangent_derivative(model, jet, p, k, l)
            gamma = _gamma_quadratic(gamma_at, y[k - 1], y[l - 1])
            cov = deriv + gamma
            tangential = np.zeros(2 * n + 1)
            normal = np.zeros(2 * n + 1)
            for s in range(n):
                c = coeffs[l - 1, k - 1, s]
                normal += c * z[s]
                for r in range(n):
                    tangential += 0.5 * hinv[s, r] * c * y[r]
            worst = max(worst, float(np.max(np.abs(cov - tangential - normal))))
    sym = 0.0
    for k in range(n):
        for l in range(k + 1, n):
            sym = max(
                sym,
                float(np.max(np.abs(coeffs[l, k, :] - coeffs[k, l, :]))),
            )
    ii_norm = float(np.max(np.abs(coeffs)))
    return {
        "frames": fr,
        "coefficients": coeffs,
        "decomposition_residual": worst,
        "symmetry_residual": sym,
        "ii_norm": ii_norm,
        "totally_geodesic": bool(ii_norm == 0.0),
        "passed": bool(fr["passed"] and worst < 1e-9 and sym == 0.0),
    }


# ----------------------------------------------------------------------
# homogeneity and stability


def homogeneity_check(model: PotentialModel, samples, lambdas=(0.5, 2.0, 3.0)) -> dict:
    """Scaling residuals phi(lambda b) - lambda^d phi(b) over samples; for
    degree-1 potentials additionally the constitutive-surface membership
    x0 + sum p_l x^l = 0 and the annihilation of the tangent frame by
    sum x^i dp_i."""
    if model.homogeneous_degree is None:
        return {"status": "not-applicable", "passed": True}
    d = float(model.homogeneous_degree)
    scaling = 0.0
    constitutive = 0.0
    gibbs_duhem = 0.0
    for b in samples:
        b = np.asarray(b, dtype=float)
        f0 = float(model.plain(b))
        for lam in lambdas:
            f1 = float(model.plain(lam * b))
            scaling = max(scaling, abs(f1 - lam**d * f0) / max(1.0, abs(f1)))
        if d == 1.0:
            sp = surface_point(model, b)
            amb = sp["ambient"]
            n = model.nvars
            total = amb["x0"] + sum(amb[f"p{k}"] * amb[f"x{k}"] for k in range(1, n + 1))
            scale = 1.0 + abs(amb["x0"]) + sum(
                abs(amb[f"p{k}"] * amb[f"x{k}"]) for k in range(1, n + 1)
            )
            constitutive = max(constitutive, abs(total) / scale)
            t = sp["tangent"]
            for k in range(n):
                val = sum(amb[f"x{s}"] * t[k, s] for s in range(1, n + 1))
                gibbs_duhem = max(gibbs_duhem, abs(val) / (1.0 + abs(val)))
    report = {
        "status": "checked",
        "degree": d,
        "scaling_residual": scaling,
        "passed": bool(scaling < 1e-10),
    }
    if d == 1.0:
        report["constitutive_residual"] = constitutive
        report["gibbs_duhem_residual"] = gibbs_duhem
        report["passed"] = bool(
            report["passed"] and constitutive < 1e-12 and gibbs_duhem < 1e-12
        )
    return report


def stability_classify(model: PotentialModel, base) -> dict:
    """Definiteness of the Hessian at a base point via its eigenvalues."""
    return _classify(model.jet(np.asarray(base, dtype=float)).hess)


def _classify(h: np.ndarray) -> dict:
    """Stability class and definiteness of a Hessian from its eigenvalues."""
    eigs = np.linalg.eigvalsh(h)
    tol = 1e-9 * max(float(np.max(np.abs(eigs))), 1e-300)
    if np.any(np.abs(eigs) <= tol):
        cls, definite = "marginal", "degenerate"
    elif np.all(eigs > tol):
        cls, definite = "stable", "positive definite"
    elif np.all(eigs < -tol):
        cls, definite = "unstable", "negative definite"
    else:
        cls, definite = "unstable", "indefinite"
    return {
        "classification": cls,
        "definiteness": definite,
        "eigenvalues": [float(e) for e in eigs],
        "tolerance": tol,
    }


# ----------------------------------------------------------------------
# catalog


def van_der_waals(a=1.0, b=1.0, r=1.0, c_v=1.5, positive_exponent=False) -> PotentialModel:
    """Internal energy U(S, V) of a van der Waals gas.  The physically
    standard exponent on (V - b) is negative; positive_exponent switches to
    the positive variant (smooth on the same domain, used for cross-checks).
    """
    exponent = Fraction(r) / Fraction(c_v)
    if not positive_exponent:
        exponent = -exponent
    af, bf, cvf = float(a), float(b), float(c_v)
    ef = float(exponent)

    def evaluator(seeds):
        s, v = seeds
        return (v - bf) ** exponent * jetmod.exp(s / cvf) - af / v

    def plain(xv):
        s, v = xv
        return (v - bf) ** ef * np.exp(s / cvf) - af / v

    return PotentialModel(
        "van_der_waals",
        2,
        (),
        evaluator,
        plain,
        parameters={"a": af, "b": bf, "r": float(r), "c_v": cvf,
                    "positive_exponent": bool(positive_exponent)},
        in_domain=lambda x: x[1] > bf and x[1] != 0.0,
    )


def ideal_gas_energy(r=1.0, c_v=1.5) -> PotentialModel:
    """The a = b = 0 limit of the van der Waals energy."""
    exponent = -Fraction(r) / Fraction(c_v)
    cvf = float(c_v)
    ef = float(exponent)

    def evaluator(seeds):
        s, v = seeds
        return v**exponent * jetmod.exp(s / cvf)

    def plain(xv):
        return xv[1] ** ef * np.exp(xv[0] / cvf)

    return PotentialModel(
        "ideal_gas_energy",
        2,
        (),
        evaluator,
        plain,
        parameters={"r": float(r), "c_v": cvf},
        in_domain=lambda x: x[1] > 0.0,
    )


def quadratic(q, part_i=()) -> PotentialModel:
    """phi = (1/2) b^T Q b for a symmetric matrix Q; jets are exact."""
    qm = np.asarray(q, dtype=float)
    n = qm.shape[0]
    if qm.shape != (n, n) or not np.array_equal(qm, qm.T):
        raise ValueError("Q must be square and symmetric")

    def evaluator(seeds):
        b = np.array([s.value for s in seeds])
        return Jet3(n, 0.5 * b @ qm @ b, qm @ b, qm)

    def plain(xv):
        return 0.5 * xv @ qm @ xv

    return PotentialModel(
        "quadratic",
        n,
        part_i,
        evaluator,
        plain,
        parameters={"q": qm.tolist()},
        homogeneous_degree=2,
    )


def linear(avec) -> PotentialModel:
    """phi = sum a_j b_j; the surface sits inside the constitutive
    hypersurface x0 + sum p_l x^l = 0."""
    av = np.asarray(avec, dtype=float)
    n = av.size

    def evaluator(seeds):
        return Jet3(n, av @ np.array([s.value for s in seeds]), av)

    def plain(xv):
        return float(av @ xv)

    return PotentialModel(
        "linear",
        n,
        (),
        evaluator,
        plain,
        parameters={"a": av.tolist()},
        homogeneous_degree=1,
    )


def homogeneous_demo() -> PotentialModel:
    """phi(x1, x2) = x1 * (x2/x1)^2 = x2^2/x1, homogeneous of degree one."""

    def evaluator(seeds):
        x1, x2 = seeds
        return (x2 * x2) / x1

    def plain(xv):
        return xv[1] ** 2 / xv[0]

    return PotentialModel(
        "homogeneous_demo",
        2,
        (),
        evaluator,
        plain,
        homogeneous_degree=1,
        in_domain=lambda x: x[0] > 0.0,
    )


_CATALOG = {
    "van_der_waals": van_der_waals,
    "ideal_gas_energy": ideal_gas_energy,
    "quadratic": quadratic,
    "linear": linear,
    "homogeneous_demo": homogeneous_demo,
}


def catalog() -> dict:
    return dict(_CATALOG)


def model_from_spec(d: dict) -> PotentialModel:
    """Build a catalog model from a JSON-style description:
    {model: catalog-id, parameters: {...}, convention?, partition?}."""
    kind = d.get("model")
    if kind not in _CATALOG:
        raise ValueError(f"unknown model {kind!r}")
    params = dict(d.get("parameters", {}))
    if kind == "quadratic":
        model = quadratic(params["q"], tuple(d.get("partition", ())))
    elif kind == "linear":
        model = linear(params["a"])
    else:
        model = _CATALOG[kind](**params)
    conv = d.get("convention")
    if conv is not None and conv != model.convention:
        model = PotentialModel(
            model.name,
            model.nvars,
            model.part_i,
            model.evaluator,
            model.plain,
            parameters=model.parameters,
            homogeneous_degree=model.homogeneous_degree,
            convention=conv,
            in_domain=model.in_domain,
        )
    if "name" in d:
        model.name = str(d["name"])
    return model


def analyze(model: PotentialModel, base) -> dict:
    """One-stop report at a base point: ambient coordinates, induced metric,
    stability, and the second fundamental form when the metric allows it.
    The jet is evaluated once, unless the surface metric is degenerate."""
    b = np.asarray(base, dtype=float)
    ii = None
    if model.convention == "canonical":
        try:
            ii = second_fundamental_form(model, b)
        except DegenerateSurfaceError:
            pass
    im = induced_metric(model, b) if ii is None else ii["frames"]["induced"]
    sp = im["surface_point"]
    stab = _classify(im["hessian"])
    out = {
        "model": model.name,
        "convention": model.convention,
        "point": [float(v) for v in b],
        "ambient": sp["ambient"],
        "pullback_metric": im["pullback"].tolist(),
        "hessian": im["hessian"].tolist(),
        "block_agreement": im["block_agreement"],
        "legendre_residual": sp["legendre_residual"],
        "eigenvalues": stab["eigenvalues"],
        "classification": stab["classification"],
        "definiteness": stab["definiteness"],
    }
    if ii is not None:
        out["ii_norm"] = ii["ii_norm"]
        out["decomposition_residual"] = ii["decomposition_residual"]
    if model.convention == "canonical":
        out["degenerate"] = ii is None
    return out
