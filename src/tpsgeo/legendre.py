"""Legendre submanifolds of the contact phase space built from a scalar
potential and a partition of the variable indices: parameterization, induced
metric, adapted tangent/normal frames, second fundamental form, homogeneity
and stability reports, plus a small catalog of potentials.

The surface is the canonical one: on the coordinate part J the momenta are
p_j = -phi_j, so the contact form pulls back to zero.  Ambient points and
vectors are arrays in chart order (x0, p_1..p_n, x^1..x^n).  Every function
takes a batch of base points, of shape (N, n), and carries the batch axis N
in front of every array it returns; one point is a batch of one.  Each
point sees the same floating-point operations, in the same order, whatever
batch it is in."""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from . import jets as jetmod
from . import tps
from .jets import DomainError, Jet3

# The bound each surface claim sets on a residual that this module returns;
# a claim passes when the residual is below it.
CONTACT_TOL = 1e-12  # surface_point's legendre_residual
BLOCK_TOL = 1e-10  # induced_metric's block_agreement
GEODESIC_TOL = 1e-12  # analyze's ii_norm on a quadratic potential
DECOMPOSITION_TOL = 1e-9  # second_fundamental_form's decomposition_residual
SCALING_TOL = 1e-10  # homogeneity_check's scaling_residual
CONSTITUTIVE_TOL = 1e-12  # homogeneity_check's constitutive and Gibbs-Duhem residuals


def _quiet(func):
    """Runs func with numpy's floating-point warnings off.  Overflow and
    invalid values at extreme points are expected: they surface as
    non-finite residuals, which the checks then report as failures."""

    @functools.wraps(func)
    def inner(*args, **kwargs):
        with np.errstate(all="ignore"):
            return func(*args, **kwargs)

    return inner


def _max(a, b):
    """Python's max(a, b) point by point: b only where b > a, so a NaN b
    leaves a as it is."""
    return np.where(b > a, b, a)


class PotentialModel:
    """A potential phi of n variables with a partition of {1..n} into the
    momentum part I and the coordinate part J.

    The evaluator maps the seed jets of a batch of base points (slot k-1
    holds p_k for k in I, x^k for k in J) to a Jet3 of the same batch;
    plain is the same function of one float point, used by the
    finite-difference oracle.  in_domain maps the coordinate rows b.T to a
    flag per point.
    """

    __slots__ = ("name", "nvars", "part_i", "part_j", "evaluator", "plain", "parameters",
                 "homogeneous_degree", "in_domain")

    def __init__(self, name, nvars, part_i, evaluator, plain, parameters=None,
                 homogeneous_degree=None, in_domain=None):
        self.name = str(name)
        self.nvars = int(nvars)
        if self.nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.part_i = frozenset(int(k) for k in part_i)
        full = frozenset(range(1, self.nvars + 1))
        if not self.part_i <= full:
            raise ValueError("partition indices out of range")
        self.part_j = full - self.part_i
        self.evaluator = evaluator
        self.plain = plain
        self.parameters = dict(parameters or {})
        self.homogeneous_degree = homogeneous_degree
        self.in_domain = in_domain if in_domain is not None else (lambda b: True)

    def _in_i(self) -> np.ndarray:
        """Per base slot: does it hold a momentum (k in I)?"""
        return np.array([k in self.part_i for k in range(1, self.nvars + 1)])

    def admits(self, base) -> np.ndarray:
        """Per base point: all coordinates finite and inside the domain."""
        b = np.asarray(base, dtype=float)
        with np.errstate(invalid="ignore"):
            return np.isfinite(b).all(axis=-1) & self.in_domain(b.T)

    def jet(self, base) -> Jet3:
        """The jet of phi at every point of a batch."""
        b = np.asarray(base, dtype=float)
        if b.ndim != 2 or b.shape[1] != self.nvars:
            raise ValueError(f"base points must be a batch of shape (N, {self.nvars})")
        if not np.all(np.isfinite(b)):
            raise DomainError("base point has a non-finite coordinate")
        if not np.all(self.admits(b)):
            raise DomainError(f"base point outside the domain of {self.name}")
        with np.errstate(all="ignore"):
            out = self.evaluator(Jet3.seeds(b))
        if out.nvars != self.nvars:
            raise ValueError("evaluator returned a jet of the wrong dimension")
        return out


# ----------------------------------------------------------------------
# parameterization


@_quiet
def surface_point(model: PotentialModel, base) -> dict:
    """Ambient point of the surface over each base point, of shape
    (N, 2n+1), together with the jet of phi there, the tangent frame (rows
    in chart order) and the residual of the contact form on it (zero up to
    rounding: the surface is Legendre)."""
    b = np.asarray(base, dtype=float)
    jet = model.jet(b)
    n = model.nvars
    grad = jet.grad
    acc = 0.0
    for i in model.part_i:
        acc = acc + b[..., i - 1] * grad[..., i - 1]
    x0 = jet.value - acc
    in_i = model._in_i()
    p = np.where(in_i, b, -grad)
    x = np.where(in_i, grad, b)
    ambient = np.concatenate([x0[..., None], p, x], axis=-1)
    t = _tangent_frame(model, jet, p)
    res = 0.0
    for k in range(n):
        val = scale = 0.0
        for s in range(n):
            term = p[..., s] * t[..., k, 1 + n + s]
            val, scale = val + term, scale + np.abs(term)
        res = _max(res, np.abs(t[..., k, 0] + val) / (1.0 + np.abs(t[..., k, 0]) + scale))
    return {"base": b, "ambient": ambient, "jet": jet, "tangent": t, "legendre_residual": res}


def _tangent_frame(model: PotentialModel, jet: Jet3, p: np.ndarray) -> np.ndarray:
    """Pushforward of the base coordinate frame; rows are ambient vectors in
    chart order (x0, p_1..p_n, x^1..x^n)."""
    n = model.nvars
    h, eye = jet.hess, np.eye(n)  # h is symmetric to the last bit
    t = np.zeros(p.shape[:-1] + (n, 2 * n + 1))
    in_i = model._in_i()
    t[..., 1 : n + 1] = np.where(in_i, eye, -h)
    t[..., n + 1 :] = np.where(in_i, h, eye)
    acc = 0.0
    for s in range(n):
        acc = acc + p[..., s, None] * t[..., n + 1 + s]
    t[..., 0] = -acc
    return t


@functools.cache
def _float_tables(n: int) -> tuple:
    """Float term tables of the exact phase-space objects for one n: the
    metric G, the X fields of the canonical frame, and the nonzero
    Christoffel symbols as (upper, lower1, lower2, terms), all indexed in
    chart order."""
    metric = tps.phase_metric(n)
    chart = metric.chart
    g = tuple(tuple(_terms(e) for e in row) for row in metric.g.entries)
    frame = dict(tps.canonical_frame(n))
    xrows = tuple(tuple(_terms(c) for c in frame[f"X{i}"].comps) for i in range(1, n + 1))
    gamma = tuple(
        (chart.index(up), chart.index(lo1), chart.index(lo2), _terms(poly))
        for (up, lo1, lo2), poly in metric.christoffel().nonzero().items()
    )
    return g, xrows, gamma


def _terms(poly) -> tuple:
    """(float coefficient, variable indices repeated by exponent) per term."""
    out = []
    for exps, coef in poly.terms.items():
        if any(e < 0 for e in exps):
            raise ValueError("negative exponents have no float term table")
        out.append((float(coef), tuple(i for i, e in enumerate(exps) for _ in range(e))))
    return tuple(out)


def _evaluate(terms: tuple, point: list):
    """A term table at a float point or batch.  The coefficient is multiplied
    by one variable at a time, so a monomial of degree <= 2 whose
    coefficient is a signed power of two rounds once, like its exact value
    converted to float; every table of the phase space has that form."""
    total = 0.0
    for coef, idx in terms:
        val = coef
        for i in idx:
            val *= point[i]
        total += val
    return total


def _table(rows: tuple, ambient: np.ndarray) -> np.ndarray:
    """A matrix of term tables at the ambient point(s), in chart order."""
    point = list(np.moveaxis(ambient, -1, 0))
    out = np.empty(ambient.shape[:-1] + (len(rows), len(rows[0])))
    for r, row in enumerate(rows):
        for c, terms in enumerate(row):
            out[..., r, c] = _evaluate(terms, point)
    return out


def ambient_metric(n: int, ambient: np.ndarray) -> np.ndarray:
    """The phase-space metric at the ambient point(s), as a float matrix in
    chart order."""
    return _table(_float_tables(n)[0], ambient)


# ----------------------------------------------------------------------
# induced metric


@_quiet
def induced_metric(model: PotentialModel, base) -> dict:
    """Pullback of the ambient metric to the surface, computed as the Gram
    matrix of the tangent frame, and its largest deviation from the block
    formula: +2 hess on the I block, -2 hess on the J block, zero mixed."""
    sp = surface_point(model, base)
    jet, t = sp["jet"], sp["tangent"]
    pullback = t @ ambient_metric(model.nvars, sp["ambient"]) @ t.swapaxes(-1, -2)
    hess = jet.hess.copy()
    in_i = model._in_i()
    sign = np.where(in_i, 2.0, -2.0)
    expected = np.where(in_i[:, None] == in_i, sign[:, None] * hess, 0.0)
    return {
        "pullback": pullback, "hessian": hess, "surface_point": sp,
        "block_agreement": np.max(np.abs(pullback - expected), axis=(-2, -1)),
    }


# ----------------------------------------------------------------------
# adapted frames


def _frame_vectors(n: int, ambient: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Momentum and horizontal frame vectors at a point, as rows."""
    return np.eye(n, 2 * n + 1, 1), _table(_float_tables(n)[1], ambient)


def _blocks(model: PotentialModel) -> list:
    """Index tuples of the I x I and J x J blocks of an (n, n) matrix."""
    return [(Ellipsis,) + np.ix_(*[sorted(k - 1 for k in part)] * 2)
            for part in (model.part_i, model.part_j) if part]


def _singular_blocks(model: PotentialModel, hess: np.ndarray) -> np.ndarray:
    """Per point: is the I or the J block of the Hessian exactly singular,
    so that np.linalg.inv would refuse it?"""
    return np.any([np.linalg.slogdet(hess[ix])[0] == 0.0 for ix in _blocks(model)], axis=0)


def _block_inverse(model: PotentialModel, hess: np.ndarray) -> tuple:
    """Blockwise inverse of the Hessian (the I and J blocks inverted
    separately, mixed entries zero) and the _singular_blocks flags; a
    flagged point inverts the identity instead."""
    singular = _singular_blocks(model, hess)
    safe = np.where(singular[..., None, None], np.eye(model.nvars), hess)
    out = np.zeros(hess.shape)
    for ix in _blocks(model):
        out[ix] = np.linalg.inv(safe[ix])
    return out, singular


@_quiet
def frames(model: PotentialModel, base) -> dict:
    """Adapted frames along the surface: tangent Y_k = V_k + hess_kl W_l and
    normal Z_k = W_k - (1/2) hinv_kl Y_l, where V = P, W = X on the momentum
    part I and V = X, W = -P on J, and hinv inverts the Hessian blockwise.
    Y_k is the derivative of the embedding along the base coordinate b_k,
    that is row k of surface_point's tangent frame, so Y is read from there.
    Where a Hessian block is exactly singular ("singular"), hinv and Z are
    meaningless."""
    sp = surface_point(model, base)
    hinv, singular = _block_inverse(model, sp["jet"].hess)
    pvec, xvec = _frame_vectors(model.nvars, sp["ambient"])
    w = np.where(model._in_i()[:, None], xvec, -pvec)
    y = sp["tangent"]
    return {"surface_point": sp, "Y": y, "Z": w - 0.5 * (hinv @ y),
            "hessian_inverse_blocks": hinv, "singular": singular}


# ----------------------------------------------------------------------
# second fundamental form

def _gamma_values(n: int, ambient: np.ndarray) -> list:
    """Nonzero Christoffel symbols of the ambient metric at a point, as
    (upper, lower1, lower2, value)."""
    point, gamma = list(np.moveaxis(ambient, -1, 0)), _float_tables(n)[2]
    return [(up, lo1, lo2, _evaluate(terms, point)) for up, lo1, lo2, terms in gamma]


def _gamma_quadratic(gamma: list, y: np.ndarray) -> np.ndarray:
    """Gamma^rho_{mu nu} Y_k^mu Y_l^nu for every pair (k, l), from the
    symbol values at the point(s); shape B + (n, n, 2n+1)."""
    a, b = y[..., :, None, :], y[..., None, :, :]
    out = np.zeros(y.shape[:-1] + y.shape[-2:])
    for up, lo1, lo2, val in gamma:
        val = np.asarray(val)[..., None, None]
        if lo1 == lo2:
            out[..., up] += val * a[..., lo1] * b[..., lo2]
        else:
            out[..., up] += val * (a[..., lo1] * b[..., lo2] + a[..., lo2] * b[..., lo1])
    return out


def _tangent_derivative(model: PotentialModel, jet: Jet3, p: np.ndarray, k: int, l: int) -> np.ndarray:
    """d/d(base_k) of the ambient components of Y_l, using third derivatives
    of the potential along the surface."""
    n = model.nvars
    in_i = model._in_i()
    h, t3 = jet.hess, jet.third[..., l - 1, :, k - 1]
    dp_row = np.where(in_i, np.arange(n) == k - 1, -h[..., :, k - 1])  # d p_s / d b_k
    xcomp = np.where(in_i, h[..., l - 1, :], np.arange(n) == l - 1)
    dxcomp = np.where(in_i, t3, 0.0)
    out = np.zeros(p.shape[:-1] + (2 * n + 1,))
    out[..., 1 : n + 1] = np.where(in_i, 0.0, -t3)
    out[..., n + 1 :] = dxcomp
    acc = 0.0
    for s in range(n):
        acc = acc + (dp_row[..., s] * xcomp[..., s] + p[..., s] * dxcomp[..., s])
    out[..., 0] = -acc
    return out


@_quiet
def second_fundamental_form(model: PotentialModel, base) -> dict:
    """Residual of the decomposition of the ambient covariant derivative of
    the tangent frame into a tangential part (1/2) hinv c Y and a normal
    part c Z, whose coefficients c are the third derivatives of phi (the
    jet's third tensor), together with the frames it was built from."""
    fr = frames(model, base)
    sp, n = fr["surface_point"], model.nvars
    jet, p = sp["jet"], sp["ambient"][..., 1 : n + 1]
    hinv, y, z = fr["hessian_inverse_blocks"], fr["Y"], fr["Z"]
    gamma = _gamma_quadratic(_gamma_values(n, sp["ambient"]), y)
    worst = 0.0
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            cov = _tangent_derivative(model, jet, p, k, l) + gamma[..., k - 1, l - 1, :]
            tangential = np.zeros(cov.shape)
            normal = np.zeros(cov.shape)
            for s in range(n):
                c = jet.third[..., l - 1, k - 1, s, None]
                normal += c * z[..., s, :]
                for r in range(n):
                    tangential += 0.5 * hinv[..., s, r, None] * c * y[..., r, :]
            worst = _max(worst, np.max(np.abs(cov - tangential - normal), axis=-1))
    return {"frames": fr, "decomposition_residual": worst}


# ----------------------------------------------------------------------
# homogeneity and stability


@_quiet
def homogeneity_check(model: PotentialModel, samples, lambdas=(0.5, 2.0, 3.0)) -> dict:
    """Scaling residuals phi(lambda b) - lambda^d phi(b) over samples; for
    degree-1 potentials additionally the constitutive-surface membership
    x0 + sum p_l x^l = 0 and the annihilation of the tangent frame by
    sum x^i dp_i."""
    if model.homogeneous_degree is None:
        return {"status": "not-applicable", "passed": True}
    d = float(model.homogeneous_degree)
    pts = [np.asarray(b, dtype=float) for b in samples]
    scaling = 0.0
    for b in pts:
        f0 = float(model.plain(b))
        for lam in lambdas:
            f1 = float(model.plain(lam * b))
            scaling = max(scaling, abs(f1 - lam**d * f0) / max(1.0, abs(f1)))
    report = {
        "status": "checked",
        "degree": d,
        "scaling_residual": scaling,
        "passed": bool(scaling < SCALING_TOL),
    }
    if d == 1.0:
        constitutive = gibbs_duhem = 0.0
        if pts:
            sp = surface_point(model, np.array(pts))
            amb, t, n = sp["ambient"], sp["tangent"], model.nvars
            total = scale = pairing = 0.0
            for k in range(1, n + 1):
                term = amb[:, k] * amb[:, n + k]
                total, scale = total + term, scale + np.abs(term)
                pairing = pairing + amb[:, n + k, None] * t[:, :, k]
            ratio = np.abs(amb[:, 0] + total) / (1.0 + np.abs(amb[:, 0]) + scale)
            constitutive = max(0.0, *ratio.tolist())
            gibbs_duhem = max(0.0, *(np.abs(pairing) / (1.0 + np.abs(pairing))).ravel().tolist())
        report["constitutive_residual"] = constitutive
        report["gibbs_duhem_residual"] = gibbs_duhem
        report["passed"] = bool(
            report["passed"] and constitutive < CONSTITUTIVE_TOL and gibbs_duhem < CONSTITUTIVE_TOL
        )
    return report


def stability_classify(model: PotentialModel, base) -> dict:
    """Definiteness of the Hessian at each point of a batch via its
    eigenvalues."""
    return _classify(model.jet(base).hess)


def _classify(h: np.ndarray) -> dict:
    """Stability class and definiteness of a Hessian from its eigenvalues;
    plain Python values, one per point."""
    finite = np.isfinite(h).all(axis=(-2, -1))[..., None]  # LAPACK may fail on the others
    eigs = np.where(finite, np.linalg.eigvalsh(np.where(finite[..., None], h, 0.0)), np.nan)
    tol = 1e-9 * _max(np.max(np.abs(eigs), axis=-1), 1e-300)
    marginal = np.any(np.abs(eigs) <= tol[..., None], axis=-1)
    positive = np.all(eigs > tol[..., None], axis=-1)
    negative = np.all(eigs < -tol[..., None], axis=-1)
    cls = np.where(marginal, "marginal", np.where(positive, "stable", "unstable"))
    definite = np.select([marginal, positive, negative],
                         ["degenerate", "positive definite", "negative definite"], "indefinite")
    return {
        "classification": cls.tolist(),
        "definiteness": definite.tolist(),
        "eigenvalues": eigs.tolist(),
        "tolerance": tol.tolist(),
    }


# ----------------------------------------------------------------------
# catalog


def _exponent(r, c_v) -> Fraction:
    """r / c_v, the exponent on the volume, exactly."""
    if c_v == 0:
        raise ValueError("c_v must be nonzero")
    return Fraction(r) / Fraction(c_v)


def van_der_waals(a=1.0, b=1.0, r=1.0, c_v=1.5, positive_exponent=False) -> PotentialModel:
    """Internal energy U(S, V) of a van der Waals gas.  The physically
    standard exponent on (V - b) is negative; positive_exponent switches to
    the positive variant (smooth on the same domain, used for cross-checks).
    """
    exponent = _exponent(r, c_v)
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
        in_domain=lambda x: (x[1] > bf) & (x[1] != 0.0),
    )


def ideal_gas_energy(r=1.0, c_v=1.5) -> PotentialModel:
    """The a = b = 0 limit of the van der Waals energy."""
    exponent = -_exponent(r, c_v)
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
    if qm.ndim != 2 or qm.shape[0] != qm.shape[1] or not np.array_equal(qm, qm.T):
        raise ValueError("Q must be square and symmetric")
    n = qm.shape[0]

    def evaluator(seeds):
        # per point the products of 0.5 * b @ qm @ b and qm @ b
        b = np.stack([s.value for s in seeds], axis=-1)
        value = ((0.5 * b)[..., None, :] @ qm @ b[..., :, None])[..., 0, 0]
        return Jet3(n, value, (qm @ b[..., :, None])[..., 0], qm)

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


def linear(a) -> PotentialModel:
    """phi = sum a_j b_j; the surface sits inside the constitutive
    hypersurface x0 + sum p_l x^l = 0."""
    av = np.asarray(a, dtype=float)
    if av.ndim != 1:
        raise ValueError("a must be a vector")
    n = av.size

    def evaluator(seeds):
        b = np.stack([s.value for s in seeds], axis=-1)
        return Jet3(n, (av @ b[..., :, None])[..., 0], av)

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


_SPEC_KEYS = ("model", "parameters", "partition", "name")


def model_from_spec(d: dict) -> PotentialModel:
    """Build a catalog model from a JSON-style description:
    {model: catalog-id, parameters: {...}, partition?, name?}.
    Nothing is coerced or dropped: a key or parameter the model does not
    take is an error, a parameter is a number (int or finite float, not
    bool) or nested arrays of them, but the bool positive_exponent, a
    partition is an array of ints, which only a quadratic model takes, and
    a name is a string."""
    unknown = [key for key in d if key not in _SPEC_KEYS]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}; the keys are {', '.join(_SPEC_KEYS)}")
    kind, params, partition = d.get("model"), d.get("parameters", {}), d.get("partition", [])
    if kind not in _CATALOG:
        raise ValueError(f"unknown model {kind!r}")
    if type(params) is not dict:
        raise TypeError("parameters must be a JSON object")
    for key, value in params.items():
        if key == "positive_exponent" and type(value) is not bool:
            raise TypeError("positive_exponent must be true or false")
        numbers = [value] if key != "positive_exponent" else []
        for v in numbers:  # nested arrays are opened onto the end
            if type(v) is list:
                numbers.extend(v)
            elif type(v) not in (int, float):
                raise TypeError(f"parameter {key!r} must be a number or an array of numbers")
            elif not math.isfinite(v):
                raise ValueError(f"parameter {key!r} must be finite")
    if "partition" in d and kind != "quadratic":
        raise ValueError(f"model {kind!r} takes no partition")
    if type(partition) is not list or any(type(k) is not int for k in partition):
        raise TypeError("partition must be an array of integers")
    if "name" in d and type(d["name"]) is not str:
        raise TypeError("name must be a string")
    # the parameters are the keyword arguments, so one the model lacks raises TypeError
    if kind == "quadratic":
        model = quadratic(**params, part_i=tuple(partition))
    else:
        model = _CATALOG[kind](**params)
    if "name" in d:
        model.name = d["name"]
    return model


# the per-point fields of analyze, which the potential command prints
_REPORT_KEYS = ("classification", "definiteness", "legendre_residual", "block_agreement",
                "degenerate", "ii_norm")


@_quiet
def analyze(model: PotentialModel, base) -> list[dict]:
    """One report per point of a batch: stability class and definiteness,
    contact-form residual, metric block agreement, the degenerate flag (the
    induced metric is numerically singular or not finite, or a Hessian block
    is exactly singular) and ii_norm = max |d^3 phi|, the largest
    second-fundamental-form coefficient.  The jet is evaluated once per
    batch, and no normal frame is built."""
    im = induced_metric(model, base)
    sp, hess, pullback = im["surface_point"], im["hessian"], im["pullback"]
    if not np.isfinite(hess).all():
        # its eigenvalues would be NaN: no stability class, no definiteness
        raise DomainError("the Hessian of the potential is not finite at the base point")
    scale = np.max(np.abs(pullback), axis=(-2, -1))
    det = np.linalg.det(pullback / scale[..., None, None])
    degenerate = (scale == 0.0) | ~(np.abs(det) > 1e-10) | _singular_blocks(model, hess)
    stab = _classify(hess)
    columns = (
        stab["classification"],
        stab["definiteness"],
        sp["legendre_residual"].tolist(),
        im["block_agreement"].tolist(),
        degenerate.tolist(),
        np.max(np.abs(sp["jet"].third), axis=(-3, -2, -1)).tolist(),
    )
    return [dict(zip(_REPORT_KEYS, row)) for row in zip(*columns)]
