"""Truncated third-order multivariate Taylor jets with exact chain rule, and
a central-finite-difference oracle used to cross-check every derivative.

A jet may carry a leading batch axis: value, gradient, Hessian and third
tensor then have shapes B, B+(n,), B+(n,n) and B+(n,n,n) with B = (N,), and
every operation acts on the N points at once, with the floating-point
operations of one point in the same order as for a single jet (vectorised
Taylor arithmetic; Griewank & Walther, Evaluating Derivatives, 2008,
ch. 13).  A single jet is the case B = ()."""

from __future__ import annotations

import functools
import itertools
from numbers import Rational

import numpy as np


class DomainError(ValueError):
    """An operation left its numeric domain: division by zero, a fractional
    power of a nonpositive base, or a chain-rule factor outside the float
    range."""


@functools.cache
def _authoritative(n: int, order: int) -> np.ndarray:
    """For every entry of an order-`order` tensor over n variables, in C
    order, the flat position of the entry with the same indices sorted."""
    shape = (n,) * order
    return np.array(
        [np.ravel_multi_index(sorted(ix), shape) for ix in np.ndindex(*shape)], dtype=np.intp
    )


def _mirror(a: np.ndarray, order: int) -> np.ndarray:
    """A fresh copy of a in which the entries with sorted indices are
    copied to every permutation of them, so symmetry is exact."""
    n = a.shape[-1]
    lead = a.shape[: a.ndim - order]
    return a.reshape(lead + (n**order,))[..., _authoritative(n, order)].reshape(a.shape)


def _ex(v, k: int) -> np.ndarray:
    """v with k trailing unit axes, to scale derivative arrays point by point."""
    return np.reshape(v, np.shape(v) + (1,) * k)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


def _sym3_grad_hess(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """g_i h_jk symmetrized over the three slots."""
    t = np.einsum("...i,...jk->...ijk", g, h)
    return t + np.swapaxes(t, -3, -2) + np.swapaxes(t, -3, -1)


class Jet3:
    """Value, gradient, Hessian and third-derivative tensor of a scalar
    function of nvars variables, propagated through arithmetic and the
    elementary functions by the chain rule, exactly to third order.

    The Hessian and the third tensor are stored dense; the entries with
    sorted indices are authoritative and mirrored on construction, so both
    are symmetric to the last bit.  The value fixes the batch shape B;
    derivative arrays are broadcast to it.
    """

    __slots__ = ("nvars", "value", "grad", "hess", "third")

    def __init__(self, nvars, value, grad=None, hess=None, third=None):
        n = int(nvars)
        if n < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = n
        self.value = np.array(value, dtype=float)[()]
        shapes = [np.shape(self.value) + (n,) * k for k in (1, 2, 3)]
        try:
            g, h, t = (np.zeros(s) if a is None else np.broadcast_to(np.asarray(a, dtype=float), s)
                       for a, s in zip((grad, hess, third), shapes))
        except ValueError:
            raise ValueError("derivative array shape mismatch") from None
        self.grad, self.hess, self.third = g.copy(), _mirror(h, 2), _mirror(t, 3)

    # ------------------------------------------------------------------

    @staticmethod
    def constant(nvars: int, value) -> "Jet3":
        return Jet3(nvars, value)

    @staticmethod
    def seed(nvars: int, k: int, value) -> "Jet3":
        """The k-th coordinate function at the given value(s)."""
        if not 0 <= k < nvars:
            raise ValueError("seed index out of range")
        g = np.zeros(np.shape(value) + (nvars,))
        g[..., k] = 1.0
        return Jet3(nvars, value, g)

    @staticmethod
    def seeds(values) -> "list[Jet3]":
        """The coordinate functions at a point, or at every row of a batch."""
        vals = np.asarray(values, dtype=float)
        n = vals.shape[-1]
        return [Jet3.seed(n, k, vals[..., k]) for k in range(n)]

    def _coerce(self, other) -> "Jet3":
        if isinstance(other, Jet3):
            if other.nvars != self.nvars:
                raise ValueError("jet dimension mismatch")
            return other
        return Jet3.constant(self.nvars, other)

    # ------------------------------------------------------------------

    def __add__(self, other) -> "Jet3":
        b = self._coerce(other)
        return Jet3(self.nvars, self.value + b.value, self.grad + b.grad,
                    self.hess + b.hess, self.third + b.third)

    __radd__ = __add__

    def __neg__(self) -> "Jet3":
        return Jet3(self.nvars, -self.value, -self.grad, -self.hess, -self.third)

    def __sub__(self, other) -> "Jet3":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Jet3":
        return (-self) + other

    def __mul__(self, other) -> "Jet3":
        b = self._coerce(other)
        a = self
        value = a.value * b.value
        grad = _ex(a.value, 1) * b.grad + _ex(b.value, 1) * a.grad
        hess = (
            _ex(a.value, 2) * b.hess
            + _ex(b.value, 2) * a.hess
            + _outer(a.grad, b.grad)
            + _outer(b.grad, a.grad)
        )
        third = (
            _ex(a.value, 3) * b.third
            + _ex(b.value, 3) * a.third
            + _sym3_grad_hess(a.grad, b.hess)
            + _sym3_grad_hess(b.grad, a.hess)
        )
        return Jet3(a.nvars, value, grad, hess, third)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet3":
        b = self._coerce(other)
        if np.any(b.value == 0.0):
            raise DomainError("division by a jet with zero value")
        return self * _compose(b, *_over_powers(b.value, (1.0, -1.0, 2.0, -6.0)))

    def __rtruediv__(self, other) -> "Jet3":
        return self._coerce(other) / self

    def __pow__(self, exponent) -> "Jet3":
        return power(self, exponent)

    # ------------------------------------------------------------------

    def derivative(self, index):
        """Partial derivative for a multi-index given as a tuple of variable
        positions (length 0 to 3); one value per point of the batch."""
        idx = tuple(index)
        if len(idx) > 3:
            raise ValueError("only derivatives up to order 3 are carried")
        arr = (self.value, self.grad, self.hess, self.third)[len(idx)]
        return np.asarray(arr)[(Ellipsis,) + idx][()]

    def __repr__(self) -> str:
        return f"Jet3(nvars={self.nvars}, value={self.value})"


def _compose(a: Jet3, f0, f1, f2, f3) -> Jet3:
    """Chain rule for a scalar function applied to a jet, given the
    function's derivatives at a.value (one per point of the batch)."""
    g, h = a.grad, a.hess
    grad = _ex(f1, 1) * g
    hess = _ex(f1, 2) * h + _ex(f2, 2) * _outer(g, g)
    third = (
        _ex(f1, 3) * a.third
        + _ex(f2, 3) * _sym3_grad_hess(g, h)
        + _ex(f3, 3) * np.einsum("...i,...j,...k->...ijk", g, g, g)
    )
    return Jet3(a.nvars, f0, grad, hess, third)


def _pow(v, e) -> np.ndarray:
    """v**e point by point with the C library's pow, as Python floats
    compute it (numpy's vectorised power can differ in the last bit).  A
    finite v whose power overflows is a DomainError, where Python raises."""
    try:
        out = [x**e for x in np.ravel(v).tolist()]
    except OverflowError:
        raise DomainError("a power of the jet value leaves the float range") from None
    return np.reshape(out, np.shape(v))


def _over_powers(v, coefs) -> list:
    """coef_k / v**k for k = 1, 2, ...: the chain-rule factors of 1/v.  A
    power that underflows to zero is a DomainError, where Python's
    float division raises."""
    out = []
    for k, c in enumerate(coefs, start=1):
        vk = v if k == 1 else _pow(v, k)
        if np.any(vk == 0.0):
            raise DomainError("a power of the jet value underflows to zero")
        out.append(c / vk)
    return out


def exp(a: Jet3) -> Jet3:
    e = np.exp(a.value)
    return _compose(a, e, e, e, e)


def power(a: Jet3, exponent) -> Jet3:
    """a**exponent; integer exponents go through repeated multiplication and
    are exact on polynomial jets, fractional exponents need a.value > 0."""
    e = exponent
    if isinstance(e, Rational) and e.denominator == 1:
        e = int(e)
    elif isinstance(e, float) and e.is_integer():
        e = int(e)
    if isinstance(e, (int, np.integer)):
        k = int(e)
        if k < 0:
            if np.any(a.value == 0.0):
                raise DomainError("negative power of a jet with zero value")
            return Jet3.constant(a.nvars, 1.0) / power(a, -k)
        out = Jet3.constant(a.nvars, 1.0)
        base = a
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out
    ef = float(e)
    v = a.value
    if np.any(v <= 0.0):
        raise DomainError("fractional power of a nonpositive base")
    return _compose(
        a,
        _pow(v, ef),
        ef * _pow(v, ef - 1.0),
        ef * (ef - 1.0) * _pow(v, ef - 2.0),
        ef * (ef - 1.0) * (ef - 2.0) * _pow(v, ef - 3.0),
    )


# ----------------------------------------------------------------------
# finite-difference oracle

# safety multipliers on the machine-epsilon step rule, per derivative order;
# chosen so rounding noise stays well below the documented tolerances while
# one Richardson refinement keeps truncation negligible
_STEP_FACTOR = {1: 1.0, 2: 3.0, 3: 2.0}


def _central(g, axis: int, h: float):
    def out(x):
        xp = x.copy()
        xp[axis] += h
        xm = x.copy()
        xm[axis] -= h
        return (g(xp) - g(xm)) / (2.0 * h)

    return out


def fd_oracle(f, point, index) -> tuple[float, float]:
    """Central-difference estimate of the partial derivative of f at point
    for a multi-index given as a tuple of variable positions (order 0 to 3).

    Step per axis: factor * max(|x_i|, 1) * eps**(1/(order+2)).  The estimate
    is refined once by Richardson extrapolation from steps (h, 2h); the
    second return value is the difference of the two raw estimates, an error
    indicator.  Non-finite samples raise ArithmeticError.
    """
    pt = np.asarray(point, dtype=float)
    idx = tuple(index)
    order = len(idx)

    def base(x):
        v = float(f(x))
        if not np.isfinite(v):
            raise ArithmeticError("non-finite sample in finite differences")
        return v

    if order == 0:
        return base(pt), 0.0
    if order > 3:
        raise ValueError("only orders up to 3 are supported")
    eps = float(np.finfo(float).eps)
    scale = _STEP_FACTOR[order] * eps ** (1.0 / (order + 2))

    def estimate(mult: float) -> float:
        g = base
        for ax in idx:
            h = mult * scale * max(abs(float(pt[ax])), 1.0)
            g = _central(g, ax, h)
        return g(pt)

    fine = estimate(1.0)
    coarse = estimate(2.0)
    refined = (4.0 * fine - coarse) / 3.0
    return refined, abs(fine - coarse)


# the oracle's own error floor per order: central differences with the step
# law above bottom out near eps**(2/5) for third derivatives, so orders 0-2
# can be held to 1e-8 but order 3 only to 1e-6 of the tensor scale
_COMPARE_REL = {0: 1e-8, 1: 1e-8, 2: 1e-8, 3: 1e-6}


def jet_fd_compare(f_jet, f_plain, point, rel=None, floor: float = 1e-10) -> dict:
    """Compare every partial of a jet evaluation against the oracle.

    f_jet maps a list of seed jets to a Jet3; f_plain maps a float array to a
    float.  Each derivative order is compared against the oracle with a
    tolerance relative to the largest oracle entry of that order, with an
    absolute floor.  rel maps each order to its relative tolerance.
    """
    pt = np.asarray(point, dtype=float)
    n = pt.size
    jet = f_jet(Jet3.seeds(pt))
    report = {"point": [float(x) for x in pt], "orders": {}, "passed": True}
    rel = _COMPARE_REL if rel is None else rel
    for order in (0, 1, 2, 3):
        indices = _sorted_indices(n, order)
        fd_vals = {}
        jet_vals = {}
        for ix in indices:
            est, _ = fd_oracle(f_plain, pt, ix)
            fd_vals[ix] = est
            jet_vals[ix] = jet.derivative(ix)
        scale = max((abs(v) for v in fd_vals.values()), default=0.0)
        tol = rel[order] * scale + floor
        worst = max((abs(fd_vals[ix] - jet_vals[ix]) for ix in indices), default=0.0)
        ok = bool(worst <= tol)
        report["orders"][order] = {"max_abs_diff": worst, "tolerance": tol, "passed": ok}
        report["passed"] = report["passed"] and ok
    return report


def _sorted_indices(n: int, order: int) -> list[tuple]:
    return list(itertools.combinations_with_replacement(range(n), order))
