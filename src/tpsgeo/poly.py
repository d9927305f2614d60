"""Exact multivariate Laurent polynomials.

Everything downstream (metrics, connections, curvature, Killing solvers)
runs on the two classes defined here.  Coefficients are `fractions.Fraction`;
terms are stored densely by exponent tuple.  Negative exponents are allowed
only on chart variables explicitly flagged invertible (momentum-type
coordinates), which keeps degree bookkeeping honest and catches sign errors
where an x-variable would end up in a denominator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class Chart:
    """An ordered tuple of coordinate names, some flagged invertible."""

    __slots__ = ("names", "invertible", "_index")

    def __init__(self, names: Sequence[str], invertible: Iterable[str] = ()):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate coordinate names")
        self.invertible = frozenset(invertible)
        unknown = self.invertible - set(self.names)
        if unknown:
            raise ValueError(f"invertible names not in chart: {sorted(unknown)}")
        self._index = {nm: i for i, nm in enumerate(self.names)}

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Chart)
            and self.names == other.names
            and self.invertible == other.invertible
        )

    def __hash__(self) -> int:
        return hash((self.names, self.invertible))

    def __repr__(self) -> str:
        inv = f", invertible={sorted(self.invertible)}" if self.invertible else ""
        return f"Chart({list(self.names)}{inv})"

    def extend(self, names: Sequence[str], invertible: Iterable[str] = ()) -> "Chart":
        """New chart with extra coordinates appended (used for fresh symbols)."""
        return Chart(self.names + tuple(names), set(self.invertible) | set(invertible))


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not an exact scalar: {c!r}")


class LaurentPoly:
    """Exact Laurent polynomial over a chart.

    terms: dict mapping exponent tuple -> nonzero Fraction.  The zero
    polynomial has an empty dict.  Instances are treated as immutable.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Mapping[tuple, Scalar] | None = None):
        self.chart = chart
        clean: dict[tuple, Fraction] = {}
        if terms:
            for exps, coef in terms.items():
                coef = _as_fraction(coef)
                if coef == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != chart.dim:
                    raise ValueError("exponent tuple length != chart dimension")
                for e, nm in zip(exps, chart.names):
                    if e < 0 and nm not in chart.invertible:
                        raise ValueError(f"negative exponent on non-invertible {nm}")
                clean[exps] = clean.get(exps, Fraction(0)) + coef
                if clean[exps] == 0:
                    del clean[exps]
        self.terms = clean

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def constant(chart: Chart, c: Scalar) -> "LaurentPoly":
        c = _as_fraction(c)
        if c == 0:
            return LaurentPoly(chart)
        return LaurentPoly(chart, {(0,) * chart.dim: c})

    @staticmethod
    def variable(chart: Chart, name: str, power: int = 1) -> "LaurentPoly":
        exps = [0] * chart.dim
        exps[chart.index(name)] = power
        return LaurentPoly(chart, {tuple(exps): 1})

    @staticmethod
    def zero(chart: Chart) -> "LaurentPoly":
        return LaurentPoly(chart)

    @staticmethod
    def one(chart: Chart) -> "LaurentPoly":
        return LaurentPoly.constant(chart, 1)

    # ------------------------------------------------------------------
    # predicates and views

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (
            len(self.terms) == 1 and next(iter(self.terms)) == (0,) * self.chart.dim
        )

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def total_degree(self) -> int:
        """Max over terms of the sum of exponents; 0 for the zero poly."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    # ------------------------------------------------------------------
    # chart alignment

    def _check_chart(self, other: "LaurentPoly") -> None:
        if self.chart != other.chart:
            raise ValueError(f"chart mismatch: {self.chart} vs {other.chart}")

    def with_chart(self, chart: Chart) -> "LaurentPoly":
        """Re-express over a chart containing all variables actually used."""
        if chart == self.chart:
            return self
        pos = []
        for i, nm in enumerate(self.chart.names):
            if nm in chart:
                pos.append(chart.index(nm))
            else:
                pos.append(-1)
        terms: dict[tuple, Fraction] = {}
        for exps, coef in self.terms.items():
            new = [0] * chart.dim
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if pos[i] < 0:
                    raise ValueError(f"variable {self.chart.names[i]} not in target chart")
                new[pos[i]] = e
            terms[tuple(new)] = coef
        return LaurentPoly(chart, terms)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            self._check_chart(other)
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(self.chart, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coef in other.terms.items():
            s = terms.get(exps, Fraction(0)) + coef
            if s == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = s
        out = LaurentPoly.__new__(LaurentPoly)
        out.chart = self.chart
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.chart = self.chart
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return LaurentPoly.zero(self.chart)
        terms: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        # no validity re-check needed: sums of legal exponents can only go
        # negative on invertible axes
        out = LaurentPoly.__new__(LaurentPoly)
        out.chart = self.chart
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            inv = self.inverse()
            return inv ** (-k)
        result = LaurentPoly.one(self.chart)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "LaurentPoly":
        """Inverse of a unit monomial (the only Laurent-invertible elements)."""
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible in the Laurent ring")
        (exps, coef), = self.terms.items()
        inv_exps = tuple(-e for e in exps)
        for e, nm in zip(inv_exps, self.chart.names):
            if e < 0 and nm not in self.chart.invertible:
                raise ValueError(f"inverse needs negative power of non-invertible {nm}")
        return LaurentPoly(self.chart, {inv_exps: Fraction(1) / coef})

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * (Fraction(1) / c)
        if isinstance(other, LaurentPoly):
            self._check_chart(other)
            q = divexact(self, other)
            if q is None:
                raise ArithmeticError("the divisor does not divide the polynomial")
            return q
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.chart, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.chart, frozenset(self.terms.items())))

    # ------------------------------------------------------------------
    # calculus and evaluation

    def partial(self, name: str) -> "LaurentPoly":
        i = self.chart.index(name)
        terms: dict[tuple, Fraction] = {}
        for exps, coef in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = list(exps)
            new[i] = e - 1
            key = tuple(new)
            s = terms.get(key, Fraction(0)) + coef * e
            if s == 0:
                terms.pop(key, None)
            else:
                terms[key] = s
        out = LaurentPoly.__new__(LaurentPoly)
        out.chart = self.chart
        out.terms = terms
        return out

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        vals = []
        for nm in self.chart.names:
            if nm not in point:
                raise ValueError(f"missing value for {nm}")
            vals.append(_as_fraction(point[nm]))
        total = Fraction(0)
        for exps, coef in self.terms.items():
            term = coef
            for v, e in zip(vals, exps):
                if e == 0:
                    continue
                if v == 0 and e < 0:
                    raise ZeroDivisionError("negative power at zero value")
                term *= v ** e
            total += term
        return total

    def substitute(self, mapping: Mapping[str, "LaurentPoly"], chart: Chart) -> "LaurentPoly":
        """Substitute polynomials for variables; unmapped variables must exist
        in the target chart.  A variable occurring with negative exponents may
        only be sent to an invertible monomial."""
        images: list[LaurentPoly] = []
        for nm in self.chart.names:
            if nm in mapping:
                img = mapping[nm]
                if img.chart != chart:
                    img = img.with_chart(chart)
            else:
                img = LaurentPoly.variable(chart, nm)
            images.append(img)
        result = LaurentPoly.zero(chart)
        # cache powers per variable
        pow_cache: list[dict[int, LaurentPoly]] = [dict() for _ in images]
        for exps, coef in self.terms.items():
            term = LaurentPoly.constant(chart, coef)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                cache = pow_cache[i]
                if e not in cache:
                    cache[e] = images[i] ** e
                term = term * cache[e]
            result = result + term
        return result

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            coef = self.terms[exps]
            factors = []
            for nm, e in zip(self.chart.names, exps):
                if e == 0:
                    continue
                factors.append(nm if e == 1 else f"{nm}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(body)
            elif coef == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coef}*{body}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


def divexact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """Exact division num/den, or None when den does not divide num.

    Works on Laurent polynomials by shifting both arguments into the plain
    polynomial cone first, then doing lex leading-term elimination.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero(num.chart)
    if num.chart != den.chart:
        raise ValueError("chart mismatch in divexact")
    chart = num.chart
    if den.is_monomial():
        (d_exps, d_coef), = den.terms.items()
        terms: dict[tuple, Fraction] = {}
        for exps, coef in num.terms.items():
            new = tuple(a - b for a, b in zip(exps, d_exps))
            if any(
                e < 0 and nm not in chart.invertible for e, nm in zip(new, chart.names)
            ):
                return None
            terms[new] = coef / d_coef
        return LaurentPoly(chart, terms)

    def min_exps(p: LaurentPoly) -> tuple:
        # true per-axis minimum: also strips common positive monomial factors,
        # so Laurent quotients (negative powers on invertible axes) are found
        mins = None
        for exps in p.terms:
            if mins is None:
                mins = list(exps)
            else:
                for i, e in enumerate(exps):
                    if e < mins[i]:
                        mins[i] = e
        return tuple(mins)

    def shift(p: LaurentPoly, by: tuple) -> LaurentPoly:
        return LaurentPoly(
            chart, {tuple(e - b for e, b in zip(exps, by)): c for exps, c in p.terms.items()}
        )

    # make both plain polynomials; the quotient is then Laurent-corrected
    num_shift = min_exps(num)
    den_shift = min_exps(den)
    n = shift(num, num_shift)
    d = shift(den, den_shift)

    d_lead, d_coef = max(d.terms), d.terms[max(d.terms)]
    quotient: dict[tuple, Fraction] = {}
    rem = n
    while not rem.is_zero():
        r_lead = max(rem.terms)
        q_exps = tuple(a - b for a, b in zip(r_lead, d_lead))
        if any(e < 0 for e in q_exps):
            return None
        q_coef = rem.terms[r_lead] / d_coef
        quotient[q_exps] = q_coef
        rem = rem - LaurentPoly(chart, {q_exps: q_coef}) * d
        # progress check: leading term must strictly drop
        if not rem.is_zero() and max(rem.terms) >= r_lead:
            return None
    correction = tuple(b - a for a, b in zip(num_shift, den_shift))
    try:
        return LaurentPoly(
            chart,
            {tuple(e - c for e, c in zip(exps, correction)): k for exps, k in quotient.items()},
        )
    except ValueError:
        return None
