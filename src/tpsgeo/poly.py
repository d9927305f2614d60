"""Exact multivariate Laurent polynomials.

Everything downstream (metrics, connections, curvature, Killing solvers)
runs on the two classes defined here.  A polynomial keeps integer numerators
over one positive common denominator, and each exponent tuple is packed into
one integer key: the exponent of variable i sits in a FIELD_BITS-wide field
with a bias, the first variable in the highest field, so integer order of
keys is the lexicographic order of the tuples.  A product adds keys, a
partial derivative subtracts one unit from a key.  Negative exponents are
allowed only on chart variables explicitly flagged invertible
(momentum-type coordinates), which keeps degree bookkeeping honest and
catches sign errors where an x-variable would end up in a denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

FIELD_BITS = 16
_HALF = 1 << (FIELD_BITS - 1)  # the bias of every field, and its sign bit
_MASK = (1 << FIELD_BITS) - 1
# the largest |exponent| a field holds; beyond it OverflowError is raised
EXPONENT_LIMIT = _HALF - 1


# every chart ever built, by (names, invertible): there is one Chart per
# key, so chart equality is identity
_CHARTS: dict[tuple[tuple[str, ...], frozenset], "Chart"] = {}


class Chart:
    """An ordered tuple of coordinate names, some flagged invertible.

    Charts are interned: Chart(names, invertible) returns the one chart with
    those names and that invertible set, validated when it is first built,
    so two charts are equal exactly when they are the same object.  A chart
    is never mutated.

    It also holds the packing of exponent tuples into integer keys:
    ``shifts[i]`` is the bit offset of variable i, ``bias`` the key of the
    constant monomial (its fields are exactly the sign bits: a field is at
    least the bias when its exponent is nonnegative)."""

    __slots__ = ("names", "invertible", "dim", "shifts", "bias", "_fixed", "_index")

    def __new__(cls, names: Sequence[str], invertible: Iterable[str] = ()):
        key = (tuple(names), frozenset(invertible))
        chart = _CHARTS.get(key)
        if chart is not None:
            return chart
        names, invertible = key
        if len(set(names)) != len(names):
            raise ValueError("duplicate coordinate names")
        unknown = invertible - set(names)
        if unknown:
            raise ValueError(f"invertible names not in chart: {sorted(unknown)}")
        chart = object.__new__(cls)
        chart.names = names
        chart.invertible = invertible
        chart._index = {nm: i for i, nm in enumerate(names)}
        chart.dim = len(names)
        chart.shifts = tuple(FIELD_BITS * (chart.dim - 1 - i) for i in range(chart.dim))
        chart.bias = sum(_HALF << s for s in chart.shifts)
        # sign bits of the fields whose exponent must stay nonnegative
        chart._fixed = sum(
            _HALF << s for s, nm in zip(chart.shifts, names) if nm not in invertible
        )
        # another thread may have registered the same key meanwhile
        return _CHARTS.setdefault(key, chart)

    def __reduce__(self):
        # copies and unpickled charts are the interned chart
        return Chart, (self.names, self.invertible)

    def index(self, name: str) -> int:
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:
        inv = f", invertible={sorted(self.invertible)}" if self.invertible else ""
        return f"Chart({list(self.names)}{inv})"

    def extend(self, names: Sequence[str], invertible: Iterable[str] = ()) -> "Chart":
        """The chart with extra coordinates appended (used for fresh symbols)."""
        return Chart(self.names + tuple(names), self.invertible.union(invertible))

    def pack(self, exps: Sequence[int]) -> int:
        """The key of an exponent tuple; OverflowError past EXPONENT_LIMIT."""
        key = 0
        for e in exps:
            if not -EXPONENT_LIMIT <= e <= EXPONENT_LIMIT:
                raise OverflowError(f"exponent {e} outside +-{EXPONENT_LIMIT}")
            key = (key << FIELD_BITS) | (e + _HALF)
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        return tuple(((key >> s) & _MASK) - _HALF for s in self.shifts)

    def legal(self, key: int) -> bool:
        """No negative exponent on a variable that is not invertible."""
        return key & self._fixed == self._fixed

    def point_values(self, point: Mapping[str, Scalar]) -> list[tuple[int, int]]:
        """The point's value of each chart name, in chart order, as
        (numerator, denominator); ValueError if a name has no value."""
        vals = []
        for nm in self.names:
            if nm not in point:
                raise ValueError(f"missing value for {nm}")
            v = _as_fraction(point[nm])
            vals.append((v.numerator, v.denominator))
        return vals


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not an exact scalar: {c!r}")


def _ranges(chart: Chart, keys: Iterable[int]) -> tuple[list[int], list[int]]:
    """Per-variable minimum and maximum exponent over the keys (0 if none)."""
    columns = list(zip(*(chart.unpack(k) for k in keys))) or [(0,)] * chart.dim
    return [min(c) for c in columns], [max(c) for c in columns]


def _checked(lo: Sequence[int], hi: Sequence[int]) -> int:
    """Largest |exponent| within the per-variable ranges; OverflowError if
    some exponent would leave its field."""
    bound = max(-min(lo), max(hi), 0)
    if bound > EXPONENT_LIMIT:
        raise OverflowError(f"exponent {bound} outside +-{EXPONENT_LIMIT}")
    return bound


def _make(chart: Chart, coeffs: dict, den: int, bound: int) -> "LaurentPoly":
    p = object.__new__(LaurentPoly)
    p.chart = chart
    p.coeffs = coeffs
    p.den = den
    p.bound = bound
    return p


def _normal(chart: Chart, coeffs: dict, den: int, bound: int) -> "LaurentPoly":
    """Divide out gcd(den, *numerators)."""
    if den != 1:
        g = gcd(den, *coeffs.values())
        if g != 1:
            den //= g
            coeffs = {k: v // g for k, v in coeffs.items()}
    return _make(chart, coeffs, den, bound if coeffs else 0)


class LaurentPoly:
    """Exact Laurent polynomial over a chart.

    coeffs: dict mapping packed exponent key -> nonzero int numerator;
    den: the positive common denominator, with gcd(den, *numerators) == 1,
    so that equal polynomials have equal fields; bound: an upper bound on
    every |exponent|, at most EXPONENT_LIMIT.  The zero polynomial has an
    empty dict and den 1.  Instances are treated as immutable.
    """

    __slots__ = ("chart", "coeffs", "den", "bound")

    def __init__(self, chart: Chart, terms: Mapping[tuple, Scalar] | None = None):
        acc: dict[int, Fraction] = {}
        bound = 0
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
                key = chart.pack(exps)
                bound = max(bound, max(map(abs, exps), default=0))
                s = acc.get(key, 0) + coef
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        # over the least common denominator the numerators share no factor
        # with it
        den = lcm(*(c.denominator for c in acc.values())) if acc else 1
        self.chart = chart
        self.coeffs = {k: c.numerator * (den // c.denominator) for k, c in acc.items()}
        self.den = den
        self.bound = bound if acc else 0

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def constant(chart: Chart, c: Scalar) -> "LaurentPoly":
        c = _as_fraction(c)
        if c == 0:
            return _make(chart, {}, 1, 0)
        return _make(chart, {chart.bias: c.numerator}, c.denominator, 0)

    @staticmethod
    def variable(chart: Chart, name: str, power: int = 1) -> "LaurentPoly":
        """name**power, its key packed directly; the constructor's
        ValueError and OverflowError apply."""
        shift = chart.shifts[chart.index(name)]
        if power < 0 and name not in chart.invertible:
            raise ValueError(f"negative exponent on non-invertible {name}")
        if not -EXPONENT_LIMIT <= power <= EXPONENT_LIMIT:
            raise OverflowError(f"exponent {power} outside +-{EXPONENT_LIMIT}")
        return _make(chart, {chart.bias + (power << shift): 1}, 1, abs(power))

    @staticmethod
    def zero(chart: Chart) -> "LaurentPoly":
        return _make(chart, {}, 1, 0)

    @staticmethod
    def one(chart: Chart) -> "LaurentPoly":
        return _make(chart, {chart.bias: 1}, 1, 0)

    # ------------------------------------------------------------------
    # predicates and views

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """Read-only view: exponent tuple -> nonzero Fraction."""
        unpack, den = self.chart.unpack, self.den
        return MappingProxyType({unpack(k): Fraction(v, den) for k, v in self.coeffs.items()})

    def packed_items(self) -> Iterable[tuple[int, Scalar]]:
        """(packed key, exact coefficient) pairs; the coefficient is an int
        when the denominator is 1 and a Fraction otherwise."""
        den = self.den
        if den == 1:
            return self.coeffs.items()
        return ((k, Fraction(v, den)) for k, v in self.coeffs.items())

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        t = self.coeffs
        return not t or (len(t) == 1 and self.chart.bias in t)

    def constant_value(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(self.coeffs[self.chart.bias], self.den)

    # ------------------------------------------------------------------
    # chart alignment

    def _check_chart(self, other: "LaurentPoly") -> None:
        if self.chart is not other.chart:
            raise ValueError(f"chart mismatch: {self.chart} vs {other.chart}")

    def with_chart(self, chart: Chart) -> "LaurentPoly":
        """Re-express over a chart containing all variables actually used:
        each exponent field moves to its variable's place in the target
        key.  ValueError when a used variable is missing from the target,
        or would carry a negative exponent there without being invertible."""
        src = self.chart
        if chart is src:
            return self
        shifts, index = chart.shifts, chart._index
        moves = [
            (s, nm, shifts[index[nm]] if nm in index else None)
            for s, nm in zip(src.shifts, src.names)
        ]
        bias = chart.bias
        coeffs = {}
        for key, v in self.coeffs.items():
            new = bias
            for s, nm, t in moves:
                e = ((key >> s) & _MASK) - _HALF
                if e:
                    if t is None:
                        raise ValueError(f"variable {nm} not in target chart")
                    new += e << t
            coeffs[new] = v
        for key in coeffs:
            if not chart.legal(key):
                for e, nm in zip(chart.unpack(key), chart.names):
                    if e < 0 and nm not in chart.invertible:
                        raise ValueError(f"negative exponent on non-invertible {nm}")
        return _make(chart, coeffs, self.den, self.bound)

    # ------------------------------------------------------------------
    # arithmetic

    def _constant_like(self, c) -> "LaurentPoly | None":
        if isinstance(c, (int, Fraction)):
            return LaurentPoly.constant(self.chart, c)
        return None

    def _combine(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other, sign = +-1."""
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other if sign > 0 else -other
        da, db = self.den, other.den
        if da == db:
            t = dict(a)
            fb = sign
        else:
            g = gcd(da, db)
            fa, fb = db // g, sign * (da // g)
            t = {k: v * fa for k, v in a.items()}
            da *= fa
        get = t.get
        for k, v in b.items():
            s = get(k, 0) + v * fb
            if s:
                t[k] = s
            else:
                del t[k]
        return _normal(self.chart, t, da, max(self.bound, other.bound))

    def __add__(self, other):
        if isinstance(other, LaurentPoly):
            self._check_chart(other)
        else:
            other = self._constant_like(other)
            if other is None:
                return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.chart, {k: -v for k, v in self.coeffs.items()}, self.den, self.bound)

    def __sub__(self, other):
        if isinstance(other, LaurentPoly):
            self._check_chart(other)
        else:
            other = self._constant_like(other)
            if other is None:
                return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = self._constant_like(other)
        if other is None:
            return NotImplemented
        return other._combine(self, -1)

    def _scale(self, c) -> "LaurentPoly":
        if isinstance(c, int):
            num, den = c, 1
        elif isinstance(c, Fraction):
            num, den = c.numerator, c.denominator
        else:
            return NotImplemented
        if not num or not self.coeffs:
            return _make(self.chart, {}, 1, 0)
        t = {k: v * num for k, v in self.coeffs.items()}
        return _normal(self.chart, t, self.den * den, self.bound)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self._scale(other)
        self._check_chart(other)
        chart = self.chart
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _make(chart, {}, 1, 0)
        bound = self.bound + other.bound
        if bound > EXPONENT_LIMIT:
            (lo_a, hi_a), (lo_b, hi_b) = _ranges(chart, a), _ranges(chart, b)
            bound = _checked(
                [x + y for x, y in zip(lo_a, lo_b)], [x + y for x, y in zip(hi_a, hi_b)]
            )
        bias = chart.bias
        t: dict[int, int] = {}
        get = t.get
        for k1, c1 in a.items():
            k1 -= bias
            for k2, c2 in b.items():
                k = k1 + k2
                s = get(k, 0) + c1 * c2
                if s:
                    t[k] = s
                else:
                    del t[k]
        # no validity re-check needed: sums of legal exponents can only go
        # negative on invertible axes
        return _normal(chart, t, self.den * other.den, bound)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            inv = self.inverse()
            return inv ** (-k)
        if k * self.bound > EXPONENT_LIMIT:
            lo, hi = _ranges(self.chart, self.coeffs)
            _checked([k * e for e in lo], [k * e for e in hi])
        result = LaurentPoly.one(self.chart)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def inverse(self) -> "LaurentPoly":
        """Inverse of a unit monomial (the only Laurent-invertible elements)."""
        if len(self.coeffs) != 1:
            raise ValueError("only monomials are invertible in the Laurent ring")
        chart = self.chart
        ((key, num),) = self.coeffs.items()
        inv_key = 2 * chart.bias - key
        if not chart.legal(inv_key):
            for e, nm in zip(chart.unpack(inv_key), chart.names):
                if e < 0 and nm not in chart.invertible:
                    raise ValueError(f"inverse needs negative power of non-invertible {nm}")
        # 1 / (num / den) = den / num with the sign moved up
        return _make(chart, {inv_key: self.den if num > 0 else -self.den}, abs(num), self.bound)

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
        if isinstance(other, LaurentPoly):
            return (
                self.chart is other.chart
                and self.den == other.den
                and self.coeffs == other.coeffs
            )
        if isinstance(other, (int, Fraction)):
            if not self.is_constant():
                return False
            return self.constant_value() == other
        return NotImplemented

    def __hash__(self) -> int:
        # a constant hashes as its value, as == says it equals that number
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.chart, frozenset(self.coeffs.items()), self.den))

    # ------------------------------------------------------------------
    # calculus and evaluation

    def partial(self, name: str) -> "LaurentPoly":
        chart = self.chart
        i = chart.index(name)
        shift = chart.shifts[i]
        unit = 1 << shift
        bound = self.bound
        if name in chart.invertible and bound == EXPONENT_LIMIT:
            lo, _hi = _ranges(chart, self.coeffs)
            if lo[i] - 1 < -EXPONENT_LIMIT:
                raise OverflowError(f"exponent {lo[i] - 1} outside +-{EXPONENT_LIMIT}")
        elif name in chart.invertible:
            bound += 1
        t: dict[int, int] = {}
        for k, v in self.coeffs.items():
            e = ((k >> shift) & _MASK) - _HALF
            if e:
                t[k - unit] = v * e
        return _normal(chart, t, self.den, bound)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        return self.evaluate_values(self.chart.point_values(point))

    def evaluate_values(self, vals: Sequence[tuple[int, int]]) -> Fraction:
        """The value at a point given as the chart's point_values."""
        # in integers: the sum num/den over the least common denominator
        shifts = self.chart.shifts
        total, den = 0, 1
        for key, num in self.coeffs.items():
            d = 1
            for (a, b), s in zip(vals, shifts):
                e = ((key >> s) & _MASK) - _HALF
                if e > 0:
                    num *= a**e
                    d *= b**e
                elif e < 0:
                    if a == 0:
                        raise ZeroDivisionError("negative power at zero value")
                    num *= b**-e
                    d *= a**-e
            if d == den:
                total += num
            else:
                common = den // gcd(den, d) * d
                total = total * (common // den) + num * (common // d)
                den = common
        return Fraction(total, den * self.den)

    def substitute(self, mapping: Mapping[str, "LaurentPoly"], chart: Chart) -> "LaurentPoly":
        """Substitute polynomials for variables; unmapped variables must exist
        in the target chart.  A variable occurring with negative exponents may
        only be sent to an invertible monomial."""
        images: list[LaurentPoly] = []
        for nm in self.chart.names:
            if nm in mapping:
                img = mapping[nm]
                if img.chart is not chart:
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
        if not self.coeffs:
            return "0"
        parts = []
        for key in sorted(self.coeffs, reverse=True):
            coef = Fraction(self.coeffs[key], self.den)
            factors = []
            for nm, e in zip(self.chart.names, self.chart.unpack(key)):
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


def monomial_floor(chart: Chart, polys: Iterable[LaurentPoly]) -> tuple[int, ...] | None:
    """Per-variable minimum of 0 and every exponent of the polynomials, or
    None when no exponent is negative."""
    bias = chart.bias
    negative = [k for p in polys for k in p.coeffs if k & bias != bias]
    if not negative:
        return None
    lo, _hi = _ranges(chart, negative)
    return tuple(min(e, 0) for e in lo)


def divexact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """Exact division num/den, or None when den does not divide num.

    Works on Laurent polynomials by shifting both arguments into the plain
    polynomial cone first, then doing lex leading-term elimination.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero(num.chart)
    if num.chart is not den.chart:
        raise ValueError("chart mismatch in divexact")
    chart = num.chart
    if len(den.coeffs) == 1:
        ((d_key, d_num),) = den.coeffs.items()
        bound = num.bound + den.bound
        if bound > EXPONENT_LIMIT:
            lo, hi = _ranges(chart, num.coeffs)
            d_exps = chart.unpack(d_key)
            bound = _checked([a - b for a, b in zip(lo, d_exps)], [a - b for a, b in zip(hi, d_exps)])
        # (v / num.den) / (d_num / den.den) = v * den.den / (num.den * d_num)
        off = d_key - chart.bias
        scale = den.den if d_num > 0 else -den.den
        legal = chart.legal
        terms: dict[int, int] = {}
        for k, v in num.coeffs.items():
            k -= off
            if not legal(k):
                return None
            terms[k] = v * scale
        return _normal(chart, terms, num.den * abs(d_num), bound)

    def shift(p: LaurentPoly) -> tuple[LaurentPoly, list[int]]:
        # true per-axis minimum: also strips common positive monomial factors,
        # so Laurent quotients (negative powers on invertible axes) are found
        lo, hi = _ranges(chart, p.coeffs)
        off = sum(e << s for e, s in zip(lo, chart.shifts))
        bound = _checked([0] * chart.dim, [b - a for a, b in zip(lo, hi)])
        return _make(chart, {k - off: v for k, v in p.coeffs.items()}, p.den, bound), lo

    # make both plain polynomials; the quotient is then Laurent-corrected
    n, num_shift = shift(num)
    d, den_shift = shift(den)

    bias, unpack = chart.bias, chart.unpack
    d_lead = max(d.coeffs)
    d_coef = Fraction(d.coeffs[d_lead], d.den)
    quotient: dict[tuple, Fraction] = {}
    rem = n
    while rem.coeffs:
        r_lead = max(rem.coeffs)
        q_key = r_lead - d_lead + bias
        if q_key & bias != bias:  # a negative exponent
            return None
        q_coef = Fraction(rem.coeffs[r_lead], rem.den) / d_coef
        q_exps = unpack(q_key)
        quotient[q_exps] = q_coef
        q = _make(chart, {q_key: q_coef.numerator}, q_coef.denominator, max(q_exps))
        rem = rem - q * d
        # progress check: leading term must strictly drop
        if rem.coeffs and max(rem.coeffs) >= r_lead:
            return None
    correction = tuple(b - a for a, b in zip(num_shift, den_shift))
    try:
        return LaurentPoly(
            chart,
            {tuple(e - c for e, c in zip(exps, correction)): k for exps, k in quotient.items()},
        )
    except ValueError:
        return None
