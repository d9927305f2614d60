"""Exact polynomial layer: frozen values and ring axioms."""

import copy
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpsgeo import poly
from tpsgeo.poly import EXPONENT_LIMIT, Chart, LaurentPoly, divexact

CH = Chart(["x0", "p1", "x1"], invertible=["p1"])


def var(name, power=1):
    return LaurentPoly.variable(CH, name, power)


class TestArithmetic:
    def test_difference_of_squares(self):
        p1, x1 = var("p1"), var("x1")
        assert (p1 + x1) * (p1 - x1) == p1 * p1 - x1 * x1

    def test_invertible_cancellation(self):
        p1 = var("p1")
        assert p1 * var("p1", -1) == LaurentPoly.one(CH)
        assert p1 * p1.inverse() == 1

    def test_additive_identity(self):
        p1x1 = var("p1") * var("x1")
        assert p1x1 + LaurentPoly.zero(CH) == p1x1
        assert p1x1 + 0 == p1x1

    def test_negative_exponent_rejected_on_x(self):
        with pytest.raises(ValueError):
            LaurentPoly.variable(CH, "x1", -1)
        with pytest.raises(ValueError):
            var("x1").inverse()

    def test_scalar_mixing(self):
        p1 = var("p1")
        assert 2 * p1 - p1 == p1
        assert (p1 + Fraction(1, 2)) - p1 == Fraction(1, 2)

    def test_pow(self):
        p1 = var("p1")
        assert p1 ** 3 == p1 * p1 * p1
        assert p1 ** -2 == var("p1", -2)
        assert (p1 + 1) ** 0 == 1


class TestCalculus:
    def test_partial_product_rule_pattern(self):
        # d(p_i p_j)/dp_k at k=i!=j leaves p_j
        ch = Chart(["p1", "p2"], invertible=["p1", "p2"])
        p1 = LaurentPoly.variable(ch, "p1")
        p2 = LaurentPoly.variable(ch, "p2")
        assert (p1 * p2).partial("p1") == p2

    def test_partial_constant(self):
        assert LaurentPoly.constant(CH, 7).partial("x1").is_zero()

    def test_partial_laurent_power_rule(self):
        assert var("p1", -1).partial("p1") == -var("p1", -2)

    def test_mixed_partials_commute(self):
        f = (var("p1") + var("x1")) ** 3 + var("x0") * var("p1", -2)
        assert f.partial("p1").partial("x1") == f.partial("x1").partial("p1")

    def test_evaluate(self):
        f = var("x0") + var("p1") * var("x1")
        assert f.evaluate({"x0": 1, "p1": Fraction(1, 2), "x1": 4}) == 3

    def test_evaluate_laurent(self):
        assert var("p1", -2).evaluate({"x0": 0, "p1": Fraction(1, 3), "x1": 0}) == 9

    def test_substitute(self):
        lam_chart = CH.extend(["lam"], invertible=["lam"])
        lam = LaurentPoly.variable(lam_chart, "lam")
        p1 = LaurentPoly.variable(lam_chart, "p1")
        f = var("p1", -1) * var("x1")
        img = f.substitute({"p1": lam * p1}, lam_chart)
        expect = (
            LaurentPoly.variable(lam_chart, "lam", -1)
            * LaurentPoly.variable(lam_chart, "p1", -1)
            * LaurentPoly.variable(lam_chart, "x1")
        )
        assert img == expect


class TestDivision:
    def test_divexact_clean(self):
        p1, x1 = var("p1"), var("x1")
        prod = (p1 + x1) * (p1 - x1)
        assert divexact(prod, p1 + x1) == p1 - x1

    def test_divexact_fails(self):
        p1, x1 = var("p1"), var("x1")
        assert divexact(p1 * p1 + 1, x1 + 1) is None

    def test_divexact_laurent(self):
        p1, x1 = var("p1"), var("x1")
        f = x1 * var("p1", -1) + 1
        assert divexact(f * p1, p1) == f

    def test_truediv_rejects_a_non_divisor(self):
        p1, x1 = var("p1"), var("x1")
        assert (p1 * (x1 + 1)) / (x1 + 1) == p1
        with pytest.raises(ArithmeticError):
            p1 / (x1 + 1)


class TestHash:
    """Python's rule: equal values hash equal, numbers included."""

    @pytest.mark.parametrize("value", [0, 2, -7, Fraction(1, 2), Fraction(-5, 3)])
    def test_constant_hashes_as_its_value(self, value):
        c = LaurentPoly.constant(CH, value)
        assert c == value and hash(c) == hash(value)
        assert {c: "poly"}.get(value) == "poly"
        assert {value: "number"}[c] == "number"

    def test_zero_polynomial(self):
        z = LaurentPoly.zero(CH)
        assert z == 0 and hash(z) == hash(0) == hash(Fraction(0))
        assert {0: "zero"}[z] == "zero"

    def test_non_constant_polynomial(self):
        p = var("p1") * var("x1") + Fraction(1, 3)
        q = Fraction(1, 3) + var("x1") * var("p1")
        assert p == q and hash(p) == hash(q)
        assert p != Fraction(1, 3) and {Fraction(1, 3): 1}.get(p) is None
        assert {p: 1}[q] == 1


class TestPacking:
    def test_key_order_is_tuple_order(self):
        tuples = [(a, b, c) for a in (0, 2) for b in (-2, 0, 1) for c in (0, 3)]
        assert sorted(tuples) == sorted(tuples, key=CH.pack)
        assert [CH.unpack(CH.pack(t)) for t in tuples] == tuples

    def test_terms_is_a_read_only_view(self):
        p = var("p1", -2) * Fraction(3, 4) + var("x1")
        assert dict(p.terms) == {(0, -2, 0): Fraction(3, 4), (0, 0, 1): Fraction(1)}
        with pytest.raises(TypeError):
            p.terms[(0, 0, 0)] = Fraction(1)
        assert p.coeffs == {CH.pack((0, -2, 0)): 3, CH.pack((0, 0, 1)): 4} and p.den == 4

    def test_constructor_takes_ints_and_fractions(self):
        p = LaurentPoly(CH, {(1, 0, 0): 2, (0, -1, 0): Fraction(1, 6), (0, 0, 0): Fraction(0)})
        assert p.den == 6 and p.coeffs == {CH.pack((1, 0, 0)): 12, CH.pack((0, -1, 0)): 1}
        with pytest.raises(TypeError):
            LaurentPoly(CH, {(1, 0, 0): 0.5})


class TestExponentBound:
    def test_constructor(self):
        assert var("x1", EXPONENT_LIMIT).terms == {(0, 0, EXPONENT_LIMIT): 1}
        with pytest.raises(OverflowError):
            var("x1", EXPONENT_LIMIT + 1)
        with pytest.raises(OverflowError):
            var("p1", -EXPONENT_LIMIT - 1)

    def test_huge_power(self):
        with pytest.raises(OverflowError):
            var("x1") ** (2**40)
        with pytest.raises(OverflowError):
            (var("p1") + 1) ** (2**40)
        # constants carry no exponent at all
        assert LaurentPoly.one(CH) ** (2**40) == 1

    def test_repeated_squaring(self):
        p, k = var("x1") * var("p1", -1), 1
        with pytest.raises(OverflowError):
            for _ in range(EXPONENT_LIMIT.bit_length() + 1):
                p, k = p * p, 2 * k
        # the last square that fits: EXPONENT_LIMIT = 2**15 - 1
        assert k == (EXPONENT_LIMIT + 1) // 2 and p == var("x1", k) * var("p1", -k)

    def test_cancelling_factors_stay_in_range(self):
        big = var("p1", EXPONENT_LIMIT - 5)
        assert big * var("p1", -(EXPONENT_LIMIT - 5)) == 1
        assert divexact(big * var("x1"), big) == var("x1")
        assert var("x1", EXPONENT_LIMIT) ** 1 == var("x1", EXPONENT_LIMIT)

    def test_partial_at_the_edge(self):
        edge = var("p1", -EXPONENT_LIMIT)
        with pytest.raises(OverflowError):
            edge.partial("p1")
        assert var("x1", EXPONENT_LIMIT).partial("x1") == EXPONENT_LIMIT * var("x1", EXPONENT_LIMIT - 1)


# ----------------------------------------------------------------------
# property-based ring axioms

coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)
exponents = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=2),
)
polys = st.dictionaries(exponents, coeffs, max_size=4).map(lambda d: LaurentPoly(CH, d))


@settings(max_examples=200, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_partial_is_derivation(a, b):
    for v in CH.names:
        assert (a * b).partial(v) == a.partial(v) * b + a * b.partial(v)


@settings(max_examples=100, deadline=None)
@given(polys)
def test_mixed_partials_commute_random(a):
    assert a.partial("p1").partial("x1") == a.partial("x1").partial("p1")
    assert a.partial("x0").partial("p1") == a.partial("p1").partial("x0")


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_divexact_roundtrip(a, b):
    if b.is_zero():
        return
    q = divexact(a * b, b)
    assert q is not None and q == a


# ----------------------------------------------------------------------
# the packed integer core against a plain {exponent tuple: Fraction} model


def ref_clean(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref_clean(out)


def ref_partial(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
    return out


def ref_evaluate(a, vals):
    total = Fraction(0)
    for e, c in a.items():
        for v, k in zip(vals, e):
            c *= v**k
        total += c
    return total


def ref_str(a, names):
    if not a:
        return "0"
    parts = []
    for e in sorted(a, reverse=True):
        c = a[e]
        body = "*".join(nm if k == 1 else f"{nm}^{k}" for nm, k in zip(names, e) if k)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts).replace("+ -", "- ")


ref_coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
ref_polys = st.dictionaries(exponents, ref_coeffs, max_size=5).map(ref_clean)


def assert_matches(poly, ref):
    assert dict(poly.terms) == ref
    assert all(type(c) is Fraction for c in poly.terms.values())
    assert poly == LaurentPoly(CH, ref)
    assert poly.den > 0 and all(poly.coeffs.values())
    assert math.gcd(poly.den, *poly.coeffs.values()) == 1


@settings(max_examples=300, deadline=None)
@given(ref_polys, ref_polys, ref_coeffs)
def test_packed_core_matches_the_reference_model(a, b, c):
    pa, pb = LaurentPoly(CH, a), LaurentPoly(CH, b)
    assert_matches(pa, a)
    assert_matches(pa + pb, ref_add(a, b))
    assert_matches(pa - pb, ref_add(a, b, -1))
    assert_matches(-pa, ref_add({}, a, -1))
    assert_matches(pa * pb, ref_mul(a, b))
    const = {(0, 0, 0): c}
    assert_matches(pa * c, ref_mul(a, const))
    assert_matches(c * pa, ref_mul(a, const))
    assert_matches(pa + c, ref_add(a, const))
    assert_matches(c - pa, ref_add(const, a, -1))
    if c:
        assert_matches(pa / c, ref_mul(a, {(0, 0, 0): 1 / c}))
    power = {(0, 0, 0): Fraction(1)}
    for k in range(4):
        assert_matches(pa**k, power)
        power = ref_mul(power, a)
    for i, name in enumerate(CH.names):
        assert_matches(pa.partial(name), ref_partial(a, i))
    point = (Fraction(2, 3), Fraction(-3, 2), Fraction(5))
    assert pa.evaluate(dict(zip(CH.names, point))) == ref_evaluate(a, point)
    assert str(pa) == ref_str(a, CH.names)
    if b:
        assert divexact(pa * pb, pb) == pa
    if len(a) == 1:
        ((e, coef),) = a.items()
        if e[0] == 0 and e[2] == 0:
            assert_matches(pa.inverse(), {tuple(-k for k in e): 1 / coef})
            assert_matches(pa**-2, ref_mul(*[{tuple(-k for k in e): 1 / coef}] * 2))
        else:
            with pytest.raises(ValueError):
                pa.inverse()
    # equal values, however built, are equal and hash alike
    shuffled = LaurentPoly(CH, dict(reversed(list(a.items()))))
    assert shuffled == pa and hash(shuffled) == hash(pa)
    if pa.is_constant():
        assert pa == pa.constant_value() and hash(pa) == hash(pa.constant_value())


WIDE = Chart(["a", "b", "c", "d"], invertible=["a", "c", "d"])
wide_exponent = st.integers(-EXPONENT_LIMIT, EXPONENT_LIMIT)
wide_tuples = st.tuples(wide_exponent, st.integers(0, EXPONENT_LIMIT), wide_exponent, wide_exponent)


@settings(max_examples=200, deadline=None)
@given(wide_tuples, wide_tuples)
def test_pack_round_trip_and_order(e1, e2):
    k1, k2 = WIDE.pack(e1), WIDE.pack(e2)
    assert WIDE.unpack(k1) == e1 and WIDE.unpack(k2) == e2
    assert (k1 < k2) == (e1 < e2) and (k1 == k2) == (e1 == e2)
    p = LaurentPoly(WIDE, {e1: 1})
    assert dict(p.terms) == {e1: 1}
    assert WIDE.legal(k1)


@settings(max_examples=200, deadline=None)
@given(wide_exponent, wide_exponent, st.integers(0, 70000))
def test_exponent_bound(e1, e2, k):
    a, b = LaurentPoly.variable(WIDE, "a", e1), LaurentPoly.variable(WIDE, "a", e2)
    if abs(e1 + e2) > EXPONENT_LIMIT:
        with pytest.raises(OverflowError):
            a * b
    else:
        assert a * b == LaurentPoly.variable(WIDE, "a", e1 + e2)
    if e1 and abs(e1 * k) > EXPONENT_LIMIT:
        with pytest.raises(OverflowError):
            a**k
    elif abs(e1) <= 64 and k <= 64:
        assert a**k == LaurentPoly.variable(WIDE, "a", e1 * k)


def fields(p):
    return p.coeffs, p.den, p.bound


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(WIDE.names), st.integers(-EXPONENT_LIMIT - 2, EXPONENT_LIMIT + 2))
@example("b", -1)
@example("b", -EXPONENT_LIMIT - 1)
@example("a", -EXPONENT_LIMIT - 1)
@example("c", EXPONENT_LIMIT + 1)
@example("d", EXPONENT_LIMIT)
@example("a", 0)
def test_variable_is_the_constructor_on_one_term(name, power):
    # variable packs its key directly; the constructor on the one term
    # {exponents: 1} is the reference, errors included
    exps = [0] * WIDE.dim
    exps[WIDE.index(name)] = power
    try:
        want = fields(LaurentPoly(WIDE, {tuple(exps): 1}))
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            LaurentPoly.variable(WIDE, name, power)
    else:
        assert fields(LaurentPoly.variable(WIDE, name, power)) == want


class TestInternedCharts:
    """One Chart per (names, invertible set): chart equality is identity."""

    def test_equal_arguments_give_the_same_chart(self):
        chart = Chart(("u", "v", "w"), invertible={"w"})
        assert Chart(["u", "v", "w"], invertible=["w"]) is chart
        assert Chart(iter("uvw"), invertible=("w", "w")) is chart
        assert Chart(["x0", "p1", "x1"], invertible=["p1"]) is CH

    def test_a_different_invertible_set_or_order_is_another_chart(self):
        chart = Chart(["u", "v"], invertible=["v"])
        for other in (Chart(["u", "v"]), Chart(["u", "v"], ["u", "v"]), Chart(["v", "u"], ["v"])):
            assert other is not chart and other != chart

    def test_extend_returns_the_interned_chart(self):
        wide = CH.extend(["t"], invertible=["t"])
        assert wide is Chart(["x0", "p1", "x1", "t"], invertible=["p1", "t"])
        assert wide.extend([]) is wide and CH.extend([]) is CH

    @pytest.mark.parametrize(
        "names, invertible, message",
        [
            (["s", "r", "s"], [], "duplicate coordinate names"),
            (["s", "r"], ["q"], r"invertible names not in chart: \['q'\]"),
        ],
    )
    def test_an_invalid_chart_raises_and_registers_nothing(self, names, invertible, message):
        before = dict(poly._CHARTS)
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                Chart(names, invertible)
        assert poly._CHARTS == before

    def test_a_chart_mismatch_still_raises(self):
        other = Chart(["x0", "p1", "x1"])
        a, b = var("x1"), LaurentPoly.variable(other, "x1")
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
            with pytest.raises(ValueError, match=r"chart mismatch: Chart\(\['x0', 'p1', 'x1'\]"):
                op()
        assert a != b

    def test_eq_and_hash_follow_pythons_rules(self):
        chart = Chart(["u", "v"], invertible=["u"])
        same = Chart(["u", "v"], invertible=["u"])
        assert chart == same and hash(chart) == hash(same)
        assert {chart: 1}[same] == 1 and len({chart, same}) == 1
        assert chart != Chart(["u", "v"]) and chart != ("u", "v") and chart != "u"
        # copies and pickles are the interned chart, so polynomials keep it
        p = LaurentPoly.variable(chart, "u", -1)
        for copied in (copy.copy(chart), copy.deepcopy(chart), pickle.loads(pickle.dumps(chart))):
            assert copied is chart
        q = pickle.loads(pickle.dumps(p))
        assert q.chart is chart and q == p and hash(q) == hash(p)


def with_chart_by_terms(p, chart):
    """The former with_chart: through .terms, Fractions and the constructor."""
    pos = [chart.index(nm) if nm in chart else -1 for nm in p.chart.names]
    terms = {}
    for exps, coef in p.terms.items():
        new = [0] * chart.dim
        for i, e in enumerate(exps):
            if e == 0:
                continue
            if pos[i] < 0:
                raise ValueError(f"variable {p.chart.names[i]} not in target chart")
            new[pos[i]] = e
        terms[tuple(new)] = coef
    return LaurentPoly(chart, terms)


NAMES = ("a", "b", "c", "d", "e")


@st.composite
def rechart_cases(draw):
    """A polynomial over a chart of some of NAMES, and a target chart that
    holds its names and maybe others in any order; sometimes the target
    lacks one name, or makes one invertible name non-invertible."""
    src_names = draw(st.permutations(NAMES).map(lambda t: t[: draw(st.integers(1, 5))]))
    src_inv = draw(st.sets(st.sampled_from(src_names)))
    exps = st.tuples(*(st.integers(-3 if nm in src_inv else 0, 3) for nm in src_names))
    nonzero = st.fractions(-5, 5, max_denominator=6).filter(bool)
    terms = draw(st.dictionaries(exps, nonzero, min_size=1, max_size=5))
    extra = draw(st.lists(st.sampled_from(("f", "g")), unique=True))
    tgt_names = draw(st.permutations(list(src_names) + extra))
    tgt_inv = set(src_inv) | draw(st.sets(st.sampled_from(tgt_names)))
    if draw(st.integers(0, 3)) == 0:
        tgt_names.remove(draw(st.sampled_from(src_names)))
    if src_inv and draw(st.integers(0, 3)) == 0:
        tgt_inv.discard(draw(st.sampled_from(sorted(src_inv))))
    tgt_inv &= set(tgt_names)
    return LaurentPoly(Chart(src_names, src_inv), terms), Chart(tgt_names, tgt_inv)


@settings(max_examples=300, deadline=None)
@given(rechart_cases())
@example((var("p1", -2) * var("x1"), Chart(["x1", "p1"])))
@example((var("p1") + var("x0"), Chart(["p1", "x1"], ["p1"])))
@example((var("p1", -1) + var("x0"), Chart(["x0", "x1"])))
@example((var("p1", -1) + var("x0"), Chart(["p1", "x1"])))
def test_with_chart_re_keys_like_the_terms_route(case):
    # the packed re-keying equals the constructor on re-indexed terms,
    # errors and their messages included
    p, chart = case
    try:
        want = with_chart_by_terms(p, chart)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            p.with_chart(chart)
    else:
        got = p.with_chart(chart)
        assert got.chart is chart and fields(got) == fields(want) and str(got) == str(want)
