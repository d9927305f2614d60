"""Exact polynomial layer: frozen values and ring axioms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpsgeo.poly import Chart, LaurentPoly, divexact

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
