"""Heisenberg group arithmetic, exp/log, the chi identification, translation
actions, and invariance of the contact structure under right translations."""

from __future__ import annotations

import functools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpsgeo import heisenberg as hg
from tpsgeo import suites, tps
from tpsgeo.poly import Chart, LaurentPoly


def rand_frac(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rand_element(rng, n):
    return hg.HeisElement(
        [rand_frac(rng) for _ in range(n)], [rand_frac(rng) for _ in range(n)], rand_frac(rng)
    )


class Symbolic:
    """A HeisElement stand-in whose numerators and denominator may be
    Laurent polynomials: the group law runs on it unchanged."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num, self.den = tuple(num), den

    @property
    def n(self):
        return len(self.num) // 2


class TestGroupLaw:
    """Multiplication, identity, inverses."""

    def test_example(self):
        g = hg.HeisElement([1], [2], 0)
        g1 = hg.HeisElement([3], [4], 0)
        assert hg.multiply(g, g1) == hg.HeisElement([4], [6], 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hg.multiply(hg.HeisElement([1], [2], 0), hg.HeisElement([1, 2], [3, 4], 0))
        with pytest.raises(ValueError):
            hg.HeisElement([1], [2, 3], 0)

    def test_inverse_formula(self):
        g = hg.HeisElement([2], [5], 7)
        assert hg.inverse(g) == hg.HeisElement([-2], [-5], 3)

    def test_group_axioms_random(self):
        rng = random.Random(0)
        for n in (1, 2, 3):
            e = hg.identity(n)
            for _ in range(70):
                g = rand_element(rng, n)
                h = rand_element(rng, n)
                k = rand_element(rng, n)
                assert hg.multiply(hg.multiply(g, h), k) == hg.multiply(g, hg.multiply(h, k))
                assert hg.multiply(g, e) == g
                assert hg.multiply(e, g) == g
                assert hg.multiply(g, hg.inverse(g)) == e
                assert hg.multiply(hg.inverse(g), g) == e

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_group_axioms_hold_as_polynomial_identities(self, monkeypatch, n):
        # An exact oracle for the sampled axioms of suite_heisenberg: multiply
        # and inverse run unchanged on symbolic elements whose numerators are
        # variables over an invertible variable den, and the element values
        # num / den are compared as Laurent polynomials, so each axiom holds
        # for every rational triple, not just for the sampled ones.
        names = [f"{part}{k}_{i}" for k in range(3) for part in "ab" for i in range(n)]
        dens = [f"d{k}" for k in range(3)]
        chart = Chart(names + [f"c{k}" for k in range(3)] + dens, invertible=dens)
        var = functools.partial(LaurentPoly.variable, chart)
        g, h, k = (
            Symbolic(
                [var(f"{part}{j}_{i}") for part in "ab" for i in range(n)] + [var(f"c{j}")],
                var(f"d{j}"),
            )
            for j in range(3)
        )
        # multiply and inverse build their results through element, which
        # reduces integer numerators to lowest terms; symbolic ones stay as
        # they are, which leaves their values unchanged
        monkeypatch.setattr(hg, "element", Symbolic)

        def values(el):
            den = el.den if isinstance(el.den, LaurentPoly) else LaurentPoly.constant(chart, el.den)
            inv = den.inverse()
            return tuple(x * inv for x in el.num)

        e = hg.identity(n)
        assert values(hg.multiply(hg.multiply(g, h), k)) == values(hg.multiply(g, hg.multiply(h, k)))
        assert values(hg.multiply(g, e)) == values(g) == values(hg.multiply(e, g))
        assert values(hg.multiply(g, hg.inverse(g))) == values(e) == values(hg.multiply(hg.inverse(g), g))
        # the identities are not vacuous: the law is not commutative
        assert values(hg.multiply(g, h)) != values(hg.multiply(h, g))

    def test_noncommutative(self):
        g = hg.HeisElement([1], [0], 0)
        h = hg.HeisElement([0], [1], 0)
        assert hg.multiply(g, h) != hg.multiply(h, g)

    def test_matrix_picture(self):
        rng = random.Random(1)
        for _ in range(25):
            g = rand_element(rng, 2)
            h = rand_element(rng, 2)
            assert hg.multiply_matches_matrices(g, h)

    def test_json_round_trip(self):
        g = hg.HeisElement([Fraction(1, 3), 2], [Fraction(-5, 7), 0], Fraction(9, 2))
        assert hg.HeisElement.from_json(g.to_json()) == g


class TestExpLog:
    """exp appends half the pairing; the nilpotent matrix series agrees."""

    def test_example(self):
        x = hg.HeisAlgElement([2], [3], 0)
        assert hg.exp(x) == hg.HeisElement([2], [3], 3)

    def test_exp_log_inverse(self):
        rng = random.Random(2)
        for n in (1, 2):
            for _ in range(30):
                g = rand_element(rng, n)
                assert hg.exp(hg.log(g)) == g
                x = hg.HeisAlgElement(g.a, g.b, g.c)
                assert hg.log(hg.exp(x)) == x

    def test_matches_matrix_series(self):
        rng = random.Random(3)
        count = 0
        for n in (1, 2, 3):
            for _ in range(17):
                g = rand_element(rng, n)
                x = hg.HeisAlgElement(g.a, g.b, g.c)
                assert hg.exp_matches_series(x)
                count += 1
        assert count >= 50


class TestChi:
    """The identification with the contact phase space and the two actions."""

    def test_chi_example(self):
        g = hg.HeisElement([1, 2], [3, 4], 5)
        assert hg.chi(g) == {
            "x0": Fraction(-5),
            "p1": Fraction(3),
            "p2": Fraction(4),
            "x1": Fraction(1),
            "x2": Fraction(2),
        }

    def test_chi_inverse(self):
        rng = random.Random(4)
        for _ in range(20):
            g = rand_element(rng, 2)
            assert hg.chi_inv(hg.chi(g), 2) == g

    def test_right_action_is_antihomomorphism(self):
        rng = random.Random(6)
        for _ in range(20):
            g = rand_element(rng, 2)
            h = rand_element(rng, 2)
            m = hg.chi(rand_element(rng, 2))
            assert hg.right_action(g, hg.right_action(h, m)) == hg.right_action(
                hg.multiply(h, g), m
            )

    def test_chi_map_round_trip(self):
        def identity(chart):
            return {nm: LaurentPoly.variable(chart, nm) for nm in chart.names}

        cm = hg.chi_map(2)
        assert cm.inverse_map.compose(cm).comps == identity(cm.src)
        assert cm.compose(cm.inverse_map).comps == identity(cm.dst)
        pt = {"a1": 1, "a2": Fraction(-2, 3), "b1": 5, "b2": Fraction(1, 7), "c": Fraction(9, 4)}
        image = {
            "x0": Fraction(-9, 4),
            "p1": Fraction(5),
            "p2": Fraction(1, 7),
            "x1": Fraction(1),
            "x2": Fraction(-2, 3),
        }
        assert cm.at(pt) == image
        assert cm.inverse_map.at(image) == {nm: Fraction(v) for nm, v in pt.items()}


@pytest.mark.parametrize("n", [1, 2])
def test_right_action_is_the_group_law_as_a_polynomial_identity(monkeypatch, n):
    # An exact oracle for the 25 sampled points of suite_heisenberg: multiply
    # runs unchanged on the symbolic elements chi^{-1}(x0, p, x) and
    # (ga, gb, gc), whose numerators are Laurent polynomials over 1, and chi
    # of the product equals translation_map(n, "right") on every point.
    cm = hg.chi_map(n)
    right, left = hg.translation_map(n, "right"), hg.translation_map(n, "left")
    ext = right.src
    point = Symbolic([c.with_chart(ext) for c in cm.inverse_map.comps.values()], 1)
    g = Symbolic([LaurentPoly.variable(ext, nm) for nm in ext.names[2 * n + 1 :]], 1)
    monkeypatch.setattr(hg, "element", Symbolic)

    def chi_of(product):
        assert product.den == 1
        values = dict(zip(cm.src.names, product.num))
        return {nm: c.substitute(values, ext) for nm, c in cm.comps.items()}

    image = chi_of(hg.multiply(point, g))
    assert image == {nm: right.comps[nm] for nm in image}
    # not vacuous: the left translation is chi of the other product
    assert image != {nm: left.comps[nm] for nm in image}
    image = chi_of(hg.multiply(g, point))
    assert image == {nm: left.comps[nm] for nm in image}


def test_right_action_converts_the_point_once(monkeypatch):
    # the 14 components of the n = 3 map share one chart: each of its 14
    # values is converted once, not once per component
    from tpsgeo import poly

    rng = random.Random(3)
    g, point = rand_element(rng, 3), hg.chi(rand_element(rng, 3))
    image = hg.right_action(g, point)
    calls = []
    original = poly._as_fraction

    def counted(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(poly, "_as_fraction", counted)
    assert hg.right_action(g, point) == image
    names = hg.translation_map(3, "right").src.names
    assert len(names) == 14
    assert 0 < len(calls) <= len(names)


def test_each_action_map_is_built_once_per_n():
    for n in (1, 2):
        assert hg.chi_map(n) is hg.chi_map(n)
        assert hg.translation_map(n, "right") is hg.translation_map(n, "right")
    with pytest.raises(ValueError):
        hg.translation_map(1, "up")


class TestInvariance:
    """Pushforwards of the invariant frames and the symbolic invariance of
    theta and G under right translations."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_invariant_report(self, n):
        rep = hg.invariant_report(n)
        assert all(rep.values()), rep

    @pytest.mark.parametrize("n", [1, 2])
    def test_translation_invariance(self, n):
        right, left = hg.translation_invariance_report(n)
        assert right == (True, None)
        assert left == (True, None)

    def test_theta_h_explicit(self):
        th = hg.theta_h(1)
        chart = hg.group_chart(1)
        from tpsgeo.fields import Form
        from tpsgeo.poly import LaurentPoly

        assert th == Form.one_form(
            chart, {"c": -1, "a1": LaurentPoly.variable(chart, "b1")}
        )

    def test_commutator_pushes_to_reeb(self):
        from tpsgeo.fields import bracket

        fields = dict(hg.right_invariant_fields(1))
        cm = hg.chi_map(1)
        reeb = dict(tps.canonical_frame(1))["xi"]
        assert cm.push_field(bracket(fields["A1"], fields["B1"])) == reeb


# ----------------------------------------------------------------------
# the integer normal form against a plain-Fraction reference model: an
# element is a tuple (a, b, c) of Fraction tuples and a Fraction


def ref_dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def ref_multiply(g, h):
    (a, b, c), (a1, b1, c1) = g, h
    return (
        tuple(x + y for x, y in zip(a, a1)),
        tuple(x + y for x, y in zip(b, b1)),
        c + c1 + ref_dot(a, b1),
    )


def ref_inverse(g):
    a, b, c = g
    return tuple(-x for x in a), tuple(-x for x in b), -c + ref_dot(a, b)


def ref_exp(x):
    a, b, z = x
    return a, b, z + ref_dot(a, b) / 2


def ref_log(g):
    a, b, c = g
    return a, b, c - ref_dot(a, b) / 2


def assert_matches(el, ref):
    a, b, c = ref
    assert (el.a, el.b, el.c) == (a, b, c)
    assert all(type(x) is Fraction for x in (*el.a, *el.b, el.c))
    assert el.n == len(a)
    assert el.den > 0 and math.gcd(el.den, *el.num) == 1
    assert el == hg.HeisElement(a, b, c) and hash(el) == hash(hg.HeisElement(a, b, c))


ref_fracs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def ref_elements(n):
    vec = st.lists(ref_fracs, min_size=n, max_size=n).map(tuple)
    return st.tuples(vec, vec, ref_fracs)


ref_pairs = st.integers(1, 3).flatmap(lambda n: st.tuples(ref_elements(n), ref_elements(n)))


@settings(max_examples=300, deadline=None)
@given(ref_pairs)
def test_integer_normal_form_matches_the_reference_model(pair):
    g, h = pair
    eg, eh = hg.HeisElement(*g), hg.HeisElement(*h)
    assert_matches(eg, g)
    assert_matches(hg.multiply(eg, eh), ref_multiply(g, h))
    assert_matches(hg.multiply(eh, eg), ref_multiply(h, g))
    assert_matches(hg.inverse(eg), ref_inverse(g))
    assert_matches(hg.exp(hg.HeisAlgElement(*g)), ref_exp(g))
    x = hg.log(eg)
    assert (x.a, x.b, x.z) == ref_log(g)
    assert_matches(hg.HeisElement.from_json(eg.to_json()), g)
    assert json.loads(eg.to_json()) == {
        "a": [str(v) for v in g[0]],
        "b": [str(v) for v in g[1]],
        "c": str(g[2]),
    }
    # the same values given as ints where integral
    plain = [int(v) if v.denominator == 1 else v for v in (*g[0], *g[1], g[2])]
    n = len(g[0])
    built = hg.HeisElement(plain[:n], plain[n : 2 * n], plain[-1])
    assert built == eg and hash(built) == hash(eg)
    # equal exactly when the reference values are equal
    assert (eg == eh) == (g == h)
    longer = hg.HeisElement(g[0] + (1,), g[1] + (1,), g[2])
    with pytest.raises(ValueError):
        hg.multiply(eg, longer)
    with pytest.raises(ValueError):
        hg.multiply(longer, eg)
    with pytest.raises(ValueError):
        hg.HeisElement(g[0], g[1] + (1,), g[2])


def test_equal_elements_from_different_inputs_are_equal_and_hash_alike():
    halves = hg.HeisElement([Fraction(2, 4)], [Fraction(-6, 4)], Fraction(10, 4))
    reduced = hg.HeisElement([Fraction(1, 2)], [Fraction(-3, 2)], Fraction(5, 2))
    assert halves == reduced and hash(halves) == hash(reduced)
    assert (halves.num, halves.den) == ((1, -3, 5), 2)
    ints = hg.HeisElement([1, -2], [0, 3], 4)
    fracs = hg.HeisElement([Fraction(1), Fraction(-2)], [Fraction(0), Fraction(3)], Fraction(4))
    assert ints == fracs and hash(ints) == hash(fracs)
    assert (ints.num, ints.den) == ((1, -2, 0, 3, 4), 1)
    # a product whose denominators cancel is stored over 1
    g = hg.multiply(hg.HeisElement([Fraction(1, 2)], [0], 0), hg.HeisElement([Fraction(1, 2)], [2], 0))
    assert (g.num, g.den) == ((1, 2, 1), 1)
    assert len({halves, reduced, ints, fracs}) == 2


AXIOMS = "group axioms hold exactly over 200 random rational triples"
SERIES = "exponential agrees with the nilpotent matrix series; log inverts it"
ACTION = "chart map intertwines right translation with its closed-form action"


def flipped_multiply(g, g1):
    # the group law's cocycle <a, b1> enters with the wrong sign
    return hg.HeisElement(
        [x + y for x, y in zip(g.a, g1.a)],
        [x + y for x, y in zip(g.b, g1.b)],
        g.c + g1.c - sum((x * y for x, y in zip(g.a, g1.b)), Fraction(0)),
    )


def exp_without_half_pairing(x):
    return hg.HeisElement(x.a, x.b, x.z)


@pytest.mark.parametrize(
    "name, broken, series_kind",
    [("multiply", flipped_multiply, "matrix-product"), ("exp", exp_without_half_pairing, "exp-series")],
    ids=["multiply", "exp"],
)
def test_a_broken_group_law_fails_the_claims_that_cover_it(monkeypatch, name, broken, series_kind):
    # a flipped central sign fails the inverses, the matrix product and the
    # closed-form right action; an exp that drops <a, b> / 2 fails the
    # matrix series.  Each claim names its witness instead of raising, and
    # no other claim fails.
    monkeypatch.setattr(hg, name, broken)
    for n in (1, 2):
        fails = {r.claim: r.witness for r in suites.suite_heisenberg(n) if r.status == "fail"}
        assert fails.keys() == ({AXIOMS, SERIES, ACTION} if name == "multiply" else {SERIES})
        assert fails[SERIES]["kind"] == series_kind
        if name == "exp":
            x = hg.log(hg.HeisElement.from_json(fails[SERIES]["element"]))
            assert not hg.exp_matches_series(x)
            continue
        witness = json.loads(fails[AXIOMS])
        assert set(witness) == {"a", "b", "c"} and len(witness["a"]) == n
        g = hg.HeisElement.from_json(fails[AXIOMS])
        assert flipped_multiply(g, hg.inverse(g)) != hg.identity(n)
        assert len(hg.HeisElement.from_json(fails[ACTION]).a) == n


@pytest.mark.parametrize("n", [1, 2])
def test_the_suite_draws_the_fraction_elements_of_its_seed(monkeypatch, n):
    # every element the suite draws, in order, equals the one built from
    # Fraction(randint(-9, 9), randint(1, 9)) per entry on the same stream,
    # so the sampled claims and the printed witnesses keep their values
    draw, drawn = suites._rand_element, []

    def recorded(rng, n):
        drawn.append(draw(rng, n))
        return drawn[-1]

    monkeypatch.setattr(suites, "_rand_element", recorded)
    suites.suite_heisenberg(n)
    assert len(drawn) == 751
    rng = random.Random(42)
    assert drawn == [rand_element(rng, n) for _ in drawn]


@pytest.mark.parametrize("make", [hg.HeisElement, hg.HeisAlgElement])
@pytest.mark.parametrize(
    "a, b, last",
    [([0.1], [0], 0), (["1/3"], [0], 0), ([0], [0], 0.5), ([1, 2], [3, 4.0], 5), ([0], [0], "1")],
)
def test_constructors_take_exact_scalars_only(make, a, b, last):
    # as LaurentPoly does: no float or string is converted silently
    with pytest.raises(TypeError, match="not an exact scalar"):
        make(a, b, last)
    exact = make([Fraction(1, 3), 2], [0, Fraction(-4, 6)], Fraction(1, 2))
    assert (exact.num, exact.den) == ((2, 12, 0, -4, 3), 6)


def test_a_tps_catalog_without_b1_fails_the_pushforward_claims(monkeypatch, clear_caches):
    # the left-invariant frame pushes to -B_1, which the catalog lacks: the
    # claims that compare with it fail instead of raising KeyError
    build = tps.killing_catalog.__wrapped__
    trimmed = functools.cache(lambda n: tuple(e for e in build(n) if e[0] != "B1"))
    monkeypatch.setattr(tps, "killing_catalog", trimmed)
    claims = {r.claim: r for r in suites.suite_heisenberg(1)}
    assert claims["left-invariant frame pushes to exact isometry generators"].status == "fail"
    assert claims["nilpotent frame spans inside the isometry algebra"].status == "fail"
    assert claims["invariant frame pushes to (-xi, X_i, P_j)"].status == "exact-pass"


@pytest.mark.parametrize(
    "key, claim",
    [
        ("right_translation_invariance", "chart map identifies the invariant one-form with theta"),
        ("gram_matches", "frame Gram matrix of the pulled metric is constant"),
    ],
)
def test_each_invariant_check_fails_the_claim_that_covers_it(monkeypatch, key, claim):
    original = hg.invariant_report
    monkeypatch.setattr(hg, "invariant_report", lambda n: {**original(n), key: False})
    for n in (1, 2):
        fails = [r for r in suites.suite_heisenberg(n) if r.status == "fail"]
        assert [r.claim for r in fails] == [claim]
        assert fails[0].witness == {"key": key}
