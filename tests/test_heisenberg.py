"""Heisenberg group arithmetic, exp/log, the chi identification, translation
actions, and invariance of the contact structure under right translations."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tpsgeo import heisenberg as hg
from tpsgeo import tps


def rand_frac(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rand_element(rng, n):
    return hg.HeisElement(
        [rand_frac(rng) for _ in range(n)], [rand_frac(rng) for _ in range(n)], rand_frac(rng)
    )


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
        from tpsgeo.fields import PolyMap

        cm = hg.chi_map(2)
        assert cm.inverse_map.compose(cm).comps == PolyMap.identity(cm.src).comps
        assert cm.compose(cm.inverse_map).comps == PolyMap.identity(cm.dst).comps
        rng = random.Random(7)
        g = rand_element(rng, 2)
        pt = {"a1": g.a[0], "a2": g.a[1], "b1": g.b[0], "b2": g.b[1], "c": g.c}
        image = {nm: comp.evaluate(pt) for nm, comp in cm.comps.items()}
        assert image == hg.chi(g)


class TestInvariance:
    """Pushforwards of the invariant frames and the symbolic invariance of
    theta and G under right translations."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_invariant_report(self, n):
        rep = hg.invariant_report(n)
        assert rep["passed"], rep

    @pytest.mark.parametrize("n", [1, 2])
    def test_translation_invariance(self, n):
        rep = hg.translation_invariance_report(n)
        assert rep["right_preserves_theta"]
        assert rep["right_preserves_metric"]
        assert rep["left_theta_defect_matches"]
        assert rep["passed"]

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
        t = tps.build(1)
        assert cm.push_field(bracket(fields["A1"], fields["B1"])) == t.reeb
