"""Third-order jet arithmetic, elementary functions, and the
finite-difference oracle."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from tpsgeo import jets
from tpsgeo.jets import DomainError, Jet3, fd_oracle, jet_arith, jet_fd_compare, jet_func


def vdw_jet(seeds):
    s, v = seeds
    return (v - 1.0) ** Fraction(-2, 3) * jets.exp(s / 1.5) - 1.0 / v


def vdw_plain(xv):
    s, v = xv
    return (v - 1.0) ** (-2.0 / 3.0) * np.exp(s / 1.5) - 1.0 / v


class TestArithmetic:
    """Chain-rule propagation through +, *, /."""

    def test_product_mixed_partial(self):
        x, y = Jet3.seeds([2.0, 3.0])
        p = x * y
        assert p.hess[0, 1] == 1.0
        assert p.hess[1, 0] == 1.0
        assert p.value == 6.0
        assert list(p.grad) == [3.0, 2.0]

    def test_polynomial_exact(self):
        s, v = Jet3.seeds([2.0, 5.0])
        p = (s**3) * v + 4 * s - v**2
        assert p.value == 23.0
        assert list(p.grad) == [64.0, -2.0]
        assert p.hess[0, 0] == 60.0 and p.hess[0, 1] == 12.0 and p.hess[1, 1] == -2.0
        assert p.third[0, 0, 0] == 30.0 and p.third[0, 0, 1] == 12.0
        assert p.third[1, 1, 1] == 0.0

    def test_quotient_rule(self):
        (x,) = Jet3.seeds([2.0])
        q = 1.0 / x
        assert q.value == 0.5
        assert q.grad[0] == -0.25
        assert q.hess[0, 0] == 0.25
        assert q.third[0, 0, 0] == pytest.approx(-6.0 / 16.0, rel=0, abs=0)

    def test_division_by_zero_value(self):
        x, y = Jet3.seeds([1.0, 0.0])
        with pytest.raises(DomainError):
            x / y

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Jet3.seed(1, 0, 1.0) * Jet3.seed(2, 0, 1.0)

    def test_dispatch_wrappers(self):
        x, y = Jet3.seeds([2.0, 3.0])
        assert jet_arith(x, y, "mul").value == 6.0
        assert jet_arith(x, y, "add").value == 5.0
        assert jet_arith(x, y, "div").value == pytest.approx(2.0 / 3.0)
        with pytest.raises(ValueError):
            jet_arith(x, y, "sub")
        assert jet_func(x, "pow", 2).value == 4.0
        with pytest.raises(ValueError):
            jet_func(x, "pow")
        with pytest.raises(ValueError):
            jet_func(x, "sin")

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(0)
        x, y, z = Jet3.seeds(rng.uniform(0.5, 2.0, size=3))
        w = jets.exp(x * y / z) * jets.ln(x + y + z) - (x**Fraction(5, 2)) / (y * z)
        assert w.symmetry_ok()


class TestFunctions:
    """exp, ln, pow with their domain guards."""

    def test_exp_at_zero(self):
        e = jets.exp(Jet3.seed(1, 0, 0.0))
        assert e.value == 1.0
        assert e.grad[0] == 1.0
        assert e.hess[0, 0] == 1.0
        assert e.third[0, 0, 0] == 1.0

    def test_ln_derivatives(self):
        (x,) = Jet3.seeds([2.0])
        l = jets.ln(x)
        assert l.value == pytest.approx(np.log(2.0), rel=1e-15)
        assert l.grad[0] == 0.5
        assert l.hess[0, 0] == -0.25
        assert l.third[0, 0, 0] == 0.25

    def test_ln_domain(self):
        with pytest.raises(DomainError):
            jets.ln(Jet3.seed(1, 0, 0.0))
        with pytest.raises(DomainError):
            jets.ln(Jet3.seed(1, 0, -1.0))

    def test_pow_integer_any_sign_base(self):
        (x,) = Jet3.seeds([-3.0])
        p = x**3
        assert p.value == -27.0 and p.grad[0] == 27.0 and p.hess[0, 0] == -18.0
        q = x**-2
        assert q.value == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_pow_fraction_domain(self):
        with pytest.raises(DomainError):
            Jet3.seed(1, 0, -1.0) ** Fraction(1, 2)
        with pytest.raises(DomainError):
            Jet3.seed(1, 0, 0.0) ** -1

    def test_pow_fraction_derivatives(self):
        (x,) = Jet3.seeds([4.0])
        r = x ** Fraction(1, 2)
        assert r.value == 2.0
        assert r.grad[0] == 0.25
        assert r.hess[0, 0] == pytest.approx(-1.0 / 32.0, rel=1e-15)


class TestOracle:
    """Central differences with one Richardson refinement."""

    @pytest.mark.parametrize("x0", [0.0, 1.0, -2.5, 17.0])
    def test_third_derivative_of_cube(self, x0):
        est, _ = fd_oracle(lambda z: z[0] ** 3, [x0], (0, 0, 0))
        assert abs(est - 6.0) < 1e-6

    def test_gradient_of_constant(self):
        est, ind = fd_oracle(lambda z: 42.0, [3.0], (0,))
        assert abs(est) < 1e-10
        assert ind == 0.0

    def test_order_zero_and_cap(self):
        est, ind = fd_oracle(lambda z: z[0] + 1.0, [2.0], ())
        assert est == 3.0 and ind == 0.0
        with pytest.raises(ValueError):
            fd_oracle(lambda z: z[0], [0.0], (0, 0, 0, 0))

    def test_non_finite_samples(self):
        def f(z):
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.log(z[0])

        with pytest.raises(ArithmeticError):
            fd_oracle(f, [0.0], (0,))

    def test_mixed_partial(self):
        est, _ = fd_oracle(lambda z: z[0] ** 2 * z[1], [3.0, 5.0], (0, 1))
        assert abs(est - 6.0) < 1e-7


class TestAgreement:
    """Jets against the oracle on the van der Waals law and friends."""

    def test_vdw_reference_point(self):
        pt = np.array([1.0, 2.0])
        jet = vdw_jet(Jet3.seeds(pt))
        for order, tol in ((1, 1e-8), (2, 1e-8), (3, 1e-7)):
            for ix in jets._sorted_indices(2, order):
                est, _ = fd_oracle(vdw_plain, pt, ix)
                assert abs(est - jet.derivative(ix)) <= tol * abs(est), (order, ix)

    def test_catalog_random_points(self):
        rng = np.random.default_rng(7)

        def ig_jet(seeds):
            s, v = seeds
            return v ** Fraction(-2, 3) * jets.exp(s / 1.5)

        def ig_plain(xv):
            return xv[1] ** (-2.0 / 3.0) * np.exp(xv[0] / 1.5)

        def homo_jet(seeds):
            return (seeds[1] * seeds[1]) / seeds[0]

        def homo_plain(xv):
            return xv[1] ** 2 / xv[0]

        cases = [
            (vdw_jet, vdw_plain, lambda: (rng.uniform(0.3, 1.8), rng.uniform(1.6, 3.5))),
            (ig_jet, ig_plain, lambda: (rng.uniform(0.3, 1.8), rng.uniform(0.5, 3.5))),
            (homo_jet, homo_plain, lambda: (rng.uniform(0.5, 2.5), rng.uniform(-2.0, 2.0))),
        ]
        for f_jet, f_plain, gen in cases:
            for _ in range(20):
                rep = jet_fd_compare(f_jet, f_plain, np.array(gen()))
                assert rep["passed"], rep


BATCH_OPS = {
    "add": lambda x, y, z: x + y + 2.0 + z,
    "sub": lambda x, y, z: x - y - 1.5 - z,
    "mul": lambda x, y, z: x * y * z * 3.0,
    "div": lambda x, y, z: x / y - 1.0 / z,
    "exp": lambda x, y, z: jets.exp(x * y - z),
    "ln": lambda x, y, z: jets.ln(x + y * z),
    "pow_int": lambda x, y, z: (x - y) ** 5 * z**-3,
    "pow_frac": lambda x, y, z: (x * y) ** Fraction(-2, 3) + z**2.5,
}


class TestBatch:
    """A jet with a batch axis against one jet per point, bit for bit."""

    @pytest.mark.parametrize("op", sorted(BATCH_OPS))
    def test_batch_equals_one_jet_per_point(self, op):
        pts = np.random.default_rng(3).uniform(0.5, 2.0, size=(25, 3))
        batch = BATCH_OPS[op](*Jet3.seeds(pts))
        assert batch.value.shape == (25,) and batch.third.shape == (25, 3, 3, 3)
        assert batch.symmetry_ok()
        for i, pt in enumerate(pts):
            one = BATCH_OPS[op](*Jet3.seeds(pt))
            assert np.shape(one.value) == ()
            for part in ("value", "grad", "hess", "third"):
                got, want = getattr(batch, part)[i], getattr(one, part)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (part, i)
            for ix in ((), (1,), (0, 2), (2, 1, 0)):
                assert batch.derivative(ix)[i] == one.derivative(ix)

    def test_one_bad_point_fails_the_batch(self):
        x, y = Jet3.seeds([[1.0, 2.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            x / y
        with pytest.raises(DomainError):
            jets.ln(y)

    @pytest.mark.parametrize(
        "f,point",
        [
            (lambda x, y: (y * y) / x, [1e-320, 3.0]),  # 1/x**2 underflows
            (lambda x, y: (y * y) / x, [1e308, 2.0]),  # x**2 overflows
            (lambda x, y: y ** Fraction(-2, 3) * jets.exp(x / 1.5), [0.0, 1e-300]),
        ],
    )
    def test_factors_beyond_the_float_range(self, f, point):
        with np.errstate(all="ignore"), pytest.raises(DomainError):
            f(*Jet3.seeds(point))
