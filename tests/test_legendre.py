"""Legendre surfaces from potentials: parameterization, induced metric,
adapted frames, second fundamental form, homogeneity, stability."""

from __future__ import annotations

import json
import types
from fractions import Fraction

import numpy as np
import pytest

from tpsgeo import jets, legendre as lg, pcg, suites, tps
from tpsgeo.jets import DomainError, Jet3, fd_oracle
from tpsgeo.fields import PolyMap
from tpsgeo.linalg import PolyMatrix
from tpsgeo.poly import Chart, LaurentPoly


def samplers(rng):
    return {
        "van_der_waals": lambda: np.array([rng.uniform(-1.0, 2.0), rng.uniform(1.3, 4.0)]),
        "ideal_gas_energy": lambda: np.array([rng.uniform(-1.0, 2.0), rng.uniform(0.3, 4.0)]),
        "quadratic": lambda: rng.uniform(-2.0, 2.0, size=2),
        "linear": lambda: rng.uniform(-2.0, 2.0, size=2),
        "homogeneous_demo": lambda: np.array([rng.uniform(0.4, 3.0), rng.uniform(-2.0, 2.0)]),
    }


def catalog_models():
    return [
        lg.van_der_waals(),
        lg.ideal_gas_energy(),
        lg.quadratic([[2.0, 1.0], [1.0, 3.0]]),
        lg.linear([1.0, -2.0]),
        lg.homogeneous_demo(),
    ]


def vw_pair(model, fr):
    """The V/W pair the frames are built from: V = P, W = X on the momentum
    part I, and V = X, W = -P on J."""
    pvec, xvec = lg._frame_vectors(model.nvars, fr["surface_point"]["ambient"])
    in_i = model._in_i()[:, None]
    return np.where(in_i, pvec, xvec), np.where(in_i, xvec, -pvec)


def frame_checks(model, fr):
    """Per point, from the frames and the ambient metric G: the largest
    deviation of G(V, W) from diag(+1 on I, -1 on J), the largest G(Y, Z),
    the normalised determinant of (Y, Z, xi), and the largest deviation of
    G(Y, Y) from the pullback."""
    n = model.nvars
    g = lg.ambient_metric(n, fr["surface_point"]["ambient"])
    y, z = fr["Y"], fr["Z"]
    v, w = vw_pair(model, fr)

    def gram(a, b):
        return a @ g @ b.swapaxes(-1, -2)

    def worst(m):
        return np.max(np.abs(m), axis=(-2, -1))

    xi = np.broadcast_to(np.eye(1, 2 * n + 1), y.shape[:-2] + (1, 2 * n + 1))
    span = np.concatenate([y, z, xi], axis=-2)
    span = span / np.max(np.abs(span), axis=-1)[..., None]
    return {
        "vw_table": worst(gram(v, w) - np.diag(np.where(model._in_i(), 1.0, -1.0))),
        "yz_orthogonality": worst(gram(y, z)),
        "span_det": np.abs(np.linalg.det(span)),
        "y_gram": worst(gram(y, y) - fr["induced"]["pullback"]),
    }


def frames_hold(checks):
    return ((checks["vw_table"] < 1e-12) & (checks["yz_orthogonality"] < 1e-10)
            & (checks["span_det"] > 1e-8) & (checks["y_gram"] < 1e-10))


def ambient_rows(sp):
    """The ambient point of each point of a batch, as a dict of floats."""
    amb = sp["ambient"]
    return [dict(zip(amb, vals)) for vals in zip(*(v.tolist() for v in amb.values()))]


def symmetry_residual(coeffs):
    """Largest change of the coefficients c_lks under swapping l and k."""
    return np.max(np.abs(coeffs - coeffs.swapaxes(-3, -2)))


class TestSurfacePoint:
    """Ambient parameterization and the Legendre property."""

    def test_zero_potential(self):
        m = lg.quadratic(np.zeros((2, 2)))
        sp = lg.surface_point(m, [[3.0, -4.0]])
        assert ambient_rows(sp) == [{"x0": 0.0, "p1": 0.0, "p2": 0.0, "x1": 3.0, "x2": -4.0}]

    def test_half_sum_of_squares(self):
        m = lg.quadratic(np.eye(2))
        sp = lg.surface_point(m, [[1.0, 2.0]])
        assert ambient_rows(sp) == [{"x0": 2.5, "p1": -1.0, "p2": -2.0, "x1": 1.0, "x2": 2.0}]
        assert sp["legendre_residual"].tolist() == [0.0]

    def test_momentum_part_passthrough(self):
        m = lg.quadratic([[2.0, 1.0], [1.0, 3.0]], part_i=(1,))
        sp = lg.surface_point(m, [[0.5, 2.0]])
        (amb,) = ambient_rows(sp)
        # p_1 is a base coordinate, x^1 = d(phi)/d(p_1)
        assert amb["p1"] == 0.5
        assert amb["x1"] == 2.0 * 0.5 + 1.0 * 2.0
        assert amb["x2"] == 2.0
        assert sp["legendre_residual"][0] < 1e-15

    def test_legendre_residual_catalog(self):
        rng = np.random.default_rng(11)
        gen = samplers(rng)
        for model in catalog_models():
            draw = gen[model.name]
            sp = lg.surface_point(model, [draw() for _ in range(100)])
            assert np.all(sp["legendre_residual"] < 1e-12), model.name

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            lg.surface_point(lg.van_der_waals(), [[1.0, 0.5]])
        with pytest.raises(ValueError):
            lg.surface_point(lg.van_der_waals(), [[1.0, 2.0, 3.0]])


class TestInducedMetric:
    """Gram of the tangent frame against the block formula."""

    def test_quadratic_block(self):
        im = lg.induced_metric(lg.quadratic(np.eye(2)), [[1.0, 2.0]])
        assert np.array_equal(im["pullback"], [-2.0 * np.eye(2)])
        assert im["block_agreement"].tolist() == [0.0]
        assert np.array_equal(im["hessian"], [np.eye(2)])
        assert im["surface_point"]["legendre_residual"][0] < lg.CONTACT_TOL

    def test_vdw_gram_vs_block(self):
        rng = np.random.default_rng(3)
        draw = samplers(rng)["van_der_waals"]
        im = lg.induced_metric(lg.van_der_waals(), [draw() for _ in range(25)])
        assert np.all(im["block_agreement"] < 1e-10)

    def test_mixed_block_zero(self):
        # phi = p1 * x^2 with I = {1}: both diagonal blocks vanish as well
        m = lg.quadratic([[0.0, 1.0], [1.0, 0.0]], part_i=(1,))
        im = lg.induced_metric(m, [[0.7, 1.3]])
        assert np.array_equal(im["pullback"], np.zeros((1, 2, 2)))
        assert im["block_agreement"].tolist() == [0.0]

    def test_mixed_partition_signs(self):
        m = lg.quadratic([[1.0, 1.0], [1.0, -1.0]], part_i=(1,))
        (pullback,) = lg.induced_metric(m, [[0.4, -0.9]])["pullback"]
        assert pullback[0, 0] == 2.0
        assert pullback[1, 1] == 2.0  # -2 * (-1)
        assert pullback[0, 1] == 0.0 == pullback[1, 0]


class TestFloatTables:
    """Float tables of G, the X fields and the Christoffel symbols against
    the exact polynomials they are read from."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tables_equal_exact_evaluation(self, n):
        rng = np.random.default_rng(n)
        metric = tps.phase_metric(n)
        names = metric.chart.names
        frame = dict(tps.canonical_frame(n))
        xfields = [frame[f"X{i}"] for i in range(1, n + 1)]
        gamma = metric.christoffel().nonzero()
        dyadic = [
            {nm: Fraction(int(rng.integers(-64, 65)), 2 ** int(rng.integers(0, 7))) for nm in names}
            for _ in range(20)
        ]
        # any finite float is a rational too: the tables round like the
        # exact value converted to float
        drawn = [{nm: Fraction(float(v)) for nm, v in zip(names, rng.normal(0, 3, len(names)))}
                 for _ in range(20)]
        for exact in dyadic + drawn:
            ambient = {nm: float(v) for nm, v in exact.items()}
            assert lg.ambient_metric(n, ambient).tolist() == [
                [float(e.evaluate(exact)) for e in row] for row in metric.g.entries
            ]
            _, xvec = lg._frame_vectors(n, ambient)
            assert xvec.tolist() == [[float(c.evaluate(exact)) for c in x.comps] for x in xfields]
            got = lg._gamma_values(n, ambient)
            assert [(names[u], names[a], names[b]) for u, a, b, _ in got] == list(gamma)
            assert [v for *_, v in got] == [float(p.evaluate(exact)) for p in gamma.values()]

    def test_negative_exponents_are_rejected(self):
        chart = Chart(["x0", "p1", "x1"], invertible=["p1"])
        with pytest.raises(ValueError):
            lg._terms(LaurentPoly(chart, {(0, -1, 0): 1}))


class TestFrames:
    """Tangent/normal frame construction and orthogonality."""

    def test_vw_table_mixed(self):
        m = lg.quadratic([[1.0, 1.0], [1.0, -1.0]], part_i=(1,))
        fr = lg.frames(m, [[0.4, -0.9]])
        v, w = vw_pair(m, fr)
        g = lg.ambient_metric(2, fr["surface_point"]["ambient"])
        assert np.array_equal(v @ g @ w.swapaxes(-1, -2), [np.diag([1.0, -1.0])])
        assert np.array_equal(fr["Y"], v + fr["induced"]["hessian"] @ w)

    def test_orthogonality_quadratic(self):
        m = lg.quadratic(np.diag([1.0, 2.0]))
        checks = frame_checks(m, lg.frames(m, [[1.5, -0.5]]))
        assert checks["yz_orthogonality"][0] < 1e-12
        assert checks["span_det"][0] > 1e-8
        assert frames_hold(checks).all()

    def test_normal_shape_momentumless(self):
        # I empty: Z_j = -(1/2)(P_j + hinv_{jl} X_l)
        m = lg.quadratic(np.diag([1.0, 2.0]))
        fr = lg.frames(m, [[1.5, -0.5]])
        n = 2
        amb = fr["surface_point"]["ambient"]
        pvec, (xvec,) = lg._frame_vectors(n, amb)
        hinv = np.diag([1.0, 0.5])
        for j in range(n):
            expect = -0.5 * (pvec[j] + sum(hinv[j, l] * xvec[l] for l in range(n)))
            assert np.allclose(fr["Z"][0, j], expect, atol=1e-14)

    def test_orthogonality_vdw_random(self):
        rng = np.random.default_rng(5)
        draw = samplers(rng)["van_der_waals"]
        m = lg.van_der_waals()
        checks = frame_checks(m, lg.frames(m, [draw() for _ in range(10)]))
        assert np.all(checks["yz_orthogonality"] < 1e-10)
        assert np.all(checks["span_det"] > 1e-8)

    def test_degenerate_metric(self):
        fr = lg.frames(lg.quadratic(np.zeros((2, 2))), [[1.0, 1.0]])
        assert fr["degenerate"].tolist() == [True]
        fr = lg.frames(lg.quadratic([[0.0, 1.0], [1.0, 0.0]], part_i=(1,)), [[0.7, 1.3]])
        assert fr["degenerate"].tolist() == [True]

    def test_graph_convention_rejected(self):
        # x0 = phi, p = +grad(phi) is not a Legendre surface; a model file
        # cannot ask for it
        with pytest.raises(ValueError, match="unknown key 'convention'"):
            lg.model_from_spec({"model": "van_der_waals", "convention": "graph"})


class TestSecondFundamentalForm:
    """Coefficients from third derivatives and the decomposition check."""

    def test_quadratic_totally_geodesic(self):
        m = lg.quadratic([[2.0, 1.0], [1.0, 3.0]])
        ii = lg.second_fundamental_form(m, [[0.3, -1.2]])
        assert ii["ii_norm"].tolist() == [0.0]
        assert ii["decomposition_residual"][0] < 1e-9
        assert frames_hold(frame_checks(m, ii["frames"])).all()
        assert symmetry_residual(ii["coefficients"]) == 0.0

    def test_cubic_coefficient(self):
        def ev(seeds):
            return seeds[0] ** 3

        m = lg.PotentialModel("cube", 1, (), ev, lambda xv: xv[0] ** 3)
        ii = lg.second_fundamental_form(m, [[1.0]])
        assert ii["coefficients"][0, 0, 0, 0] == 6.0
        assert ii["decomposition_residual"][0] < 1e-9

    def test_vdw_against_oracle(self):
        m = lg.van_der_waals()
        ii = lg.second_fundamental_form(m, [[1.0, 2.0]])
        for ix in jets._sorted_indices(2, 3):
            est, _ = fd_oracle(m.plain, [1.0, 2.0], ix)
            got = ii["coefficients"][0, ix[0], ix[1], ix[2]]
            assert abs(got - est) <= 1e-7 * abs(est), ix
        assert ii["decomposition_residual"][0] < 1e-9
        assert symmetry_residual(ii["coefficients"]) == 0.0

    def test_decomposition_random_vdw(self):
        rng = np.random.default_rng(9)
        draw = samplers(rng)["van_der_waals"]
        ii = lg.second_fundamental_form(lg.van_der_waals(), [draw() for _ in range(20)])
        assert np.all(ii["decomposition_residual"] < 1e-9)
        assert symmetry_residual(ii["coefficients"]) == 0.0

    def test_decomposition_mixed_partition(self):
        def ev(seeds):
            p1, x2 = seeds
            return p1 * p1 * x2 + p1 * (x2 * x2)

        m = lg.PotentialModel(
            "mixed_cubic", 2, (1,), ev, lambda xv: xv[0] ** 2 * xv[1] + xv[0] * xv[1] ** 2
        )
        ii = lg.second_fundamental_form(m, [[0.7, 1.3], [1.1, -0.6], [-0.8, 0.9]])
        assert np.all(ii["decomposition_residual"] < 1e-9)
        assert np.all(ii["ii_norm"] > 0.0)


class TestHomogeneity:
    """Scaling residuals and the degree-one constitutive checks."""

    def test_demo_degree_one(self):
        rng = np.random.default_rng(2)
        draw = samplers(rng)["homogeneous_demo"]
        rep = lg.homogeneity_check(lg.homogeneous_demo(), [draw() for _ in range(100)])
        assert rep["status"] == "checked"
        assert rep["scaling_residual"] < 1e-12
        assert rep["constitutive_residual"] < 1e-12
        assert rep["gibbs_duhem_residual"] < 1e-12
        assert rep["passed"]

    def test_linear_in_constitutive_surface(self):
        rng = np.random.default_rng(4)
        rep = lg.homogeneity_check(
            lg.linear([1.0, -2.0]), [rng.uniform(-2, 2, size=2) for _ in range(50)]
        )
        assert rep["passed"]
        assert rep["constitutive_residual"] < 1e-14

    def test_quadratic_degree_two(self):
        rng = np.random.default_rng(6)
        rep = lg.homogeneity_check(
            lg.quadratic([[2.0, 1.0], [1.0, 3.0]]),
            [rng.uniform(-2, 2, size=2) for _ in range(20)],
        )
        assert rep["degree"] == 2.0
        assert rep["passed"]
        assert "constitutive_residual" not in rep

    def test_vdw_not_applicable(self):
        rep = lg.homogeneity_check(lg.van_der_waals(), [])
        assert rep["status"] == "not-applicable"
        assert rep["passed"]


class TestStability:
    """Hessian definiteness classification."""

    def test_positive_definite(self):
        rep = lg.stability_classify(lg.quadratic(np.eye(2)), [[0.0, 0.0]])
        assert rep["classification"] == ["stable"]
        assert rep["definiteness"] == ["positive definite"]

    def test_hyperbolic(self):
        rep = lg.stability_classify(lg.quadratic([[0.0, 1.0], [1.0, 0.0]]), [[0.0, 0.0]])
        assert rep["classification"] == ["unstable"]
        assert rep["definiteness"] == ["indefinite"]
        assert rep["eigenvalues"] == [[-1.0, 1.0]]

    def test_marginal(self):
        rep = lg.stability_classify(lg.quadratic(np.diag([1.0, 0.0])), [[0.0, 0.0]])
        assert rep["classification"] == ["marginal"]

    def test_negative_definite(self):
        rep = lg.stability_classify(lg.quadratic(-np.eye(2)), [[0.0, 0.0]])
        assert rep["definiteness"] == ["negative definite"]
        assert rep["classification"] == ["unstable"]

    def test_vdw_spinodal(self):
        m = lg.van_der_waals()
        found = None
        for s in np.linspace(-3.0, 1.0, 21):
            for v in np.linspace(1.5, 4.0, 26):
                if np.linalg.det(m.jet([[s, v]]).hess[0]) < 0.0:
                    found = (s, v)
                    break
            if found:
                break
        assert found is not None
        rep = lg.stability_classify(m, [found])
        assert rep["classification"] == ["unstable"]
        assert rep["definiteness"] == ["indefinite"]


class TestModelSpecAndAnalyze:
    """JSON-style model construction and the per-point report."""

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            lg.model_from_spec({"model": "nope"})

    def test_quadratic_with_partition(self):
        m = lg.model_from_spec(
            {"model": "quadratic", "parameters": {"q": [[1, 1], [1, -1]]}, "partition": [1]}
        )
        assert m.part_i == frozenset({1})
        assert m.part_j == frozenset({2})

    def test_analyze_vdw(self):
        (rep,) = lg.analyze(lg.van_der_waals(), [[1.0, 2.0]])
        assert list(rep) == ["classification", "definiteness", "legendre_residual",
                             "block_agreement", "degenerate", "ii_norm"]
        assert rep["degenerate"] is False
        assert rep["legendre_residual"] < 1e-12
        assert rep["block_agreement"] < 1e-10
        assert rep["ii_norm"] > 0.0
        assert rep["classification"] in ("stable", "unstable", "marginal")

    def test_analyze_degenerate(self):
        (rep,) = lg.analyze(lg.linear([1.0, -2.0]), [[0.5, 0.5]])
        assert rep["degenerate"] is True
        assert rep["classification"] == "marginal"
        assert rep["definiteness"] == "degenerate"
        assert rep["block_agreement"] == 0.0
        assert rep["legendre_residual"] == 0.0

    @pytest.mark.parametrize("part_i", [(), (1,)], ids=["canonical", "mixed"])
    def test_analyze_evaluates_the_jet_once(self, part_i):
        # one point at a time, with no momenta or with p1 in place of x^1
        vdw = lg.van_der_waals()
        calls = []

        def counted(seeds):
            calls.append(None)
            return vdw.evaluator(seeds)

        m = lg.PotentialModel("counted", 2, part_i, counted, vdw.plain,
                              in_domain=vdw.in_domain)
        draw = samplers(np.random.default_rng(7))["van_der_waals"]
        for _ in range(10):
            calls.clear()
            (rep,) = lg.analyze(m, [draw()])
            assert len(calls) == 1
            assert rep["degenerate"] is False

    def test_positive_exponent_variant(self):
        m = lg.van_der_waals(positive_exponent=True)
        sp = lg.surface_point(m, [[1.0, 2.0]])
        assert sp["legendre_residual"][0] < 1e-12
        ii = lg.second_fundamental_form(m, [[1.0, 2.0]])
        assert ii["decomposition_residual"][0] < 1e-9


def cubic_on_one_axis():
    """phi = x1^3/6 + x2^2/2: hess = diag(x1, 1), degenerate where x1 = 0."""
    return lg.PotentialModel(
        "cubic", 2, (), lambda s: s[0] ** 3 * (1.0 / 6.0) + s[1] * s[1] * 0.5,
        lambda xv: xv[0] ** 3 / 6.0 + xv[1] ** 2 / 2.0,
    )


class TestBatch:
    """A batch of base points gives each point the report it gets alone."""

    @pytest.mark.parametrize(
        "make,draw",
        [
            (lambda: lg.van_der_waals(), "van_der_waals"),
            (lambda: lg.van_der_waals(positive_exponent=True), "van_der_waals"),
            (lambda: lg.ideal_gas_energy(), "ideal_gas_energy"),
            (lambda: lg.quadratic([[2.0, 1.0], [1.0, 3.0]]), "quadratic"),
            (lambda: lg.quadratic([[1.0, 1.0], [1.0, -1.0]], part_i=(1,)), "quadratic"),
            (lambda: lg.quadratic([[1.0, 0.0], [0.0, 0.0]]), "quadratic"),
            (lambda: lg.linear([1.0, -2.0]), "linear"),
            (lambda: lg.homogeneous_demo(), "homogeneous_demo"),
            (cubic_on_one_axis, "quadratic"),
        ],
    )
    def test_analyze_batch_equals_one_point(self, make, draw):
        # a batch of one gives the row that the point gets in a larger batch
        model = make()
        gen = samplers(np.random.default_rng(12))[draw]
        pts = np.array([gen() for _ in range(30)])
        if model.name == "cubic":
            pts[::7, 0] = 0.0  # degenerate points among the others
        reps = lg.analyze(model, pts)
        assert len(reps) == len(pts)
        for i, rep in enumerate(reps):
            assert json.dumps(rep) == json.dumps(lg.analyze(model, pts[i : i + 1])[0])
        if model.name == "cubic":
            assert [r["degenerate"] for r in reps] == [p[0] == 0.0 for p in pts]

    def test_frames_flag_degenerate_points_of_a_batch(self):
        pts = np.array([[0.0, 1.0], [1.0, 2.0], [0.0, -1.0], [-0.5, 0.3]])
        fr = lg.frames(cubic_on_one_axis(), pts)
        assert fr["degenerate"].tolist() == [True, False, True, False]
        assert fr["Y"].shape == (4, 2, 5)
        assert frames_hold(frame_checks(cubic_on_one_axis(), fr))[[1, 3]].all()
        ii = lg.second_fundamental_form(cubic_on_one_axis(), pts[[1, 3]])
        assert ii["coefficients"][:, 0, 0, 0].tolist() == [1.0, 1.0]

    def test_nan_metric_is_degenerate(self):
        # at x = 1e308 the pullback overflows to NaN; the singular J block
        # must never reach the inversion
        m = lg.quadratic([[1.0, 0.0], [0.0, 0.0]])
        assert lg.frames(m, [[1e308, 2.0]])["degenerate"].tolist() == [True]
        assert lg.analyze(m, [[1e308, 2.0]])[0]["degenerate"] is True

    def test_jet_overflow_is_a_domain_error(self):
        demo = lg.homogeneous_demo()
        for pts in ([[1e-320, 3.0]], [[1e308, 2.0]], [[1.0, 2.0], [1e308, 2.0]]):
            with pytest.raises(DomainError):
                demo.jet(pts)
        with pytest.raises(DomainError):
            lg.analyze(lg.ideal_gas_energy(), [[0.0, 1e-300]])

    @pytest.mark.parametrize(
        "name", ["jet", "surface_point", "induced_metric", "frames", "second_fundamental_form",
                 "stability_classify", "analyze"],
    )
    def test_a_single_point_is_not_a_batch(self, name):
        m = lg.van_der_waals()
        call = m.jet if name == "jet" else lambda base: getattr(lg, name)(m, base)
        with pytest.raises(ValueError, match=r"batch of shape \(N, 2\)"):
            call([1.0, 2.0])
        call([[1.0, 2.0]])  # the same point as a batch of one

    def test_admits_flags_each_point(self):
        m = lg.van_der_waals()
        pts = [[0.0, 2.0], [0.0, 0.5], [np.nan, 2.0], [1.0, np.inf], [-1.0, 1.5]]
        assert m.admits(pts).tolist() == [True, False, False, False, True]

    def test_one_jet_per_batch(self):
        vdw = lg.van_der_waals()
        calls = []

        def counted(seeds):
            calls.append(None)
            return vdw.evaluator(seeds)

        m = lg.PotentialModel("counted", 2, (), counted, vdw.plain, in_domain=vdw.in_domain)
        draw = samplers(np.random.default_rng(7))["van_der_waals"]
        for size in (1, 40):
            calls.clear()
            reps = lg.analyze(m, [draw() for _ in range(size)])
            assert len(reps) == size and len(calls) == 1
            assert not any(rep["degenerate"] for rep in reps)


def test_a_mutated_hessian_fails_the_surface_claims_with_witnesses(monkeypatch):
    # van der Waals' Hessian raised by 50 I in the suite's view of legendre
    # only: the jet no longer matches the difference oracle, and the Hessian
    # turns definite, so no spinodal point is left on either grid
    def bumped(**kw):
        model = lg.van_der_waals(**kw)

        def evaluator(seeds):
            jet = model.evaluator(seeds)
            return Jet3(jet.nvars, jet.value, jet.grad, jet.hess + 50.0 * np.eye(2), jet.third)

        return lg.PotentialModel(model.name, model.nvars, model.part_i, evaluator, model.plain,
                                 model.parameters, model.homogeneous_degree, model.in_domain)

    before = {r.claim: r for r in suites.suite_legendre()}
    view = types.SimpleNamespace(**vars(lg))
    view.van_der_waals = bumped
    monkeypatch.setattr(suites, "legendre", view)
    after = {r.claim: r for r in suites.suite_legendre()}

    assert list(after) == list(before)
    failed = {claim: r.witness for claim, r in after.items() if r.status == "fail"}
    fd = "van der Waals second derivatives match the difference oracle at (S,V)=(1,2) within 1e-8 relative"
    literal = "literal-exponent van der Waals grid contains an indefinite (spinodal) point"
    physical = "physical-exponent van der Waals spinodal found for S in [-3, 1]"
    assert set(failed) == {fd, literal, physical}
    assert all(before[claim].status == "numeric-pass" for claim in failed)
    assert failed[fd]["max_abs_diff"] > 1.0 > failed[fd]["tolerance"]
    assert failed[literal] == before[literal].witness
    assert failed[physical] == {"point": None}


def chain_rule_x0_row(model, base, jet):
    """dx0/db_k = d_k phi - sum_{i in I} (delta_ik d_i phi + b_i d_ik phi),
    the chain rule on x0 = phi - sum_{i in I} b_i d_i phi, from the jet
    alone."""
    b = np.asarray(base, dtype=float)
    row = np.array(jet.grad, dtype=float)
    for i in model.part_i:
        row[..., i - 1] -= jet.grad[..., i - 1]
        row = row - b[..., i - 1, None] * jet.hess[..., i - 1, :]
    return row


def suite_surfaces(monkeypatch):
    """(name, model, base points) of every surface the legendre suite
    samples, recorded from a run of the suite itself."""
    seen = []

    def recording(model, base):
        seen.append((model.name, model, np.array(base)))
        return lg.induced_metric(model, base)

    view = types.SimpleNamespace(**vars(lg))
    view.induced_metric = recording
    monkeypatch.setattr(suites, "legendre", view)
    suites.suite_legendre()
    return seen


def x0_row_mismatch(model, base, jet, tangent):
    row = chain_rule_x0_row(model, base, jet)
    return float(np.max(np.abs(tangent[..., 0] - row) / (1.0 + np.abs(row))))


def test_the_tangent_x0_row_is_the_chain_rule_of_x0(monkeypatch):
    # the frame writes the x0 row as -sum p_s t_{x_s}, the contact condition;
    # on a Legendre surface that is dx0/db by the chain rule, which this
    # computes from the jet alone
    surfaces = suite_surfaces(monkeypatch)
    assert len(surfaces) == 6
    assert any(model.part_i for _, model, _ in surfaces)  # quadratic_mixed
    for name, model, base in surfaces:
        sp = lg.surface_point(model, base)
        assert x0_row_mismatch(model, base, sp["jet"], sp["tangent"]) < 1e-12, name


def test_flipped_momenta_on_j_fail_the_chain_rule_row(monkeypatch):
    # p_j = +d_j phi instead of -d_j phi: the frame still satisfies the
    # contact condition it is built from, but no longer the chain rule
    for name, model, base in suite_surfaces(monkeypatch):
        jet = model.jet(base)
        p = np.where(model._in_i(), base, jet.grad)
        tangent = lg._tangent_frame(model, jet, p)
        assert x0_row_mismatch(model, base, jet, tangent) > 1e-3, name


def canonical_map(q, part_i):
    """The canonical parametrisation of phi = (1/2) b^T Q b as a map from
    the base chart (b1..bn) to the phase space: x0 = phi - sum_I b_i phi_i;
    p_i = b_i and x_i = phi_i on I; p_j = -phi_j and x_j = b_j on J."""
    n = len(q)
    src = Chart([f"b{k}" for k in range(1, n + 1)])
    b = [LaurentPoly.variable(src, f"b{k}") for k in range(1, n + 1)]
    grad = [sum((b[l] * q[k][l] for l in range(n)), LaurentPoly.zero(src)) for k in range(n)]
    phi = sum((b[k] * grad[k] for k in range(n)), LaurentPoly.zero(src)) * Fraction(1, 2)
    comps = {"x0": phi}
    for k in range(1, n + 1):
        if k in part_i:
            comps["x0"] = comps["x0"] - b[k - 1] * grad[k - 1]
            comps[f"p{k}"], comps[f"x{k}"] = b[k - 1], grad[k - 1]
        else:
            comps[f"p{k}"], comps[f"x{k}"] = -grad[k - 1], b[k - 1]
    return PolyMap(src, tps.tps_chart(n), comps)


def block_formula(q, part_i):
    """+2Q on I x I, -2Q on J x J, zero across."""
    n = len(q)
    in_i = [k in part_i for k in range(1, n + 1)]
    return [
        [(2 if in_i[a] else -2) * q[a][c] if in_i[a] == in_i[c] else Fraction(0) for c in range(n)]
        for a in range(n)
    ]


HALF = Fraction(1, 2)
QUADRATIC_CASES = [
    ([[Fraction(3)]], ()),
    ([[Fraction(-5, 3)]], (1,)),
    # the matrix the legendre suite samples, as quadratic and quadratic_mixed
    ([[Fraction(2), HALF], [HALF, Fraction(1)]], ()),
    ([[Fraction(2), HALF], [HALF, Fraction(1)]], (1,)),
    ([[Fraction(1), Fraction(-3, 4)], [Fraction(-3, 4), Fraction(0)]], (2,)),
    ([[Fraction(1), Fraction(1, 3), Fraction(-2)],
      [Fraction(1, 3), Fraction(-1), Fraction(1, 4)],
      [Fraction(-2), Fraction(1, 4), Fraction(5, 2)]], ()),
    ([[Fraction(1), Fraction(1, 3), Fraction(-2)],
      [Fraction(1, 3), Fraction(-1), Fraction(1, 4)],
      [Fraction(-2), Fraction(1, 4), Fraction(5, 2)]], (1, 3)),
    ([[Fraction(0), Fraction(2), Fraction(0)],
      [Fraction(2), Fraction(7, 5), Fraction(-1)],
      [Fraction(0), Fraction(-1), Fraction(0)]], (2,)),
]


@pytest.mark.parametrize("q, part_i", QUADRATIC_CASES)
def test_quadratic_surface_is_legendre_with_the_block_metric_exactly(q, part_i):
    # the parametrisation is polynomial, so theta|_L = 0 and the induced
    # metric are LaurentPoly identities
    fmap = canonical_map(q, part_i)
    assert fmap.pull_form(tps.contact_form(len(q))).is_zero()
    want = [[LaurentPoly.constant(fmap.src, v) for v in row] for row in block_formula(q, part_i)]
    assert fmap.pull_metric(tps.phase_metric(len(q)).g) == PolyMatrix(fmap.src, want)


@pytest.mark.parametrize("q, part_i", QUADRATIC_CASES)
def test_float_induced_metric_of_a_quadratic_matches_the_exact_one(q, part_i):
    model = lg.quadratic([[float(v) for v in row] for row in q], part_i=part_i)
    pts = np.random.default_rng(len(q) + len(part_i)).uniform(-2.0, 2.0, size=(6, len(q)))
    want = np.array(block_formula(q, part_i), dtype=float)
    pullback = lg.induced_metric(model, pts)["pullback"]
    assert np.max(np.abs(pullback - want)) < lg.BLOCK_TOL


# the points suite_legendre drew one scalar at a time before its draws were
# batched: per draw, the number of points and each coordinate's (low, high)
VDW_BOX = [(-1.5, 1.5), (1.3, 4.0)]
SQUARE = [(-2.0, 2.0), (-2.0, 2.0)]
DEMO_BOX = [(0.5, 3.0), (-2.0, 2.0)]
FORMER_DRAWS = [
    (100, VDW_BOX),
    (100, VDW_BOX),
    (100, [(-1.5, 1.5), (0.4, 4.0)]),
    (100, SQUARE),
    (100, SQUARE),
    (100, DEMO_BOX),
    (20, SQUARE),
    (10, [(-1.0, 1.0), (1.5, 3.0)]),
    (10, DEMO_BOX),
]


def test_the_suite_draws_its_points_as_the_former_scalar_draws(monkeypatch):
    # every draw of the suite, k points as one rng.uniform(low, high,
    # size=(k, 2)) of the in-package PCG64 stream, equals bit for bit the k
    # points that the former scalar draws, one per coordinate in order, take
    # from numpy's generator of the same seed, and leaves the stream in the
    # same 128-bit state; so the claims and witnesses keep their values
    recorders = []

    class Recording(pcg.PCG64):
        def __init__(self, seed):
            super().__init__(seed)
            self.seed, self.draws = seed, []
            recorders.append(self)

        def uniform(self, low, high, size):
            self.draws.append(super().uniform(low, high, size))
            return self.draws[-1]

    monkeypatch.setattr(pcg, "PCG64", Recording)
    suites.suite_legendre()
    (rec,) = recorders
    assert rec.seed == 20260825
    assert len(rec.draws) == len(FORMER_DRAWS)
    scalar = np.random.default_rng(rec.seed)
    for out, (k, box) in zip(rec.draws, FORMER_DRAWS):
        old = np.array([[scalar.uniform(lo, hi) for lo, hi in box] for _ in range(k)])
        assert out.shape == old.shape and out.dtype == old.dtype
        assert out.tobytes() == old.tobytes()
    assert scalar.bit_generator.state["state"] == {"state": rec.state, "inc": rec.inc}
