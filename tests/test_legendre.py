"""Legendre surfaces from potentials: parameterization, induced metric,
adapted frames, second fundamental form, homogeneity, stability."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from tpsgeo import jets, legendre as lg, tps
from tpsgeo.jets import DomainError, Jet3, fd_oracle
from tpsgeo.legendre import DegenerateSurfaceError
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


class TestSurfacePoint:
    """Ambient parameterization and the Legendre property."""

    def test_zero_potential(self):
        m = lg.quadratic(np.zeros((2, 2)))
        sp = lg.surface_point(m, [3.0, -4.0])
        assert sp["ambient"] == {"x0": 0.0, "p1": 0.0, "p2": 0.0, "x1": 3.0, "x2": -4.0}

    def test_half_sum_of_squares(self):
        m = lg.quadratic(np.eye(2))
        sp = lg.surface_point(m, [1.0, 2.0])
        assert sp["ambient"] == {"x0": 2.5, "p1": -1.0, "p2": -2.0, "x1": 1.0, "x2": 2.0}
        assert sp["legendre_residual"] == 0.0

    def test_momentum_part_passthrough(self):
        m = lg.quadratic([[2.0, 1.0], [1.0, 3.0]], part_i=(1,))
        sp = lg.surface_point(m, [0.5, 2.0])
        # p_1 is a base coordinate, x^1 = d(phi)/d(p_1)
        assert sp["ambient"]["p1"] == 0.5
        assert sp["ambient"]["x1"] == 2.0 * 0.5 + 1.0 * 2.0
        assert sp["ambient"]["x2"] == 2.0
        assert sp["legendre_residual"] < 1e-15

    def test_graph_convention_gives_temperature(self):
        spec = {"model": "van_der_waals", "convention": "graph"}
        m = lg.model_from_spec(spec)
        sp = lg.surface_point(m, [1.0, 2.0])
        for k, ix in (("p1", (0,)), ("p2", (1,))):
            est, _ = fd_oracle(m.plain, [1.0, 2.0], ix)
            assert abs(sp["ambient"][k] - est) <= 1e-8 * abs(est)

    def test_legendre_residual_catalog(self):
        rng = np.random.default_rng(11)
        gen = samplers(rng)
        for model in catalog_models():
            draw = gen[model.name]
            for _ in range(100):
                sp = lg.surface_point(model, draw())
                assert sp["legendre_residual"] < 1e-12, model.name

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            lg.surface_point(lg.van_der_waals(), [1.0, 0.5])
        with pytest.raises(ValueError):
            lg.surface_point(lg.van_der_waals(), [1.0, 2.0, 3.0])


class TestInducedMetric:
    """Gram of the tangent frame against the block formula."""

    def test_quadratic_block(self):
        im = lg.induced_metric(lg.quadratic(np.eye(2)), [1.0, 2.0])
        assert np.array_equal(im["pullback"], -2.0 * np.eye(2))
        assert im["block_agreement"] == 0.0
        assert np.array_equal(im["hessian"], np.eye(2))
        assert im["passed"]

    def test_vdw_gram_vs_block(self):
        rng = np.random.default_rng(3)
        draw = samplers(rng)["van_der_waals"]
        m = lg.van_der_waals()
        for _ in range(25):
            im = lg.induced_metric(m, draw())
            assert im["block_agreement"] < 1e-10

    def test_mixed_block_zero(self):
        # phi = p1 * x^2 with I = {1}: both diagonal blocks vanish as well
        m = lg.quadratic([[0.0, 1.0], [1.0, 0.0]], part_i=(1,))
        im = lg.induced_metric(m, [0.7, 1.3])
        assert np.array_equal(im["pullback"], np.zeros((2, 2)))
        assert im["block_agreement"] == 0.0

    def test_mixed_partition_signs(self):
        m = lg.quadratic([[1.0, 1.0], [1.0, -1.0]], part_i=(1,))
        im = lg.induced_metric(m, [0.4, -0.9])
        assert im["pullback"][0, 0] == 2.0
        assert im["pullback"][1, 1] == 2.0  # -2 * (-1)
        assert im["pullback"][0, 1] == 0.0 == im["pullback"][1, 0]

    def test_graph_convention_factor_two(self):
        spec = {"model": "quadratic", "parameters": {"q": [[1.0, 0.0], [0.0, 1.0]]},
                "convention": "graph"}
        m = lg.model_from_spec(spec)
        im = lg.induced_metric(m, [1.0, 2.0])
        assert np.array_equal(im["symplectic_part"], 2.0 * np.eye(2))
        assert np.array_equal(im["hessian"], np.eye(2))
        theta = 2.0 * np.array([1.0, 2.0])
        assert np.allclose(im["pullback"], 2.0 * np.eye(2) + np.outer(theta, theta), atol=1e-14)
        assert im["block_agreement"] < 1e-12


class TestFloatTables:
    """Float tables of G, the X fields and the Christoffel symbols against
    the exact polynomials they are read from."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tables_equal_exact_evaluation(self, n):
        rng = np.random.default_rng(n)
        metric = tps.phase_metric(n)
        names = metric.chart.names
        xfields = tps.canonical_frame(n)["X"]
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
            _, _, xvec = lg._frame_vectors(n, ambient)
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
        fr = lg.frames(m, [0.4, -0.9])
        assert fr["checks"]["vw_table"] == 0.0
        g = lg.ambient_metric(2, fr["surface_point"]["ambient"])
        vw = fr["V"] @ g @ fr["W"].T
        assert np.array_equal(vw, np.diag([1.0, -1.0]))

    def test_orthogonality_quadratic(self):
        fr = lg.frames(lg.quadratic(np.diag([1.0, 2.0])), [1.5, -0.5])
        assert fr["checks"]["yz_orthogonality"] < 1e-12
        assert fr["checks"]["span_det"] > 1e-8
        assert fr["passed"]

    def test_normal_shape_momentumless(self):
        # I empty: Z_j = -(1/2)(P_j + hinv_{jl} X_l)
        m = lg.quadratic(np.diag([1.0, 2.0]))
        fr = lg.frames(m, [1.5, -0.5])
        n = 2
        amb = fr["surface_point"]["ambient"]
        _, pvec, xvec = lg._frame_vectors(n, amb)
        hinv = np.diag([1.0, 0.5])
        for j in range(n):
            expect = -0.5 * (pvec[j] + sum(hinv[j, l] * xvec[l] for l in range(n)))
            assert np.allclose(fr["Z"][j], expect, atol=1e-14)

    def test_orthogonality_vdw_random(self):
        rng = np.random.default_rng(5)
        draw = samplers(rng)["van_der_waals"]
        m = lg.van_der_waals()
        for _ in range(10):
            fr = lg.frames(m, draw())
            assert fr["checks"]["yz_orthogonality"] < 1e-10
            assert fr["checks"]["span_det"] > 1e-8

    def test_degenerate_metric(self):
        with pytest.raises(DegenerateSurfaceError):
            lg.frames(lg.quadratic(np.zeros((2, 2))), [1.0, 1.0])
        with pytest.raises(DegenerateSurfaceError):
            lg.frames(lg.quadratic([[0.0, 1.0], [1.0, 0.0]], part_i=(1,)), [0.7, 1.3])

    def test_graph_convention_rejected(self):
        m = lg.model_from_spec({"model": "van_der_waals", "convention": "graph"})
        with pytest.raises(ValueError):
            lg.frames(m, [1.0, 2.0])


class TestSecondFundamentalForm:
    """Coefficients from third derivatives and the decomposition check."""

    def test_quadratic_totally_geodesic(self):
        ii = lg.second_fundamental_form(lg.quadratic([[2.0, 1.0], [1.0, 3.0]]), [0.3, -1.2])
        assert ii["totally_geodesic"]
        assert ii["ii_norm"] == 0.0
        assert ii["decomposition_residual"] < 1e-9
        assert ii["passed"]

    def test_cubic_coefficient(self):
        def ev(seeds):
            return seeds[0] ** 3

        m = lg.PotentialModel("cube", 1, (), ev, lambda xv: xv[0] ** 3)
        ii = lg.second_fundamental_form(m, [1.0])
        assert ii["coefficients"][0, 0, 0] == 6.0
        assert ii["decomposition_residual"] < 1e-9

    def test_vdw_against_oracle(self):
        m = lg.van_der_waals()
        ii = lg.second_fundamental_form(m, [1.0, 2.0])
        for ix in jets._sorted_indices(2, 3):
            est, _ = fd_oracle(m.plain, [1.0, 2.0], ix)
            got = ii["coefficients"][ix[0], ix[1], ix[2]]
            assert abs(got - est) <= 1e-7 * abs(est), ix
        assert ii["decomposition_residual"] < 1e-9
        assert ii["symmetry_residual"] == 0.0

    def test_decomposition_random_vdw(self):
        rng = np.random.default_rng(9)
        draw = samplers(rng)["van_der_waals"]
        m = lg.van_der_waals()
        for _ in range(20):
            ii = lg.second_fundamental_form(m, draw())
            assert ii["decomposition_residual"] < 1e-9
            assert ii["symmetry_residual"] == 0.0

    def test_decomposition_mixed_partition(self):
        def ev(seeds):
            p1, x2 = seeds
            return p1 * p1 * x2 + p1 * (x2 * x2)

        m = lg.PotentialModel(
            "mixed_cubic", 2, (1,), ev, lambda xv: xv[0] ** 2 * xv[1] + xv[0] * xv[1] ** 2
        )
        for base in ([0.7, 1.3], [1.1, -0.6], [-0.8, 0.9]):
            ii = lg.second_fundamental_form(m, base)
            assert ii["decomposition_residual"] < 1e-9
            assert ii["ii_norm"] > 0.0


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
        rep = lg.stability_classify(lg.quadratic(np.eye(2)), [0.0, 0.0])
        assert rep["classification"] == "stable"
        assert rep["definiteness"] == "positive definite"

    def test_hyperbolic(self):
        rep = lg.stability_classify(lg.quadratic([[0.0, 1.0], [1.0, 0.0]]), [0.0, 0.0])
        assert rep["classification"] == "unstable"
        assert rep["definiteness"] == "indefinite"
        assert rep["eigenvalues"] == [-1.0, 1.0]

    def test_marginal(self):
        rep = lg.stability_classify(lg.quadratic(np.diag([1.0, 0.0])), [0.0, 0.0])
        assert rep["classification"] == "marginal"

    def test_negative_definite(self):
        rep = lg.stability_classify(lg.quadratic(-np.eye(2)), [0.0, 0.0])
        assert rep["definiteness"] == "negative definite"
        assert rep["classification"] == "unstable"

    def test_vdw_spinodal(self):
        m = lg.van_der_waals()
        found = None
        for s in np.linspace(-3.0, 1.0, 21):
            for v in np.linspace(1.5, 4.0, 26):
                if np.linalg.det(m.jet(np.array([s, v])).hess) < 0.0:
                    found = (s, v)
                    break
            if found:
                break
        assert found is not None
        rep = lg.stability_classify(m, found)
        assert rep["classification"] == "unstable"
        assert rep["definiteness"] == "indefinite"


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
        rep = lg.analyze(lg.van_der_waals(), [1.0, 2.0])
        assert rep["model"] == "van_der_waals"
        assert rep["degenerate"] is False
        assert rep["legendre_residual"] < 1e-12
        assert rep["block_agreement"] < 1e-10
        assert rep["decomposition_residual"] < 1e-9
        assert rep["ii_norm"] > 0.0
        assert rep["classification"] in ("stable", "unstable", "marginal")

    def test_analyze_degenerate(self):
        rep = lg.analyze(lg.linear([1.0, -2.0]), [0.5, 0.5])
        assert rep["degenerate"] is True
        assert rep["classification"] == "marginal"
        assert rep["pullback_metric"] == [[0.0, 0.0], [0.0, 0.0]]
        assert rep["hessian"] == [[0.0, 0.0], [0.0, 0.0]]
        assert rep["block_agreement"] == 0.0
        assert rep["ambient"] == {"x0": -0.5, "p1": -1.0, "p2": 2.0, "x1": 0.5, "x2": 0.5}
        assert "ii_norm" not in rep

    @pytest.mark.parametrize("convention", ["canonical", "graph"])
    def test_analyze_evaluates_the_jet_once(self, convention):
        vdw = lg.van_der_waals()
        calls = []

        def counted(seeds):
            calls.append(None)
            return vdw.evaluator(seeds)

        m = lg.PotentialModel("counted", 2, (), counted, vdw.plain,
                              convention=convention, in_domain=vdw.in_domain)
        rng = np.random.default_rng(7)
        draw = samplers(rng)["van_der_waals"]
        for _ in range(10):
            calls.clear()
            rep = lg.analyze(m, draw())
            assert len(calls) == 1
            assert rep.get("degenerate", False) is False

    def test_positive_exponent_variant(self):
        m = lg.van_der_waals(positive_exponent=True)
        sp = lg.surface_point(m, [1.0, 2.0])
        assert sp["legendre_residual"] < 1e-12
        ii = lg.second_fundamental_form(m, [1.0, 2.0])
        assert ii["decomposition_residual"] < 1e-9

    def test_convention_is_reported(self):
        m = lg.model_from_spec({"model": "van_der_waals", "convention": "graph"})
        rep = lg.analyze(m, [1.0, 2.0])
        assert rep["convention"] == "graph"
        assert "ii_norm" not in rep


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
            (lambda: lg.model_from_spec({"model": "van_der_waals", "convention": "graph"}),
             "van_der_waals"),
            (cubic_on_one_axis, "quadratic"),
        ],
    )
    def test_analyze_batch_equals_one_point(self, make, draw):
        model = make()
        gen = samplers(np.random.default_rng(12))[draw]
        pts = np.array([gen() for _ in range(30)])
        if model.name == "cubic":
            pts[::7, 0] = 0.0  # degenerate points among the others
        reps = lg.analyze(model, pts)
        assert len(reps) == len(pts)
        for pt, rep in zip(pts, reps):
            assert json.dumps(rep) == json.dumps(lg.analyze(model, pt))
        if model.name == "cubic":
            assert [r["degenerate"] for r in reps] == [p[0] == 0.0 for p in pts]

    def test_frames_flag_degenerate_points_of_a_batch(self):
        pts = np.array([[0.0, 1.0], [1.0, 2.0], [0.0, -1.0], [-0.5, 0.3]])
        fr = lg.frames(cubic_on_one_axis(), pts)
        assert fr["degenerate"].tolist() == [True, False, True, False]
        assert fr["Y"].shape == (4, 2, 5) and fr["passed"][[1, 3]].all()
        ii = lg.second_fundamental_form(cubic_on_one_axis(), pts[[1, 3]])
        assert ii["coefficients"][:, 0, 0, 0].tolist() == [1.0, 1.0]

    def test_nan_metric_is_degenerate(self):
        # at x = 1e308 the pullback overflows to NaN; the singular J block
        # must never reach the inversion
        m = lg.quadratic([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateSurfaceError):
            lg.frames(m, [1e308, 2.0])
        assert lg.analyze(m, [1e308, 2.0])["degenerate"] is True

    def test_jet_overflow_is_a_domain_error(self):
        demo = lg.homogeneous_demo()
        for pt in ([1e-320, 3.0], [1e308, 2.0], [[1.0, 2.0], [1e308, 2.0]]):
            with pytest.raises(DomainError):
                demo.jet(pt)
        with pytest.raises(DomainError):
            lg.analyze(lg.ideal_gas_energy(), [0.0, 1e-300])

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
        assert len(lg.analyze(m, [draw() for _ in range(40)])) == 40
        assert len(calls) == 1
