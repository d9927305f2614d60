"""Symplectization: lifted metric, embedding, frame, isometries, cone
complex structure, scaling action, projectivization, cells, quadric, affine
symplectomorphism."""

import functools
from fractions import Fraction

import pytest

from tpsgeo.fields import Form, VectorField
from tpsgeo.linalg import solve_exact
from tpsgeo.poly import LaurentPoly
from tpsgeo import killing, suites, sympl, tps

from test_acceptance import computed_matches_closed_form

HALF = Fraction(1, 2)


def sympl_catalog_report(n):
    return killing.catalog_report(sympl.sympl_metric(n), sympl.killing_catalog(n), (n + 2) ** 2 - 1)


class TestMetric:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_det_sign(self, n):
        m = sympl.sympl_metric(n)
        assert m.det == LaurentPoly.constant(m.chart, Fraction((-1) ** (n + 1)))

    def test_blocks_n1(self):
        m = sympl.sympl_metric(1)
        c = m.chart
        p0, p1 = LaurentPoly.variable(c, "p0"), LaurentPoly.variable(c, "p1")
        assert m.g.entries[c.index("p0")][c.index("p1")].is_zero()
        assert m.g.entries[c.index("p0")][c.index("x0")] == 1
        assert m.g.entries[c.index("x0")][c.index("x1")] == p0 * p1
        assert m.g_inv.entries[c.index("p0")][c.index("p1")] == -(p0 * p1)
        assert m.g_inv.entries[c.index("x0")][c.index("x1")].is_zero()

    @pytest.mark.parametrize("n", [1, 2])
    def test_christoffel_table_verbatim(self, n):
        got = sympl.sympl_metric(n).christoffel().nonzero()
        chart = sympl.sympl_chart(n)

        def p(i):
            return LaurentPoly.variable(chart, f"p{i}")

        expect = {}
        for i in range(n + 1):
            for j in range(n + 1):
                for k in range(n + 1):
                    # upper p_i, lower (p_j, x^k)
                    val = LaurentPoly.zero(chart)
                    if i == j:
                        val = val + p(k) * HALF
                    if j == k:
                        val = val + p(i) * HALF
                    if not val.is_zero():
                        expect[(f"p{i}", f"p{j}", f"x{k}")] = val
                    if j <= k:
                        expect[(f"p{i}", f"x{j}", f"x{k}")] = p(i) * p(j) * p(k)
                        xval = LaurentPoly.zero(chart)
                        if i == j:
                            xval = xval + p(k) * (-HALF)
                        if i == k:
                            xval = xval + p(j) * (-HALF)
                        if not xval.is_zero():
                            expect[(f"x{i}", f"x{j}", f"x{k}")] = xval
        assert got == expect

    @pytest.mark.parametrize("n", [1, 2])
    def test_einstein(self, n):
        rep = sympl.einstein_report(n)
        assert rep["passed"]
        assert rep["einstein_factor"] == Fraction(n + 2, 2)
        assert rep["scalar"] == (n + 1) * (n + 2)

    @pytest.mark.parametrize("n", [1, 2])
    def test_volume(self, n):
        rep = sympl.volume_report(n)
        assert rep["passed"]
        assert rep["pfaffian_sign"] == (-1) ** (n * (n + 1) // 2)


class TestEmbedding:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pullbacks(self, n):
        assert sympl.embedding_report(n)["passed"]

    def test_theta_pullback_explicit(self):
        j = sympl.embedding(2)
        pulled = j.pull_form(sympl.build(2).theta)
        src = j.src
        assert pulled == Form.one_form(
            src,
            {
                "x0": LaurentPoly.one(src),
                "x1": LaurentPoly.variable(src, "p1"),
                "x2": LaurentPoly.variable(src, "p2"),
            },
        )


class TestFrame:
    @pytest.mark.parametrize("n", [1, 2])
    def test_report(self, n):
        assert sympl.frame_report(n)["passed"]

    def test_single_relations(self):
        from tpsgeo.fields import bracket

        fr = sympl.canonical_frame(2)
        g = sympl.sympl_metric(2)
        assert bracket(fr["P"][1], fr["L"][1]) == fr["L"][1].scale(-1)
        assert bracket(fr["X"][1], fr["X"][2]) == (fr["X"][2] - fr["X"][1]).scale(HALF)
        for i in range(3):
            for j in range(3):
                assert g.inner(fr["X"][i], fr["X"][j]).is_zero()

    @pytest.mark.parametrize("n", [1, 2])
    def test_null_cone(self, n):
        assert sympl.null_cone_identity(n)["passed"]


class TestIsometries:
    @pytest.mark.parametrize("n", [1, 2])
    def test_catalog(self, n):
        rep = sympl_catalog_report(n)
        assert rep["passed"]
        assert rep["count"] == (n + 2) ** 2 - 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_brackets(self, n):
        assert sympl.bracket_report(n)["passed"]

    @pytest.mark.parametrize("n", [1, 2])
    def test_hamiltonians(self, n):
        assert sympl.hamiltonian_report(n)["passed"]

    def test_hamiltonian_translation_example(self):
        s = sympl.build(1)
        cat = dict(sympl.killing_catalog(1))
        h = Form.function(s.chart, -LaurentPoly.variable(s.chart, "p1"))
        assert s.omega.insert(cat["X1"]) == h.d()

    def test_d_fields_commute(self):
        from tpsgeo.fields import bracket

        cat = dict(sympl.killing_catalog(2))
        assert bracket(cat["D0"], cat["D1"]).is_zero()
        assert bracket(cat["D1"], cat["D2"]).is_zero()

    # n = 4 and 5 lie past the command line's MAX_N (3); the sparse tables
    # keep them cheap
    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_sl_embedding(self, n):
        rep = sympl.sl_embedding_report(n)
        assert rep["passed"]
        assert rep["dimension"] == (n + 2) ** 2 - 1
        assert computed_matches_closed_form(sympl.killing_catalog(n), sympl.catalog_brackets(n))

    @pytest.mark.parametrize("n", [1, 2])
    def test_matrix_table_matches_sympy(self, n):
        # an optional test dependency (pyproject.toml); skipped where missing
        sympy = pytest.importorskip("sympy")
        m = n + 2

        def unit(i, j):
            return sympy.Matrix(m, m, lambda r, c: int((r, c) == (i, j)))

        # the picture as printed: Q^i_j -> E_ij - delta_ij/(n+2),
        # X_s -> i E_{n+1,s}, D^l -> i E_{l,n+1}
        mats = [
            (f"Q{i}_{j}", unit(i, j) - (sympy.eye(m) / m if i == j else sympy.zeros(m, m)))
            for i in range(n + 1)
            for j in range(n + 1)
        ]
        mats += [(f"X{s}", sympy.I * unit(m - 1, s)) for s in range(n + 1)]
        mats += [(f"D{l}", sympy.I * unit(l, m - 1)) for l in range(n + 1)]
        for (label, sparse), (want_label, want) in zip(sympl.sl_matrices(n), mats, strict=True):
            got = sympy.zeros(m, m)
            for (part, i, j), v in sparse.items():
                got[i, j] += (sympy.I if part else 1) * sympy.Rational(v.numerator, v.denominator)
            assert label == want_label and got == want

        def coords(mat):
            """Real parts, then imaginary parts, as one column."""
            return sympy.Matrix([sympy.re(v) for v in mat] + [sympy.im(v) for v in mat])

        basis = sympy.Matrix.hstack(*[coords(mat) for _, mat in mats])
        assert basis.rank() == len(mats)
        left = (basis.T * basis).inv() * basis.T
        table = {}
        for k, (a, x) in enumerate(mats):
            for b, y in mats[k + 1:]:
                target = coords(x * y - y * x)
                sol = left * target
                assert basis * sol == target  # the commutator lies in the span
                row = {mats[c][0]: Fraction(int(v.p), int(v.q)) for c, v in enumerate(sol) if v}
                if row:
                    table[a, b] = row
        got = killing.structure_constants(sympl.sl_matrices(n), lambda mat: mat, sympl._cbracket)
        assert got == table


class TestConeComplexStructure:
    @pytest.mark.parametrize("n", [1, 2])
    def test_nijenhuis(self, n):
        rep = sympl.nijenhuis_report(n)
        assert rep["passed"]
        assert rep["pairs_checked"] == (2 * n + 2) * (2 * n + 3) // 2
        assert rep["remark_witness"] == "-2"
        assert rep["nonparallel_witness"] == "1"
        assert rep["ricci_reeb"] == Fraction(-n, 2)


class TestScalingAction:
    @pytest.mark.parametrize("n", [1, 2])
    def test_invariance(self, n):
        assert sympl.hyperbolic_report(n)["passed"]

    def test_point_action(self):
        pt = {"p0": 1, "p1": 2, "x0": 3, "x1": 4}
        out = sympl.hyperbolic_action_point(1, pt, Fraction(2))
        assert out == {
            "p0": Fraction(2),
            "p1": Fraction(4),
            "x0": Fraction(3, 2),
            "x1": Fraction(2),
        }
        with pytest.raises(ValueError):
            sympl.hyperbolic_action_point(1, pt, 0)


class TestProjectivization:
    def test_scaling_invariance_of_coordinates(self):
        pt = {"p0": 2, "p1": 3, "x0": Fraction(1, 2), "x1": -1}
        moved = sympl.hyperbolic_action_point(1, pt, Fraction(7, 3))
        for cid in sympl.proj_chart_ids(1):
            for f in sympl.proj_chart_functions(1, cid).values():
                assert f.evaluate(pt) == f.evaluate(moved)

    @pytest.mark.parametrize("n", [1, 2])
    def test_report(self, n):
        assert sympl.proj_report(n)["passed"]

    def test_u0_u1_transition_relation(self):
        rel = sympl.transition_relations(1, ("U", 0), ("U", 1))
        assert rel["xp0"] == {"xp0": 1, "pr1": 1}
        assert rel["xp1"] == {"xp1": 1, "pr1": 1}
        assert rel["pr0"] == {"pr1": -1}

    def test_transition_at_rational_point(self):
        n = 1
        pt = {"p0": 2, "p1": 5, "x0": 3, "x1": Fraction(-1, 2)}
        coords_a = {
            nm: f.evaluate(pt)
            for nm, f in sympl.proj_chart_functions(n, ("U", 0)).items()
        }
        rel = sympl.transition_relations(n, ("U", 0), ("U", 1))
        derived = {}
        for nm, factors in rel.items():
            v = Fraction(1)
            for anm, e in factors.items():
                v *= coords_a[anm] ** e
            derived[nm] = v
        direct = {
            nm: f.evaluate(pt)
            for nm, f in sympl.proj_chart_functions(n, ("U", 1)).items()
        }
        assert derived == direct


def per_target_transitions(n, cid_a, cid_b):
    """The transition relations solved one target at a time, each with its
    own dense solve of the exponent matrix of chart a."""
    fa = sympl.proj_chart_functions(n, cid_a)
    fb = sympl.proj_chart_functions(n, cid_b)

    def expvec(f):
        ((e, _c),) = f.terms.items()
        return list(e)

    a_names = sorted(fa)
    a_rows = [expvec(fa[nm]) for nm in a_names]
    mat = [[Fraction(row[i]) for row in a_rows] for i in range(len(a_rows[0]))]
    out = {}
    for nm_b, f in fb.items():
        sol = solve_exact(mat, [Fraction(e) for e in expvec(f)])
        assert sol is not None and all(c.denominator == 1 for c in sol)
        out[nm_b] = {nm: int(c) for c, nm in zip(sol, a_names) if c != 0}
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transitions_match_the_per_target_solve(n):
    ids = sympl.proj_chart_ids(n)
    for a in ids:
        for b in ids:
            if a != b:
                assert sympl.transition_relations(n, a, b) == per_target_transitions(n, a, b)


def test_one_wrong_chart_exponent_fails_the_projective_report(monkeypatch, clear_caches):
    # V_0's coordinate p_1 x^0 becomes p_1 (x^0)^2: no longer scaling
    # invariant, and no longer a monomial in the other charts' coordinates
    original = sympl.proj_chart_functions

    def mutated(n, cid):
        out = original(n, cid)
        if cid == ("V", 0):
            f = out["px1"]
            out["px1"] = f * LaurentPoly.variable(f.chart, "x0")
        return out

    monkeypatch.setattr(sympl, "proj_chart_functions", mutated)
    for n in (1, 2):
        rep = sympl.proj_report(n)
        assert not rep["passed"]
        assert not rep["scaling_invariant"]
        assert not rep["all_transitions_monomial"]
        with pytest.raises(ValueError):
            sympl.transition_relations(n, ("U", 0), ("V", 0))


def test_a_broken_printed_transition_fails_the_projective_report(monkeypatch, clear_caches):
    # U_0's p_1/p_0 becomes p_1 p_0^-2: it is still a monomial, but the U_1
    # coordinate x^0 p_1 is no longer one in U_0's coordinates, so the
    # printed U_0 -> U_1 example cannot be formed
    original = sympl.proj_chart_functions

    def mutated(n, cid):
        out = original(n, cid)
        if cid == ("U", 0):
            f = out["pr1"]
            out["pr1"] = f * LaurentPoly.variable(f.chart, "p0", -1)
        return out

    monkeypatch.setattr(sympl, "proj_chart_functions", mutated)
    with pytest.raises(ValueError):
        sympl.transition_relations(1, ("U", 0), ("U", 1))
    rep = sympl.proj_report(1)
    assert not rep["passed"]
    assert not rep["u0_u1_example"]
    assert not rep["all_transitions_monomial"]


def sympl_killing_claims(n):
    return {r.claim: r for r in suites.suite_killing("sympl", n, 2)}


def test_one_flipped_sign_in_a_catalog_field_fails_the_isometry_claim(monkeypatch, clear_caches):
    # Q^0_1 = x^0 d/dx^1 - p_1 d/dp_0 becomes x^0 d/dx^1 + p_1 d/dp_0; the
    # mutant catalog is served per n through a cache, as the real one is
    build = sympl.killing_catalog.__wrapped__

    def flipped(n):
        cat = dict(build(n))
        chart = sympl.sympl_chart(n)
        cat["Q0_1"] = VectorField.from_dict(
            chart,
            {"x1": LaurentPoly.variable(chart, "x0"), "p0": LaurentPoly.variable(chart, "p1")},
        )
        return tuple(cat.items())

    mutant = functools.cache(flipped)
    monkeypatch.setattr(sympl, "killing_catalog", mutant)
    for n in (1, 2):
        assert sympl_catalog_report(n)["non_killing"] == ["Q0_1"]
        claims = sympl_killing_claims(n)
        catalog = claims["every catalog field is a metric isometry generator"]
        assert catalog.status == "fail"
        size = (n + 2) ** 2 - 1
        assert catalog.witness == {"non_killing": ["Q0_1"], "count": size, "expected_count": size}
        assert claims["solved span equals the catalog span"].status == "fail"
        # the mutant no longer closes into an algebra: a failed claim, not
        # a ValueError out of the suite
        sl = claims["rescaled generators reproduce the traceless-matrix bracket exactly"]
        assert sl.status == "fail"
    assert mutant.cache_info().hits > 0


def test_one_scaled_sl_generator_entry_fails_the_embedding_claim(monkeypatch, clear_caches):
    # X_0 -> 2i E_{n+1,0}: still traceless and independent, but its
    # brackets with the D family are off by the factor 2
    original = sympl.sl_matrices

    def scaled(n):
        mats = dict(original(n))
        mats["X0"] = {key: 2 * v for key, v in mats["X0"].items()}
        return list(mats.items())

    monkeypatch.setattr(sympl, "sl_matrices", scaled)
    for n in (1, 2):
        rep = sympl.sl_embedding_report(n)
        assert rep["traceless"] and rep["independent"]
        assert not rep["brackets_match"] and not rep["passed"]
        claim = sympl_killing_claims(n)[
            "rescaled generators reproduce the traceless-matrix bracket exactly"
        ]
        assert claim.status == "fail"


def test_a_catalog_without_its_last_field_fails_its_claims(monkeypatch, clear_caches):
    # D^1 is missing: the brackets that name it, and the sl(3) picture whose
    # labels no longer match, fail as claims instead of raising
    build = sympl.killing_catalog.__wrapped__
    monkeypatch.setattr(sympl, "killing_catalog", functools.cache(lambda n: build(n)[:-1]))
    assert [label for label, _ in sympl.killing_catalog(1)][-1] == "D0"
    claims = sympl_killing_claims(1)
    catalog = claims["every catalog field is a metric isometry generator"]
    assert catalog.status == "fail"
    assert catalog.witness == {"non_killing": [], "count": 7, "expected_count": 8}
    br = claims["catalog brackets match the closed-form structure constants"]
    assert br.status == "fail"
    assert "[Q1_0,D0]" in br.witness["failures"]
    sl = claims["rescaled generators reproduce the traceless-matrix bracket exactly"]
    assert sl.status == "fail"
    assert sl.witness["labels_match"] is False
    rep = sympl.sl_embedding_report(1)
    assert not rep["labels_match"] and not rep["passed"]


def test_one_flipped_entry_in_the_bracket_table_fails_that_pair(monkeypatch):
    # [Q^0_1, X_0] = -X_1 becomes +X_1
    original = sympl.catalog_brackets

    def flipped(n):
        table = original(n)
        table["Q0_1", "X0"] = {"X1": Fraction(1)}
        return table

    monkeypatch.setattr(sympl, "catalog_brackets", flipped)
    for n in (1, 2):
        assert sympl.bracket_report(n)["failures"] == ["[Q0_1,X0]"]
        claim = sympl_killing_claims(n)["catalog brackets match the closed-form structure constants"]
        assert claim.status == "fail"
        assert claim.witness == {"failures": ["[Q0_1,X0]"]}


@pytest.mark.parametrize("n", [1, 2])
def test_cached_catalogs_are_tuples_of_immutable_fields(n):
    for build in (tps.killing_catalog, sympl.killing_catalog):
        cat = build(n)
        assert cat is build(n)
        assert isinstance(cat, tuple)
        for entry in cat:
            assert isinstance(entry, tuple)
            label, field = entry
            assert isinstance(label, str) and isinstance(field, VectorField)
            assert isinstance(field.comps, tuple)
            for name in ("comps", "chart", "_jacobian"):
                with pytest.raises(AttributeError):
                    setattr(field, name, None)
            with pytest.raises(AttributeError):
                del field.comps


def test_the_cache_fixture_finds_every_package_cache():
    from conftest import CACHES

    for cached in (
        tps.phase_metric,
        tps.killing_catalog,
        sympl.sympl_metric,
        sympl.killing_catalog,
        sympl._chart_factors,
    ):
        assert cached in CACHES


class TestCells:
    @pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
    def test_block_structure(self, n, k):
        assert sympl.cell_report(n, k)["passed"]

    def test_cell0_is_base_metric(self):
        theta0, g0 = sympl.cell_restrict(2, 0)
        src = sympl.cell_chart(2, 0)
        assert src.names == tps.tps_chart(2).names
        base = tps.phase_metric(2)
        rename = {nm: LaurentPoly.variable(src, nm) for nm in base.chart.names}
        for a in range(5):
            for b in range(5):
                assert g0.entries[a][b] == base.g.entries[a][b].substitute(rename, src)

    def test_theta1_n2(self):
        theta1, g1 = sympl.cell_restrict(2, 1)
        src = sympl.cell_chart(2, 1)
        assert theta1 == Form.one_form(
            src, {"x1": LaurentPoly.one(src), "x2": LaurentPoly.variable(src, "p2")}
        )
        i0 = src.index("x0")
        assert all(g1.entries[i0][b].is_zero() for b in range(src.dim))

    def test_index_range(self):
        with pytest.raises(ValueError):
            sympl.cell_restrict(2, 3)
        with pytest.raises(ValueError):
            sympl.cell_restrict(2, -1)

    def test_classify(self):
        rep = sympl.cell_classify(2, {"p0": 0, "p1": 5, "p2": 1, "x0": 0, "x1": 2, "x2": 3})
        assert rep["cell"] == 1 and rep["lam"] == Fraction(1, 5)
        assert rep["representative"]["p1"] == 1
        deg = sympl.cell_classify(1, {"p0": 0, "p1": 0, "x0": 1, "x1": 0})
        assert deg["degenerate"] and deg["cell"] == 2


class TestQuadric:
    @pytest.mark.parametrize("n,expect", [(1, (2, 2, 0)), (2, (3, 3, 0)), (3, (4, 4, 0))])
    def test_signature(self, n, expect):
        assert sympl.quadric_signature(n) == expect

    def test_a_changed_quadric_fails_the_signature_claim(self, monkeypatch, clear_caches):
        # q + 1 is not diagonalized by the polarization: a failed claim, not
        # an exception
        original = sympl.incidence_quadric
        monkeypatch.setattr(sympl, "incidence_quadric", lambda n: original(n) + 1)
        for n in (1, 2):
            assert sympl.quadric_signature(n) is None
            claims = {r.claim: r for r in suites.suite_sympl(n)}
            claim = claims["incidence quadric has split signature"]
            assert claim.status == "fail"
            assert claim.witness == {"polarization_identity": False}

    def test_ideal_gas(self):
        rep = sympl.ideal_gas_report(Fraction(2))
        assert rep["passed"]
        assert rep["cell"] == 1
        assert rep["lam"] == Fraction(-1, 2)


class TestAffineGroup:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_report(self, n):
        rep = sympl.affine_report(n)
        assert rep["passed"]
        assert rep["theta_pullback_matches"]
        assert not rep["theta_matches_other_printed_sign"]
        assert rep["omega_pullback_sign"] == "-"

    def test_single_factor_pullback(self):
        chi = sympl.affine_map(0)
        src = chi.src
        pulled = chi.pull_form(sympl.build(0).theta)
        z0 = LaurentPoly.variable(src, "z0")
        h0inv = LaurentPoly.variable(src, "h0", -1)
        assert pulled == Form.one_form(
            src, {"z0": LaurentPoly.constant(src, -1), "h0": z0 * h0inv}
        )
