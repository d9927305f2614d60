"""Symplectization: lifted metric, embedding, frame, isometries, cone
complex structure, scaling action, projectivization, cells, quadric, affine
symplectomorphism."""

import functools
from fractions import Fraction

import pytest

from tpsgeo.fields import Form, VectorField
from tpsgeo.linalg import Elimination, solve_exact
from tpsgeo.poly import LaurentPoly
from tpsgeo import cli, killing, suites, sympl, tps

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
        (einstein_ok, einstein), (scalar_ok, scalar) = sympl.einstein_report(n)
        assert einstein_ok and einstein == {"einstein_factor": Fraction(n + 2, 2)}
        want = (n + 1) * (n + 2)
        assert scalar_ok and scalar == {"scalar": want, "expected": want}

    @pytest.mark.parametrize("n", [1, 2])
    def test_volume(self, n):
        passed, witness = sympl.volume_report(n)
        assert passed
        assert witness == {"pfaffian_sign": (-1) ** (n * (n + 1) // 2)}


class TestEmbedding:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pullbacks(self, n):
        passed, witness = sympl.embedding_report(n)
        assert passed
        assert witness == {"theta_pullback": True, "metric_pullback": True, "omega_pullback": True}

    def test_theta_pullback_explicit(self):
        j = sympl.embedding(2)
        pulled = j.pull_form(sympl.tautological_form(2))
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
        passed, witness = sympl.frame_report(n)
        assert passed and witness is None

    def test_single_relations(self):
        from tpsgeo.fields import bracket

        fr = dict(sympl.canonical_frame(2))
        g = sympl.sympl_metric(2)
        assert bracket(fr["P1"], fr["L1"]) == fr["L1"].scale(-1)
        assert bracket(fr["X1"], fr["X2"]) == (fr["X2"] - fr["X1"]).scale(HALF)
        for i in range(3):
            for j in range(3):
                assert g.inner(fr[f"X{i}"], fr[f"X{j}"]).is_zero()

    @pytest.mark.parametrize("n", [1, 2])
    def test_null_cone(self, n):
        passed, witness = sympl.null_cone_identity(n)
        assert passed and witness is None


class TestIsometries:
    @pytest.mark.parametrize("n", [1, 2])
    def test_catalog(self, n):
        rep = sympl_catalog_report(n)
        assert rep["passed"]
        assert rep["count"] == (n + 2) ** 2 - 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_brackets(self, n):
        assert sympl.bracket_report(n) == (True, {"failures": []})

    @pytest.mark.parametrize("n", [1, 2])
    def test_hamiltonians(self, n):
        assert sympl.hamiltonian_report(n) == (True, {"failures": []})

    def test_hamiltonian_translation_example(self):
        chart = sympl.sympl_chart(1)
        cat = dict(sympl.killing_catalog(1))
        h = Form.function(chart, -LaurentPoly.variable(chart, "p1"))
        assert sympl.tautological_form(1).d().insert(cat["X1"]) == h.d()

    def test_d_fields_commute(self):
        from tpsgeo.fields import bracket

        cat = dict(sympl.killing_catalog(2))
        assert bracket(cat["D0"], cat["D1"]).is_zero()
        assert bracket(cat["D1"], cat["D2"]).is_zero()

    # n = 4 and 5 lie past every n that verify-all checks; the sparse
    # tables keep them cheap
    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_sl_embedding(self, n):
        passed, witness = sympl.sl_embedding_report(n)
        assert passed
        dim = (n + 2) ** 2 - 1
        assert witness == {"dimension": dim, "labels_match": True, "brackets_match": True}
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
        torsion, nonparallel, ricci_reeb = sympl.nijenhuis_report(n)
        assert torsion == (True, {"pairs_checked": (2 * n + 2) * (2 * n + 3) // 2})
        assert nonparallel == (True, {"remark": "-2", "direct": "1"})
        assert ricci_reeb == (True, {"ricci_reeb": Fraction(-n, 2)})


class TestScalingAction:
    @pytest.mark.parametrize("n", [1, 2])
    def test_invariance(self, n):
        passed, witness = sympl.hyperbolic_report(n)
        assert passed and witness is None
        # at lam = 1 the scaling is the identity
        f = sympl.hyperbolic_map(n)
        one = {"lam": LaurentPoly.one(f.src)}
        for nm in set(f.src.names) - {"lam"}:
            assert f.comps[nm].substitute(one, f.src) == LaurentPoly.variable(f.src, nm)

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
        passed, witness = sympl.proj_report(n)
        assert passed and witness is None

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
        passed, _ = sympl.proj_report(n)
        assert not passed
        act = sympl.hyperbolic_map(n)
        lifted = sympl.proj_chart_functions(n, ("V", 0))["px1"].with_chart(act.src)
        assert act.pull_function(lifted) != lifted
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
    passed, _ = sympl.proj_report(1)
    assert not passed


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
        # the matrices still reproduce the printed table; the mutant's
        # failed brackets fail the embedding
        passed, _ = sympl.sl_embedding_report(n)
        assert passed
        assert sl.witness["brackets_match"] is False
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
        mats = [mat for _, mat in sympl.sl_matrices(n)]
        for mat in mats:
            for part in (0, 1):
                assert sum(v for (p, i, j), v in mat.items() if i == j and p == part) == 0
        assert not Elimination(mats).dependent
        passed, witness = sympl.sl_embedding_report(n)
        assert not witness["brackets_match"] and not passed
        claim = sympl_killing_claims(n)[
            "rescaled generators reproduce the traceless-matrix bracket exactly"
        ]
        assert claim.status == "fail"


def test_a_dependent_matrix_list_fails_the_embedding_claim(monkeypatch):
    # D^0's matrix becomes a copy of Q^0_1's: still traceless, but the list
    # is dependent, so it has no structure-constant table to compare
    original = sympl.sl_matrices

    def dependent(n):
        mats = dict(original(n))
        mats["D0"] = dict(mats["Q0_1"])
        return list(mats.items())

    monkeypatch.setattr(sympl, "sl_matrices", dependent)
    for n in (1, 2):
        assert Elimination(mat for _, mat in sympl.sl_matrices(n)).dependent
        passed, witness = sympl.sl_embedding_report(n)
        assert not passed and witness["brackets_match"] is False
        claim = sympl_killing_claims(n)[
            "rescaled generators reproduce the traceless-matrix bracket exactly"
        ]
        assert claim.status == "fail"
        dim = (n + 2) ** 2 - 1
        assert claim.witness == {"dimension": dim, "labels_match": True, "brackets_match": False}


@pytest.mark.parametrize("n", [1, 2])
def test_the_sl_check_factors_the_matrices_once(monkeypatch, n):
    from tpsgeo import linalg

    original = linalg.Elimination.__init__
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(None)
        original(self, *args, **kwargs)

    monkeypatch.setattr(linalg.Elimination, "__init__", counted)
    passed, _ = sympl.sl_embedding_report(n)
    assert passed and len(calls) == 1


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
    passed, witness = sympl.sl_embedding_report(1)
    assert not witness["labels_match"] and not passed


def test_one_flipped_entry_in_the_bracket_table_fails_that_pair(monkeypatch):
    # [Q^0_1, X_0] = -X_1 becomes +X_1
    original = sympl.catalog_brackets

    def flipped(n):
        table = original(n)
        table["Q0_1", "X0"] = {"X1": Fraction(1)}
        return table

    monkeypatch.setattr(sympl, "catalog_brackets", flipped)
    for n in (1, 2):
        assert sympl.bracket_report(n) == (False, {"failures": ["[Q0_1,X0]"]})
        claims = sympl_killing_claims(n)
        claim = claims["catalog brackets match the closed-form structure constants"]
        assert claim.status == "fail"
        assert claim.witness == {"failures": ["[Q0_1,X0]"]}
        # the matrices no longer reproduce the printed table either
        _, witness = sympl.sl_embedding_report(n)
        assert not witness["brackets_match"]
        sl = claims["rescaled generators reproduce the traceless-matrix bracket exactly"]
        assert sl.status == "fail"
        assert sl.witness == {
            "dimension": (n + 2) ** 2 - 1,
            "labels_match": True,
            "brackets_match": False,
        }


def test_a_bracket_table_naming_an_unknown_label_fails_both_claims(monkeypatch):
    # [Q^0_1, X_0] = -X_1 written with a label the catalog lacks: a failed
    # comparison in both claims, not a KeyError
    original = sympl.catalog_brackets

    def misnamed(n):
        table = original(n)
        table["Q0_1", "X0"] = {"Y1": Fraction(-1)}
        return table

    monkeypatch.setattr(sympl, "catalog_brackets", misnamed)
    _, witness = sympl.sl_embedding_report(1)
    assert not witness["brackets_match"]
    claims = sympl_killing_claims(1)
    assert claims["catalog brackets match the closed-form structure constants"].status == "fail"
    sl = claims["rescaled generators reproduce the traceless-matrix bracket exactly"]
    assert sl.status == "fail" and sl.witness["brackets_match"] is False


@pytest.mark.parametrize("n, pairs", [(1, 28), (2, 105)])
def test_the_sympl_suite_brackets_each_catalog_pair_once(monkeypatch, n, pairs):
    # m = (n+2)^2 - 1 fields have m(m-1)/2 pairs; the bracket claim takes
    # each once, and the sl(n+2) claim reads the printed table instead of
    # bracketing the fields again
    import importlib
    import pkgutil

    import tpsgeo
    from tpsgeo import fields

    original = fields.bracket
    calls = []

    def counted(x, y):
        calls.append(None)
        return original(x, y)

    for info in pkgutil.iter_modules(tpsgeo.__path__):
        module = importlib.import_module(f"tpsgeo.{info.name}")
        if getattr(module, "bracket", None) is original:
            monkeypatch.setattr(module, "bracket", counted)
    assert sympl.bracket is counted and killing.bracket is counted
    m = (n + 2) ** 2 - 1
    assert pairs == m * (m - 1) // 2
    results = suites.suite_killing("sympl", n, 2)
    assert all(r.status == "exact-pass" for r in results)
    assert len(calls) == pairs


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
        assert sympl.cell_report(n, k) is True

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
        passed, witness = sympl.ideal_gas_report(Fraction(2))
        assert passed
        assert witness == {"cell": 1, "lam": Fraction(-1, 2)}


class TestAffineGroup:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_report(self, n):
        passed, witness = sympl.affine_report(n)
        assert passed
        assert witness == {"omega_pullback_sign": "-"}
        # theta pulls back to -sum(dz_i - z_i h_i^-1 dh_i), not to the other
        # printed sign -sum(dz_i + z_i h_i^-1 dh_i)
        chi = sympl.affine_map(n)
        src = chi.src
        pulled = chi.pull_form(sympl.tautological_form(n))

        def theta_with(sign):
            out = Form(src, 1, {})
            for i in range(n + 1):
                zi, hinv = LaurentPoly.variable(src, f"z{i}"), LaurentPoly.variable(src, f"h{i}", -1)
                out = out + Form.one_form(
                    src, {f"z{i}": LaurentPoly.constant(src, -1), f"h{i}": zi * hinv * sign}
                )
            return out

        assert pulled == theta_with(1)
        assert pulled != theta_with(-1)

    def test_single_factor_pullback(self):
        chi = sympl.affine_map(0)
        src = chi.src
        pulled = chi.pull_form(sympl.tautological_form(0))
        z0 = LaurentPoly.variable(src, "z0")
        h0inv = LaurentPoly.variable(src, "h0", -1)
        assert pulled == Form.one_form(
            src, {"z0": LaurentPoly.constant(src, -1), "h0": z0 * h0inv}
        )


# a flipped plane keeps a unit Pfaffian, so only the paired volume fails it
@pytest.mark.parametrize("n, i, factor", [(1, 0, 2), (1, 1, 2), (2, 2, 2), (1, 1, -1), (2, 0, -1)])
def test_a_scaled_plane_fails_the_symplectic_volume_claim(monkeypatch, clear_caches, capsys, n, i, factor):
    def scaled(n):
        # dp_i ^ dx^i has coefficient factor in the symplectic form
        chart = sympl.sympl_chart(n)
        p = [LaurentPoly.variable(chart, f"p{k}") for k in range(n + 1)]
        return Form.one_form(chart, {f"x{k}": p[k] * (factor if k == i else 1) for k in range(n + 1)})

    monkeypatch.setattr(sympl, "tautological_form", scaled)
    claims = {r.claim: r for r in suites.suite_curvature("sympl", n)}
    claim = claims["symplectic top power matches the paired volume with unit Pfaffian sign"]
    assert claim.status == "fail"
    assert claim.witness == {"pfaffian_sign": factor * (-1) ** (n * (n + 1) // 2)}
    assert cli.main(["curvature", "--space", "sympl", "--n", str(n)]) == 1
    assert "Traceback" not in capsys.readouterr().err
