"""Exact linear algebra: Bareiss determinant, adjugate inverse, kernels,
and the sparse eliminator behind the rational routines."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpsgeo import killing, tps
from tpsgeo.fields import VectorField, bracket
from tpsgeo.killing import _entries, structure_constants
from tpsgeo.linalg import (
    Elimination,
    PolyMatrix,
    SingularMatrixError,
    bareiss_det,
    fraction_matrix_inverse,
    kernel_exact,
    matrix_inverse_exact,
    rref_fraction,
    solve_exact,
)
from tpsgeo.poly import Chart, LaurentPoly

CH = Chart(["x0", "p1", "x1"], invertible=["p1"])
P1 = LaurentPoly.variable(CH, "p1")
ONE = LaurentPoly.one(CH)
ZERO = LaurentPoly.zero(CH)


def cmat(grid):
    return PolyMatrix(CH, [[LaurentPoly.constant(CH, v) for v in row] for row in grid])


class TestDeterminant:
    def test_frozen_2x2(self):
        assert bareiss_det(cmat([[1, 2], [3, 4]])) == -2

    def test_identity(self):
        assert bareiss_det(PolyMatrix.identity(CH, 4)) == 1

    def test_singular(self):
        assert bareiss_det(cmat([[1, 2], [2, 4]])).is_zero()

    def test_polynomial_entries(self):
        # det [[1, p], [p, p^2]] = 0; det [[1, p], [p, p^2 + 1]] = 1
        m0 = PolyMatrix(CH, [[ONE, P1], [P1, P1 * P1]])
        assert bareiss_det(m0).is_zero()
        m1 = PolyMatrix(CH, [[ONE, P1], [P1, P1 * P1 + 1]])
        assert bareiss_det(m1) == 1

    def test_laurent_entries(self):
        pinv = P1.inverse()
        m = PolyMatrix(CH, [[pinv, ZERO], [ZERO, P1]])
        assert bareiss_det(m) == 1

    def test_row_swap_sign(self):
        assert bareiss_det(cmat([[0, 1], [1, 0]])) == -1


class TestInverse:
    def test_contact_metric_n1(self):
        # the 3x3 indefinite metric in coordinates (x0, p1, x1)
        g = PolyMatrix(CH, [[ONE, ZERO, P1], [ZERO, ZERO, ONE], [P1, ONE, P1 * P1]])
        inv, det = matrix_inverse_exact(g)
        assert det == -1
        expect = PolyMatrix(CH, [[ONE, -P1, ZERO], [-P1, ZERO, ONE], [ZERO, ONE, ZERO]])
        assert inv == expect
        assert (g @ inv) == PolyMatrix.identity(CH, 3)
        assert (inv @ g) == PolyMatrix.identity(CH, 3)

    def test_identity(self):
        inv, det = matrix_inverse_exact(PolyMatrix.identity(CH, 3))
        assert inv == PolyMatrix.identity(CH, 3) and det == 1

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            matrix_inverse_exact(cmat([[1, 1], [1, 1]]))

    def test_non_polynomial_inverse_raises(self):
        # det = x1, which does not divide the cofactor 1: the inverse has 1/x1
        x1 = LaurentPoly.variable(CH, "x1")
        with pytest.raises(ArithmeticError):
            matrix_inverse_exact(PolyMatrix(CH, [[x1, ZERO], [ZERO, ONE]]))


class TestRationalKernel:
    def test_zero_matrix(self):
        basis = kernel_exact([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]])
        assert len(basis) == 2
        assert basis[0] == [1, 0] and basis[1] == [0, 1]

    def test_identity_empty_kernel(self):
        basis = kernel_exact([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
        assert basis == []

    def test_rank_one(self):
        basis = kernel_exact([[Fraction(1), Fraction(2), Fraction(3)]])
        assert len(basis) == 2
        m = [[Fraction(1), Fraction(2), Fraction(3)]]
        for v in basis:
            assert sum(a * b for a, b in zip(m[0], v)) == 0

    def test_echelon_normal_form_deterministic(self):
        rows = [[Fraction(v) for v in r] for r in [[1, 1, 0, 2], [0, 0, 1, 1]]]
        basis = kernel_exact(rows)
        # free columns are 1 and 3; leading ones there
        assert basis == [
            [Fraction(-1), Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(-2), Fraction(0), Fraction(-1), Fraction(1)],
        ]

    def test_solve_exact(self):
        a = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
        assert solve_exact(a, [Fraction(4), Fraction(6)]) == [2, 2]
        assert solve_exact([[Fraction(0), Fraction(0)]], [Fraction(1)]) is None

    def test_fraction_matrix_inverse(self):
        a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(5)]]
        inv = fraction_matrix_inverse(a)
        prod = [
            [sum(a[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        assert prod == [[1, 0], [0, 1]]


entries = st.integers(min_value=-5, max_value=5).map(Fraction)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=2, max_size=4))
def test_kernel_vectors_annihilate(rows):
    basis = kernel_exact([list(r) for r in rows])
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    _, pivots = rref_fraction([list(r) for r in rows])
    assert len(basis) == 3 - len(pivots)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3))
def test_bareiss_matches_cofactor_expansion(rows):
    m = cmat(rows)

    def det3(r):
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

    assert bareiss_det(m) == det3(rows)


# ----------------------------------------------------------------------
# the sparse eliminator


def random_matrix(seed, nrows=None, ncols=None):
    """A seeded sparse rational matrix; every fourth one is rank deficient."""
    rng = random.Random(seed)
    nrows = nrows or rng.randint(1, 8)
    ncols = ncols or rng.randint(1, 8)

    def entry():
        if rng.random() < 0.55:
            return Fraction(0)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if seed % 4 == 0 and nrows > 1:
        k = rng.randint(-2, 2)
        rows[-1] = [a + k * b for a, b in zip(rows[0], rows[-2])]
    return rows


def sparse(values):
    return {c: v for c, v in enumerate(values) if v}


@pytest.fixture
def sympy():
    # an optional test dependency (pyproject.toml); skipped where missing
    return pytest.importorskip("sympy")


def to_sympy(sympy, rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows])


def from_sympy(values):
    return [Fraction(int(v.p), int(v.q)) for v in values]


@pytest.mark.parametrize("seed", range(40))
def test_rref_rank_and_kernel_match_sympy(sympy, seed):
    rows = random_matrix(seed)
    m = to_sympy(sympy, rows)
    reduced, pivots = rref_fraction(rows)
    want, want_pivots = m.rref()
    assert pivots == list(want_pivots)
    assert reduced == [from_sympy(want.row(i)) for i in range(m.rows)]
    assert len(Elimination(sparse(r) for r in rows).echelon) == m.rank()
    # sympy's nullspace uses the same normal form: 1 in a free column
    assert kernel_exact(rows) == [from_sympy(v) for v in m.nullspace()]


@pytest.mark.parametrize("seed", range(40))
def test_solve_matches_sympy(sympy, seed):
    rows = random_matrix(seed)
    rng = random.Random(1000 + seed)
    if seed % 2:  # consistent: b is a combination of the columns
        x = [Fraction(rng.randint(-3, 3)) for _ in rows[0]]
        b = [sum(a * v for a, v in zip(r, x)) for r in rows]
    else:
        b = [Fraction(rng.randint(-3, 3)) for _ in rows]
    got = solve_exact(rows, b)
    try:
        sol, params = to_sympy(sympy, rows).gauss_jordan_solve(to_sympy(sympy, [[v] for v in b]))
    except ValueError:  # sympy: inconsistent system
        assert got is None
        return
    want = sol.subs({p: 0 for p in params})  # free variables set to zero
    assert got == from_sympy(want)


class TestElimination:
    def test_one_factorisation_answers_like_one_solve_per_rhs(self):
        for seed in range(12):
            rows = random_matrix(seed, nrows=7, ncols=5)
            columns = Elimination(
                {i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(len(rows[0]))
            )
            rng = random.Random(seed)
            for _ in range(10):
                x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in rows[0]]
                b = [sum(a * v for a, v in zip(r, x)) for r in rows]
                if rng.random() < 0.3:
                    b[rng.randrange(len(b))] += 1
                coeffs, residual = columns.reduce(sparse(b))
                want = solve_exact(rows, b)
                assert (None if residual else coeffs) == (None if want is None else sparse(want))

    def test_coefficients_and_residual_rebuild_the_vector(self):
        vectors = [sparse(r) for r in random_matrix(3, nrows=5, ncols=9)]
        factored = Elimination(vectors)
        target = {0: Fraction(1), 4: Fraction(-2, 3), 8: Fraction(5)}
        coeffs, residual = factored.reduce(target)
        rebuilt = dict(residual)
        for i, c in coeffs.items():
            for k, e in vectors[i].items():
                rebuilt[k] = rebuilt.get(k, 0) + c * e
        assert {k: v for k, v in rebuilt.items() if v} == target

    def test_vector_outside_the_span_leaves_a_residual(self):
        factored = Elimination([{0: Fraction(1), 1: Fraction(1)}, {2: Fraction(3)}])
        coeffs, residual = factored.reduce({0: Fraction(2), 1: Fraction(2), 2: Fraction(1)})
        assert coeffs == {0: 2, 1: Fraction(1, 3)} and not residual
        coeffs, residual = factored.reduce({0: Fraction(1), 2: Fraction(1)})
        assert residual == {1: -1}

    def test_dependent_input_is_flagged(self):
        vectors = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(-2), 1: Fraction(-4)}, {}, {1: Fraction(1)}]
        factored = Elimination(vectors)
        assert factored.dependent == [1, 2]
        assert len(factored.echelon) == 2
        # dependent vectors get no coefficient; the others carry the combination
        coeffs, residual = factored.reduce({0: Fraction(1), 1: Fraction(5)})
        assert coeffs == {0: 1, 3: 3} and not residual
        # keyed in increasing index order, the dependent indices absent
        assert list(coeffs) == [0, 3]

    def test_columns_may_be_tuples(self):
        factored = Elimination([{(0, (1,)): Fraction(2)}, {(1, ()): Fraction(1), (0, (1,)): Fraction(1)}])
        assert not factored.dependent
        assert factored.kernel([(0, (1,)), (1, ()), (1, (2,))]) == [{(1, (2,)): 1}]

    @pytest.mark.parametrize("seed", range(3))
    def test_indexed_back_substitution_matches_the_full_scan(self, seed):
        # ranks in the hundreds with long chains: row i holds column i + 1,
        # so clearing lead i + 1 from row i brings in i + 2, and so on down
        # to the free columns; rows arrive shuffled, with dependent ones
        rng = random.Random(seed)
        rank, nfree = 240, 6
        ncols = rank + nfree
        vectors = []
        for i in range(rank):
            row = {i: Fraction(rng.choice([1, 2, -3])), i + 1: Fraction(rng.choice([1, -1]))}
            for _ in range(2):
                row[rng.randrange(i + 1, ncols)] = Fraction(rng.randint(-2, 2) or 1, rng.randint(1, 2))
            vectors.append(row)
        rng.shuffle(vectors)
        for _ in range(20):
            a, b = rng.sample(vectors, 2)
            vectors.insert(rng.randrange(len(vectors)), {c: a.get(c, 0) + b.get(c, 0) for c in a.keys() | b.keys()})
        factored = Elimination(vectors)
        assert len(factored.echelon) == rank and len(factored.dependent) == 20

        def subtract(row, factor, other):
            for c, v in other.items():
                new = row.get(c, 0) - factor * v
                if new:
                    row[c] = new
                else:
                    row.pop(c, None)

        # the former reduced_rows and kernel: every row tested for every lead
        rows = {c: dict(row) for c, row in factored.echelon.items()}
        for c in sorted(rows, reverse=True):
            for c2, row2 in rows.items():
                if c2 != c and c in row2:
                    subtract(row2, row2[c], rows[c])
        basis = []
        for f in range(ncols):
            if f not in rows:
                vec = {f: Fraction(1)}
                for c, row in rows.items():
                    if row.get(f):
                        vec[c] = -row[f]
                basis.append(vec)

        got = factored.reduced_rows()
        # the same rows, entries and insertion orders
        assert [(c, list(row.items())) for c, row in got.items()] == [
            (c, list(row.items())) for c, row in rows.items()
        ]
        assert [list(v.items()) for v in factored.kernel(range(ncols))] == [list(v.items()) for v in basis]
        assert len(basis) == nfree


def test_structure_constants_catch_a_bracket_inside_the_keyset_but_outside_the_span():
    # [x d/dy, d/dx + d/dy] = -d/dy: its one monomial is a coordinate of the
    # second field, yet d/dy is not in the span of the two fields
    chart = Chart(["x", "y"])
    x = LaurentPoly.variable(chart, "x")
    one, zero = LaurentPoly.one(chart), LaurentPoly.zero(chart)
    fields = [("a", VectorField(chart, [zero, x])), ("b", VectorField(chart, [one, one]))]
    with pytest.raises(ValueError, match="not closed"):
        structure_constants(fields, _entries, bracket)
    closed = [
        ("a", VectorField(chart, [zero, x])),
        ("b", VectorField(chart, [one, zero])),
        ("c", VectorField(chart, [zero, one])),
    ]
    # [a, b] = -c; the pairs that bracket to zero are not listed
    assert structure_constants(closed, _entries, bracket) == {("a", "b"): {"c": -1}}


def in_ints(row):
    return all(type(v) is int for v in row.values())


def whole(row):
    return all(v.denominator == 1 for v in row.values())


int_matrices = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), min_size=ncols, max_size=ncols),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=150, deadline=None)
@given(int_matrices, st.data())
def test_integer_and_fraction_rows_eliminate_alike(rows, data):
    # the same matrix as ints and as Fractions: equal echelon rows, in the
    # same order, dependents, reductions and kernels; sympy's rref and
    # nullspace are the oracle for both
    sympy = pytest.importorskip("sympy")
    ncols = len(rows[0])
    ints = Elimination(sparse(r) for r in rows)
    fracs = Elimination(sparse([Fraction(v) for v in r]) for r in rows)
    assert list(ints.echelon.items()) == list(fracs.echelon.items())
    assert ints.dependent == fracs.dependent
    target = sparse(data.draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)))
    assert ints.reduce(target) == fracs.reduce({c: Fraction(v) for c, v in target.items()})
    kernel = ints.kernel(range(ncols))
    assert kernel == fracs.kernel(range(ncols))
    m = sympy.Matrix(rows)
    want, pivots = m.rref()
    reduced = ints.reduced_rows()
    assert sorted(reduced) == list(pivots)
    assert [[reduced[c].get(j, 0) for j in range(ncols)] for c in sorted(reduced)] == [
        from_sympy(want.row(i)) for i in range(len(pivots))
    ]
    assert [[v.get(j, 0) for j in range(ncols)] for v in kernel] == [from_sympy(v) for v in m.nullspace()]
    # a row reduced by int rows only stays in ints when its lead divides
    # it: the first row that needs Fractions is not whole
    first = next((row for row in ints.echelon.values() if not in_ints(row)), None)
    assert first is None or not whole(first)


def test_the_tps_killing_system_eliminates_in_integers(monkeypatch):
    # the Killing system of tps n = 3 has int coefficients; no echelon row
    # of whole numbers is held as Fractions, and nearly all rows are ints
    built = []

    class Captured(Elimination):
        def __init__(self, vectors):
            super().__init__(vectors)
            built.append(self)

    monkeypatch.setattr(killing, "Elimination", Captured)
    assert len(killing.killing_solve(tps.phase_metric(3), 2)) == 16
    (factored,) = built
    rows = list(factored.echelon.values())
    assert [row for row in rows if whole(row) and not in_ints(row)] == []
    assert len(rows) == 236 and sum(map(in_ints, rows)) >= 0.9 * len(rows)
