"""Exact dense linear algebra over Laurent polynomials and rationals.

PolyMatrix is a thin dense container; the heavy lifting is the fraction-free
Bareiss determinant (avoids rational-function blowup) and an adjugate-based
exact inverse.  Over the rationals there is one eliminator, ``Elimination``:
a sparse Gaussian elimination that factors a list of vectors once and then
gives reduced echelon rows, the kernel, linear dependence, and the exact
coefficients and residual of any number of right-hand sides, all sparse.
``rref_fraction``, ``kernel_exact``, ``solve_exact`` and
``fraction_matrix_inverse`` are the only dense-list views of it, kept
because the benchmark tracer names them as targets.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .poly import Chart, LaurentPoly, divexact, monomial_floor


class PolyMatrix:
    __slots__ = ("chart", "rows", "cols", "entries")

    def __init__(self, chart: Chart, entries: Sequence[Sequence[LaurentPoly]]):
        self.chart = chart
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            for e in row:
                if not isinstance(e, LaurentPoly) or e.chart != chart:
                    raise ValueError("entry chart mismatch")

    # ------------------------------------------------------------------

    @staticmethod
    def zero(chart: Chart, rows: int, cols: int) -> "PolyMatrix":
        z = LaurentPoly.zero(chart)
        return PolyMatrix(chart, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(chart: Chart, nn: int) -> "PolyMatrix":
        z = LaurentPoly.zero(chart)
        one = LaurentPoly.one(chart)
        return PolyMatrix(chart, [[one if i == j else z for j in range(nn)] for i in range(nn)])

    def __getitem__(self, ij: tuple[int, int]) -> LaurentPoly:
        i, j = ij
        return self.entries[i][j]

    def map(self, fn: Callable[[LaurentPoly], LaurentPoly]) -> "PolyMatrix":
        return PolyMatrix(self.chart, [[fn(e) for e in row] for row in self.entries])

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return PolyMatrix(
            self.chart,
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "PolyMatrix":
        return self.map(lambda e: e * c)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        z = LaurentPoly.zero(self.chart)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = z
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.chart, out)

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            self.chart,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __hash__(self):
        raise TypeError("PolyMatrix is unhashable")

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def substitute(self, mapping, chart: Chart) -> "PolyMatrix":
        return PolyMatrix(
            chart, [[e.substitute(mapping, chart) for e in row] for row in self.entries]
        )

    def with_chart(self, chart: Chart) -> "PolyMatrix":
        """Reinterpret a square matrix indexed by the coordinates of its chart
        on a larger chart: the new coordinates get zero rows and columns."""
        pos = [chart.index(nm) for nm in self.chart.names]
        z = LaurentPoly.zero(chart)
        out = [[z] * chart.dim for _ in range(chart.dim)]
        for a, row in zip(pos, self.entries):
            for b, e in zip(pos, row):
                out[a][b] = e.with_chart(chart)
        return PolyMatrix(chart, out)

    def evaluate(self, point) -> list[list[Fraction]]:
        return [[e.evaluate(point) for e in row] for row in self.entries]

    def __repr__(self) -> str:
        body = "\n".join("  [" + ", ".join(str(e) for e in row) + "]" for row in self.entries)
        return f"PolyMatrix({self.rows}x{self.cols},\n{body})"


def bareiss_det(m: PolyMatrix) -> LaurentPoly:
    """Fraction-free determinant.  Exact for polynomial entries.

    Laurent entries are cleared to plain polynomials by factoring a monomial
    out of each row first.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    nn = m.rows
    chart = m.chart
    if nn == 0:
        return LaurentPoly.one(chart)

    # factor out row-wise monomials so intermediate divisions stay polynomial
    prefactor = LaurentPoly.one(chart)
    a: list[list[LaurentPoly]] = []
    for row in m.entries:
        mins = monomial_floor(chart, row)
        if mins is None:
            a.append(list(row))
        else:
            shift = LaurentPoly(chart, {mins: 1})
            prefactor = prefactor * shift
            inv = shift.inverse()
            a.append([e * inv for e in row])

    sign = 1
    prev = LaurentPoly.one(chart)
    for k in range(nn - 1):
        if a[k][k].is_zero():
            pivot_row = next((r for r in range(k + 1, nn) if not a[r][k].is_zero()), None)
            if pivot_row is None:
                return LaurentPoly.zero(chart)
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, nn):
            for j in range(k + 1, nn):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                q = divexact(num, prev)
                if q is None:
                    raise ArithmeticError("Bareiss exact division failed")
                a[i][j] = q
            a[i][k] = LaurentPoly.zero(chart)
        prev = a[k][k]
    det = a[nn - 1][nn - 1]
    if sign < 0:
        det = -det
    return prefactor * det


def _minor(m: PolyMatrix, drop_row: int, drop_col: int) -> PolyMatrix:
    return PolyMatrix(
        m.chart,
        [
            [m.entries[i][j] for j in range(m.cols) if j != drop_col]
            for i in range(m.rows)
            if i != drop_row
        ],
    )


class SingularMatrixError(ValueError):
    pass


def matrix_inverse_exact(m: PolyMatrix):
    """Exact inverse via adjugate / Bareiss determinant.

    Returns (inverse, det).  Raises ArithmeticError when the determinant does
    not divide some cofactor, i.e. when the inverse is not a matrix of
    Laurent polynomials (it always is for unimodular metrics).
    """
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    det = bareiss_det(m)
    if det.is_zero():
        raise SingularMatrixError("singular matrix")
    nn = m.rows
    out: list[list] = []
    for i in range(nn):
        row = []
        for j in range(nn):
            cof = bareiss_det(_minor(m, j, i))  # adjugate: transpose of cofactors
            if (i + j) % 2:
                cof = -cof
            q = divexact(cof, det)
            if q is None:
                raise ArithmeticError("inverse is not polynomial: det does not divide a cofactor")
            row.append(q)
        out.append(row)
    return PolyMatrix(m.chart, out), det


# ----------------------------------------------------------------------
# rational (Fraction) linear algebra for the solver layer


def _subtract(row: dict, factor: Fraction, other: Mapping) -> None:
    """row -= factor * other, in place, dropping entries that cancel."""
    for c, v in other.items():
        new = row.get(c, 0) - factor * v
        if new:
            row[c] = new
        else:
            row.pop(c, None)


def _sparse(values: Sequence[Fraction]) -> dict[int, Fraction]:
    return {c: v for c, v in enumerate(values) if v}


def _dense(row: Mapping[int, Fraction], ncols: int) -> list[Fraction]:
    return [row.get(c, Fraction(0)) for c in range(ncols)]


class Elimination:
    """Exact sparse Gaussian elimination over the rationals, factored once.

    The vectors are sparse rows ``{column: Fraction}``; columns are any keys
    that sort together (ints, or tuples such as ``(component, exponents)``).
    Each vector in turn is reduced by the echelon rows found so far, smallest
    column first.  What is left starts a new echelon row, scaled to a leading
    1, or is empty: then the vector lies in the span of the earlier ones and
    its index goes to ``dependent``.  The multipliers of every step are kept
    (an LU factorisation), so ``reduce`` writes any right-hand side in terms
    of the original vectors without eliminating again.
    """

    def __init__(self, vectors: Iterable[Mapping]):
        # leading column -> echelon row, in the order found
        self.echelon: dict = {}
        self.dependent: list[int] = []
        # per echelon row: (vector index, leading column, leading value,
        # [(column, multiplier)] of the rows subtracted from the vector)
        self._steps: list[tuple] = []
        for index, vector in enumerate(vectors):
            row = {c: v for c, v in vector.items() if v}
            used = []
            while row:
                c = min(row)
                piv = self.echelon.get(c)
                if piv is None:
                    lead = row[c]
                    inv = 1 / Fraction(lead)
                    self.echelon[c] = {cc: vv * inv for cc, vv in row.items()}
                    self._steps.append((index, c, lead, used))
                    break
                factor = row[c]
                used.append((c, factor))
                _subtract(row, factor, piv)
            else:
                self.dependent.append(index)
        self._leads = sorted(self.echelon)

    def reduce(self, vector: Mapping) -> tuple[dict[int, Fraction], dict]:
        """(coefficients, residual) with vector = sum_i coefficients[i] *
        vectors[i] + residual.  The coefficients are sparse: the nonzero
        ones only, keyed by vector index in increasing order, so dependent
        vectors never appear.  The residual is empty exactly when the vector
        lies in the span."""
        row = {c: v for c, v in vector.items() if v}
        along: dict = {}
        for c in self._leads:
            factor = row.get(c)
            if factor:
                along[c] = factor
                _subtract(row, factor, self.echelon[c])
        coeffs: dict[int, Fraction] = {}
        # undo the factorisation, last echelon row first: vector index =
        # lead * row(c) + sum of multiplier * row(column) over earlier rows
        for index, c, lead, used in reversed(self._steps):
            x = along.get(c)
            if not x:
                continue
            x = Fraction(x) / lead
            coeffs[index] = x
            for cc, factor in used:
                along[cc] = along.get(cc, 0) - factor * x
        # the steps run in increasing vector index
        return dict(reversed(coeffs.items())), row

    def reduced_rows(self) -> dict:
        """Reduced row echelon form: leading column -> row with a leading 1
        and zeros in every other leading column, in the order found."""
        rows = {c: dict(row) for c, row in self.echelon.items()}
        # A row holds only columns from its lead on.  Cleared from the largest
        # lead down, each pivot row holds no other lead, so subtracting it
        # brings no lead into a row: the rows that hold each lead are known
        # before the loop, listed in the order of rows.
        holders: dict = {}
        for c2, row in rows.items():
            for col in row:
                if col != c2 and col in rows:
                    holders.setdefault(col, []).append(c2)
        for c in sorted(rows, reverse=True):
            piv = rows[c]
            for c2 in holders.get(c, ()):
                row2 = rows[c2]
                _subtract(row2, row2[c], piv)
        return rows

    def kernel(self, columns: Iterable) -> list[dict]:
        """Basis of the right kernel, in reduced-echelon normal form: one
        vector per free column, with a 1 there and 0 in the other free
        columns, in the order of columns."""
        rows = self.reduced_rows()
        # free column -> [(lead, entry)] in the order of rows
        free: dict = {}
        for c, row in rows.items():
            for col, v in row.items():
                if col not in rows:
                    free.setdefault(col, []).append((c, v))
        basis = []
        for f in columns:
            if f in rows:
                continue
            vec = {f: Fraction(1)}
            for c, v in free.get(f, ()):
                vec[c] = -v
            basis.append(vec)
        return basis


def rref_fraction(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    ncols = len(rows[0]) if rows else 0
    reduced = Elimination(_sparse(r) for r in rows).reduced_rows()
    pivots = sorted(reduced)
    m = [_dense(reduced[c], ncols) for c in pivots]
    return m + [[Fraction(0)] * ncols for _ in range(len(rows) - len(m))], pivots


def kernel_exact(rows: list[list[Fraction]], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right kernel of a rational matrix, in reduced echelon
    normal form (each basis vector has a leading 1 in a free column, zeros in
    the other free columns, deterministic order)."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for empty matrix")
        ncols = len(rows[0])
    basis = Elimination(_sparse(r) for r in rows).kernel(range(ncols))
    return [_dense(v, ncols) for v in basis]


def solve_exact(a_rows: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """One solution of A x = b over the rationals, or None if inconsistent.
    Free variables are set to zero."""
    ncols = len(a_rows[0]) if a_rows else 0
    columns = Elimination(
        {i: row[j] for i, row in enumerate(a_rows) if row[j]} for j in range(ncols)
    )
    x, residual = columns.reduce(_sparse(b))
    return None if residual else _dense(x, ncols)


def fraction_matrix_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    nn = len(rows)
    if any(len(r) != nn for r in rows):
        raise ValueError("inverse of non-square matrix")
    factored = Elimination(_sparse(r) for r in rows)
    if factored.dependent:
        raise SingularMatrixError("singular rational matrix")
    # row k of the inverse writes the unit vector e_k in terms of the rows
    return [_dense(factored.reduce({k: Fraction(1)})[0], nn) for k in range(nn)]
