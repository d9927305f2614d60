"""Killing fields by ansatz: solve L_X g = 0 over all vector fields whose
components are polynomials of bounded total degree, then recover the Lie
algebra structure constants of the resulting span.

The Killing equation is linear in the unknown coefficients, so the solver
reduces to one exact sparse kernel computation over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .curvature import MetricSpec, lie_derivative_metric
from .fields import VectorField, bracket
from .linalg import Elimination, solve_exact
from .poly import Chart, LaurentPoly, Scalar


def monomials_up_to(dim: int, max_degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples with nonnegative entries and total degree <= max_degree,
    in graded lexicographic order."""
    out: list[tuple[int, ...]] = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    for total in range(max_degree + 1):
        start = len(out)
        rec([], dim, total)
        block = [t for t in out[start:] if sum(t) == total]
        del out[start:]
        out.extend(sorted(block, reverse=True))
    return out


def ansatz_basis(chart: Chart, max_degree: int) -> list[tuple[int, tuple[int, ...]]]:
    """(coordinate index, exponent tuple) pairs indexing the unknowns."""
    monos = monomials_up_to(chart.dim, max_degree)
    return [(k, alpha) for k in range(chart.dim) for alpha in monos]


def _basis_field(chart: Chart, k: int, alpha: tuple[int, ...]) -> VectorField:
    comps = [LaurentPoly.zero(chart) for _ in range(chart.dim)]
    comps[k] = LaurentPoly(chart, {alpha: Fraction(1)})
    return VectorField(chart, comps)


def killing_solve(metric: MetricSpec, max_degree: int) -> list[VectorField]:
    """All Killing fields of the metric with polynomial components of total
    degree <= max_degree; exact, deterministic basis."""
    chart = metric.chart
    unknowns = ansatz_basis(chart, max_degree)
    # rows are keyed (i, j, packed exponents of the monomial); packed keys
    # sort like exponent tuples
    columns: list[dict[tuple[int, int, int], Scalar]] = []
    for k, alpha in unknowns:
        lg = lie_derivative_metric(metric, _basis_field(chart, k, alpha))
        col: dict[tuple[int, int, int], Scalar] = {}
        for i, row in enumerate(lg.entries):
            for j in range(i, chart.dim):
                for beta, coef in row[j].packed_items():
                    col[(i, j, beta)] = coef
        columns.append(col)

    row_keys = sorted({key for col in columns for key in col})
    row_index = {key: r for r, key in enumerate(row_keys)}
    rows: list[dict[int, Scalar]] = [dict() for _ in row_keys]
    for u, col in enumerate(columns):
        for key, coef in col.items():
            rows[row_index[key]][u] = coef

    fields = []
    for vec in Elimination(rows).kernel(range(len(unknowns))):
        terms: list[dict[tuple[int, ...], Fraction]] = [dict() for _ in range(chart.dim)]
        for u, coef in vec.items():
            k, alpha = unknowns[u]
            terms[k][alpha] = coef
        fields.append(VectorField(chart, [LaurentPoly(chart, t) for t in terms]))
    return fields


# ----------------------------------------------------------------------
# span comparison and structure constants


def _entries(field: VectorField) -> dict[tuple[int, int], Scalar]:
    """The field as a sparse vector keyed by (component, packed exponents)."""
    return {(k, key): c for k, comp in enumerate(field.comps) for key, c in comp.packed_items()}


def span_contains(span: Sequence[VectorField], field: VectorField) -> bool:
    """Exact membership of a field in the rational span of a list of fields."""
    vectors = [_entries(f) for f in span]
    keys = sorted({key for vec in vectors for key in vec})
    target = _entries(field)
    if not target.keys() <= set(keys):
        return False
    a = [[Fraction(vec.get(key, 0)) for vec in vectors] for key in keys]
    return solve_exact(a, [Fraction(target.get(key, 0)) for key in keys]) is not None


def _spans(span: Sequence[VectorField], fields: Sequence[VectorField]) -> bool:
    factored = Elimination(_entries(f) for f in span)
    return all(not factored.reduce(_entries(f))[1] for f in fields)


def spans_equal(a: Sequence[VectorField], b: Sequence[VectorField]) -> bool:
    return _spans(a, b) and _spans(b, a)


def structure_constants(fields: Sequence[VectorField]) -> list[list[list[Fraction]]]:
    """C[a][b][c] with [X_a, X_b] = sum_c C[a][b][c] X_c; raises ValueError
    if some bracket leaves the span (the list does not close into an algebra)
    or the fields are linearly dependent."""
    m = len(fields)
    factored = Elimination(_entries(f) for f in fields)
    if factored.dependent:
        raise ValueError("fields are linearly dependent")
    out = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            coeffs, residual = factored.reduce(_entries(bracket(fields[a], fields[b])))
            # the residual covers every coordinate of the bracket, monomials
            # outside the fields' own included
            if residual:
                raise ValueError("bracket leaves the span: not closed")
            for c in range(m):
                out[a][b][c] = coeffs[c]
                out[b][a][c] = -coeffs[c]
    return out
