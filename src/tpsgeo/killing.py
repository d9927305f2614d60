"""Killing fields by ansatz: solve L_X g = 0 over all vector fields whose
components are polynomials of bounded total degree, then recover the Lie
algebra structure constants of the resulting span.

The Killing equation is linear in the unknown coefficients, so the solver
reduces to one exact sparse kernel computation over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .curvature import MetricSpec, lie_derivative_metric
from .fields import VectorField, bracket
# solve_exact is unused here; the benchmark's alias tests call it as killing.solve_exact
from .linalg import Elimination, solve_exact
from .poly import Chart, LaurentPoly, Scalar

V = TypeVar("V")


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


def killing_system(
    metric: MetricSpec, unknowns: Sequence[tuple[int, tuple[int, ...]]]
) -> dict[tuple[int, int, int], dict[int, Scalar]]:
    """The Killing equations (L_X g)_ij = 0, i <= j, for X = sum_u c_u X_u
    over the ansatz unknowns X_u = x^alpha d_k: sparse rows keyed by
    (i, j, packed exponents of the monomial), each mapping the unknown index
    u to its coefficient.  The column of X_u comes in closed form from the
    metric's d g table and the support of g,

        (L_X g)_ij = x^alpha d_k g_ij + alpha_j x^(alpha - e_j) g_ik
                     + alpha_i x^(alpha - e_i) g_kj,

    so every term is a shift of a packed key; coefficients stay ints when
    the metric's denominators are 1."""
    chart = metric.chart
    d = chart.dim
    entries = metric.g.entries
    dg = metric.partials()
    units = [1 << s for s in chart.shifts]
    # per k: the terms of d_k g_ij on the upper triangle, and of the nonzero
    # g_ik (the support of column k)
    dg_terms = [
        [
            (i, j, tuple(dg[i][j][k].packed_items()))
            for i in range(d)
            for j in range(i, d)
            if dg[i][j][k].coeffs
        ]
        for k in range(d)
    ]
    g_terms = [
        [(i, tuple(entries[i][k].packed_items())) for i in range(d) if entries[i][k].coeffs]
        for k in range(d)
    ]
    rows: dict[tuple[int, int, int], dict[int, Scalar]] = {}

    def add(key: tuple[int, int, int], u: int, c: Scalar) -> None:
        row = rows.get(key)
        if row is None:
            rows[key] = {u: c}
        else:
            row[u] = row.get(u, 0) + c

    for u, (k, alpha) in enumerate(unknowns):
        # adding off to a packed key multiplies its monomial by x^alpha
        off = chart.pack(alpha) - chart.bias
        for i, j, terms in dg_terms[k]:
            for key, c in terms:
                add((i, j, key + off), u, c)
        for j, e in enumerate(alpha):
            if not e:
                continue
            # alpha_j x^(alpha - e_j) g_ik at (i, j) and, as the g_kj term,
            # at (j, i): one upper entry, which on the diagonal gets both
            shift = off - units[j]
            for i, terms in g_terms[k]:
                at = (i, j) if i <= j else (j, i)
                f = 2 * e if i == j else e
                for key, c in terms:
                    add((*at, key + shift), u, f * c)
    for key in [key for key, row in rows.items() if not all(row.values())]:
        row = {u: c for u, c in rows[key].items() if c}
        if row:
            rows[key] = row
        else:
            del rows[key]
    return rows


def killing_solve(metric: MetricSpec, max_degree: int) -> list[VectorField]:
    """All Killing fields of the metric with polynomial components of total
    degree <= max_degree; exact, deterministic basis."""
    chart = metric.chart
    unknowns = ansatz_basis(chart, max_degree)
    system = killing_system(metric, unknowns)
    # packed keys sort like exponent tuples; an equation that repeats an
    # earlier one adds nothing to the elimination
    rows = list({tuple(system[key].items()): system[key] for key in sorted(system)}.values())
    fields = []
    for vec in Elimination(rows).kernel(range(len(unknowns))):
        terms: list[dict[tuple[int, ...], Fraction]] = [dict() for _ in range(chart.dim)]
        for u, coef in vec.items():
            k, alpha = unknowns[u]
            terms[k][alpha] = coef
        fields.append(VectorField(chart, [LaurentPoly(chart, t) for t in terms]))
    return fields


def catalog_report(
    metric: MetricSpec, catalog: Sequence[tuple[str, VectorField]], expected_count: int
) -> dict:
    """Every (label, field) of the catalog is a Killing field of the metric,
    and the catalog has the expected number of generators."""
    bad = [label for label, field in catalog if not lie_derivative_metric(metric, field).is_zero()]
    return {
        "count": len(catalog),
        "expected_count": expected_count,
        "non_killing": bad,
        "passed": not bad and len(catalog) == expected_count,
    }


# ----------------------------------------------------------------------
# span comparison, structure constants and closed-form bracket tables


def _entries(field: VectorField) -> dict[tuple[int, int], Scalar]:
    """The field as a sparse vector keyed by (component, packed exponents)."""
    return {(k, key): c for k, comp in enumerate(field.comps) for key, c in comp.packed_items()}


def span_contains(span: Sequence[VectorField], field: VectorField) -> bool:
    """Exact membership of a field in the rational span of a list of fields."""
    return spans_contain(span, [field])


def spans_contain(span: Sequence[VectorField], fields: Iterable[VectorField]) -> bool:
    """Exact membership of every field in the rational span, which is
    factored once."""
    factored = Elimination(_entries(f) for f in span)
    return all(not factored.reduce(_entries(f))[1] for f in fields)


def spans_equal(a: Sequence[VectorField], b: Sequence[VectorField]) -> bool:
    return spans_contain(a, b) and spans_contain(b, a)


# A closed-form bracket table over field labels: (a, b) -> {c: coefficient}
# for [X_a, X_b] = sum_c coefficient X_c; a pair it does not list brackets
# to zero.
BracketTable = dict[tuple[str, str], dict[str, Scalar]]


def bracket_table(terms: Iterable[tuple[str, str, str, Scalar]]) -> BracketTable:
    """The table of the bracket terms (a, b, c, coefficient), the
    coefficients of one (a, b, c) summed."""
    table: BracketTable = {}
    for a, b, c, coef in terms:
        row = table.setdefault((a, b), {})
        row[c] = row.get(c, 0) + coef
    return table


def structure_constants(
    vectors: Sequence[tuple[str, V]], coords: Callable[[V], Mapping], bracket: Callable[[V, V], V]
) -> BracketTable:
    """The bracket table of the labelled vectors, in the closed-form tables'
    format: (a, b) -> {c: C} with [v_a, v_b] = sum_c C v_c, nonzero C only,
    for the pairs a-before-b whose bracket is nonzero; coords writes a vector
    as sparse coordinates.  Raises ValueError if the vectors are linearly
    dependent or some bracket leaves their span (they are not an algebra)."""
    labels = [label for label, _ in vectors]
    factored = Elimination(coords(v) for _, v in vectors)
    if factored.dependent:
        raise ValueError("vectors are linearly dependent")
    table: BracketTable = {}
    for k, (a, va) in enumerate(vectors):
        for b, vb in vectors[k + 1:]:
            coeffs, residual = factored.reduce(coords(bracket(va, vb)))
            # the residual covers every coordinate of the bracket, those
            # outside the vectors' own included
            if residual:
                raise ValueError("bracket leaves the span: not closed")
            if coeffs:
                table[a, b] = {labels[c]: v for c, v in coeffs.items()}
    return table


def combination_equals(
    value: VectorField, coeffs: Mapping[str, Scalar], fields: Mapping[str, VectorField]
) -> bool:
    """value == sum_c coeffs[c] fields[c], the sum built from the nonzero
    coefficients only; false when a label with a nonzero coefficient is
    not among the fields."""
    expect = None
    for label, c in coeffs.items():
        if not c:
            continue
        field = fields.get(label)
        if field is None:
            return False
        term = field if c == 1 else field.scale(c)
        expect = term if expect is None else expect + term
    return value.is_zero() if expect is None else value == expect


def bracket_failures(fields: Sequence[tuple[str, VectorField]], table: BracketTable) -> list[str]:
    """The "[a,b]" labels of the pairs a-before-b of the labelled fields
    whose bracket differs from the table.  A table pair that the list does
    not hold in that order fails too, so a catalog that lacks a field fails
    the pairs that name it."""
    by_label = dict(fields)
    order = {label: k for k, (label, _) in enumerate(fields)}
    failures = []
    for k, (a, fa) in enumerate(fields):
        for b, fb in fields[k + 1:]:
            if not combination_equals(bracket(fa, fb), table.get((a, b), {}), by_label):
                failures.append(f"[{a},{b}]")
    failures.extend(
        f"[{a},{b}]" for a, b in table if a not in order or b not in order or order[a] >= order[b]
    )
    return failures
