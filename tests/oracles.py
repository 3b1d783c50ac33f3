"""Slow exact ring operations on Laurent polynomials and matrices, kept as test oracles.

The library computes a determinant as one integer determinant and never
multiplies polynomials or matrices; the tests use these schoolbook
operations to build inputs and to check its results independently.
"""

from braidkit.laurent import LaurentPolynomial, PolyMatrix


def poly_mul(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    out: dict[int, int] = {}
    for e1, c1 in p.terms:
        for e2, c2 in q.terms:
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPolynomial.from_dict(out)


def identity(dim: int) -> PolyMatrix:
    one, zero = LaurentPolynomial.one(), LaurentPolynomial.zero()
    return PolyMatrix(tuple(tuple(one if i == j else zero for j in range(dim)) for i in range(dim)))


def matrix_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    d = a.dim
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = LaurentPolynomial.zero()
            for k in range(d):
                acc = acc + poly_mul(a.rows[i][k], b.rows[k][j])
            row.append(acc)
        out.append(tuple(row))
    return PolyMatrix(tuple(out))


def matrix_sub(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return PolyMatrix(
        tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows))
    )


def cofactor_determinant(m: PolyMatrix) -> LaurentPolynomial:
    """Laplace expansion along the first row, O(d!) ring operations."""
    d = m.dim
    if d == 0:
        return LaurentPolynomial.one()
    if d == 1:
        return m.rows[0][0]
    acc = LaurentPolynomial.zero()
    for j in range(d):
        entry = m.rows[0][j]
        if entry.is_zero():
            continue
        minor = PolyMatrix(tuple(tuple(r[k] for k in range(d) if k != j) for r in m.rows[1:]))
        term = poly_mul(entry, cofactor_determinant(minor))
        acc = acc + (term if j % 2 == 0 else -term)
    return acc
