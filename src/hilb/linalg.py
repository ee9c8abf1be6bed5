"""Small exact linear algebra on int and Fraction matrices, and the sum rule
of every sparse vector in the package.

Matrices are lists of rows of exact entries, int or Fraction.  `det` and
`inverse` eliminate on sparse dict rows through `add_term` (the Poincare
pairings here have a few nonzero entries per row) and keep integral entries
as int, making a Fraction only where a pivot does not divide.  Sizes in this
package stay below ~25, so asymptotics are irrelevant but exactness is not
negotiable.

Sparse vectors (ring classes, tensors, wreath classes, series terms) are
dicts from keys to exact coefficients that never store a zero, so equal
vectors are equal dicts and an empty dict is the zero vector.  Every sum
that runs key by key keeps that rule through `add_term`.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list]  # int or Fraction entries


def add_term(terms: dict, key, coeff) -> None:
    """terms[key] += coeff, keeping no zero coefficient."""
    acc = terms.get(key, 0) + coeff
    if acc:
        terms[key] = acc
    else:
        terms.pop(key, None)


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def _exact(c):
    """c as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _div(c, p):
    """c / p exactly: an int when p divides c, a Fraction only when not."""
    if type(c) is int and type(p) is int and not c % p:
        return c // p
    return _exact(Fraction(c) / p)


def _eliminate(rows: list[dict], n: int, clear_above: bool) -> int | None:
    """Gaussian elimination on the sparse rows, over their columns 0..n-1.

    Row col ends with the pivot of column col, and the rows below it have
    no entry there (with clear_above, no other row has).  A pivot of +-1 is
    taken where the column has one, so integral matrices stay in ints as far
    as their pivots divide.  Returns the sign of the row permutation, or None
    when a column has no pivot (the matrix is singular).
    """
    sign = 1
    for col in range(n):
        rest = [r for r in range(col, n) if col in rows[r]]
        if not rest:
            return None
        r = min(rest, key=lambda i: abs(rows[i][col]) != 1)
        if r != col:
            rows[col], rows[r] = rows[r], rows[col]
            sign = -sign
        pivot = rows[col]
        p = pivot[col]
        for r in range(0 if clear_above else col + 1, n):
            row = rows[r]
            if r == col or col not in row:
                continue
            f = _div(row[col], p)
            for k, v in pivot.items():
                add_term(row, k, -f * v)
    return sign


def _sparse_rows(m: Matrix) -> list[dict]:
    return [{j: _exact(x) for j, x in enumerate(row) if x} for row in m]


def det(m: Matrix) -> int | Fraction:
    """Exact determinant, an int when it is integral."""
    n = len(m)
    rows = _sparse_rows(m)
    sign = _eliminate(rows, n, clear_above=False)
    if sign is None:
        return 0
    result = sign
    for col in range(n):
        result *= rows[col][col]
    return _exact(result)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse, integral entries as int; raises ValueError on a
    singular matrix."""
    n = len(m)
    rows = _sparse_rows(m)
    for i, row in enumerate(rows):
        row[n + i] = 1
    if _eliminate(rows, n, clear_above=True) is None:
        raise ValueError("singular matrix")
    # Gauss-Jordan left row col as its pivot times row col of the inverse
    return [
        [_div(row.get(n + j, 0), row[col]) for j in range(n)]
        for col, row in enumerate(rows)
    ]
