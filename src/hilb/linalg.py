"""Small exact linear algebra on int and Fraction matrices, and the sum rule
of every sparse vector in the package.

Matrices are lists of rows of exact entries, int or Fraction.  `det` and
`inverse` eliminate on sparse dict rows through `add_term` (the Poincare
pairings here have a few nonzero entries per row).  `det` keeps integral
entries as int, making a Fraction only where a pivot does not divide;
`inverse` eliminates fraction-free on int rows and divides once per entry
at the end.  Sizes in this package stay below ~25, so asymptotics are
irrelevant but exactness is not negotiable.

Sparse vectors (ring classes, tensors, wreath classes, series terms) are
dicts from keys to exact coefficients that never store a zero, so equal
vectors are equal dicts and an empty dict is the zero vector.  Every sum
that runs key by key keeps that rule through `add_term`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def _pivot(rows: list[dict], col: int) -> int | None:
    """Swap into row col a row at or below it with an entry in column col,
    one of +-1 where the column has one; returns the row it came from, or
    None when no row has an entry there."""
    rest = [r for r in range(col, len(rows)) if col in rows[r]]
    if not rest:
        return None
    r = min(rest, key=lambda i: abs(rows[i][col]) != 1)
    rows[col], rows[r] = rows[r], rows[col]
    return r


def _eliminate(rows: list[dict], n: int) -> int | None:
    """Gaussian elimination on the sparse rows, over their columns 0..n-1.

    Row col ends with the pivot of column col, and the rows below it have
    no entry there.  A pivot of +-1 is taken where the column has one, so
    integral matrices stay in ints as far as their pivots divide.  Returns
    the sign of the row permutation, or None when a column has no pivot
    (the matrix is singular).
    """
    sign = 1
    for col in range(n):
        r = _pivot(rows, col)
        if r is None:
            return None
        if r != col:
            sign = -sign
        pivot = rows[col]
        p = pivot[col]
        for row in rows[col + 1:]:
            if col in row:
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
    sign = _eliminate(rows, n)
    if sign is None:
        return 0
    result = sign
    for col in range(n):
        result *= rows[col][col]
    return _exact(result)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse, integral entries as int; raises ValueError on a
    singular matrix.

    Fraction-free Gauss-Jordan on the rows of (m | 1), each scaled to ints
    by the least common multiple of its denominators.  A row with entry a
    in the pivot's column clears it as (p/g) row - (a/g) pivot, for the
    pivot p and g = gcd(p, a), and is then divided by the gcd of its
    entries, so the entries stay small.  Row col ends as a multiple d of
    the unit vector col next to d times row col of the inverse, which is
    divided out once per entry (`_div`).
    """
    n = len(m)
    rows = []
    for i, row in enumerate(_sparse_rows(m)):
        row[n + i] = 1
        scale = lcm(*(v.denominator for v in row.values()))
        rows.append({k: int(v * scale) for k, v in row.items()})
    for col in range(n):
        if _pivot(rows, col) is None:
            raise ValueError("singular matrix")
        pivot = rows[col]
        p = pivot[col]
        for r, row in enumerate(rows):
            a = row.get(col)
            if r == col or a is None:
                continue
            g = gcd(p, a)
            cleared = {k: p // g * v for k, v in row.items()}
            for k, v in pivot.items():
                add_term(cleared, k, -(a // g) * v)
            d = gcd(*cleared.values())
            rows[r] = {k: v // d for k, v in cleared.items()} if d > 1 else cleared
    return [
        [_div(row.get(n + j, 0), row[col]) for j in range(n)]
        for col, row in enumerate(rows)
    ]
