"""Small exact linear algebra over Fraction matrices, and the sum rule of
every sparse vector in the package.

Matrices are lists of lists of Fraction.  Everything here is plain Gaussian
elimination; sizes in this package stay below ~25, so asymptotics are
irrelevant but exactness is not negotiable.

Sparse vectors (ring classes, tensors, wreath classes, series terms) are
dicts from keys to exact coefficients that never store a zero, so equal
vectors are equal dicts and an empty dict is the zero vector.  Every sum
that runs key by key keeps that rule through `add_term`.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


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


def det(m: Matrix) -> Fraction:
    n = len(m)
    a = [row[:] for row in m]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] * inv
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return result


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises ValueError on a singular matrix."""
    n = len(m)
    a = [row[:] + ident_row for row, ident_row in zip(m, identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r == col or a[r][col] == 0:
                continue
            factor = a[r][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]
