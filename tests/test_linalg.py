"""Exact determinant and inverse against a dense reference elimination."""

import random
from fractions import Fraction

import pytest

from hilb import linalg
from hilb.surface_ring import e8_cartan, preset


def _dense_det(m) -> Fraction:
    """The reference: dense Gaussian elimination over Fraction."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return result


_NONSINGULAR = {
    "k3": lambda: preset("k3").pairing,
    "abelian": lambda: preset("abelian").pairing,
    "e8-cartan": e8_cartan,
    # the A3 Cartan matrix, det 4: its inverse has entries in quarters
    "non-integral-inverse": lambda: [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    # the first column's leading entry is zero, so the first pivot needs a swap
    "zero-leading-entry": lambda: [[0, 2, 1], [1, 0, 0], [3, 1, 1]],
    "fraction-entries": lambda: [[Fraction(1, 2), 1], [Fraction(2, 3), Fraction(-3, 4)]],
}


@pytest.mark.parametrize("name", sorted(_NONSINGULAR))
def test_inverse_and_det_match_the_reference(name):
    m = _NONSINGULAR[name]()
    n = len(m)
    inv = linalg.inverse(m)
    assert linalg.matmul(m, inv) == linalg.identity(n)
    assert linalg.matmul(inv, m) == linalg.identity(n)
    assert linalg.det(m) == _dense_det(m) != 0
    # exact entries: integral ones come back as int
    for x in (x for row in inv for x in row):
        assert type(x) is int if x.denominator == 1 else type(x) is Fraction
    if name in ("k3", "abelian", "e8-cartan"):  # unimodular
        assert all(type(x) is int for row in inv for x in row)
    if name == "non-integral-inverse":
        assert inv[0][0] == Fraction(3, 4)


@pytest.mark.parametrize(
    "m",
    [
        [[1, 2], [2, 4]],
        [[0, 0], [0, 0]],
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[Fraction(1, 2), 1], [1, 2]],
    ],
)
def test_singular_matrices(m):
    assert linalg.det(m) == 0 == _dense_det(m)
    with pytest.raises(ValueError):
        linalg.inverse(m)


def test_random_integer_matrices_match_the_reference():
    # small entries, many zeros: singular cases, row swaps and non-dividing
    # pivots all occur among them
    rng = random.Random(5)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        m = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
        d = linalg.det(m)
        assert d == _dense_det(m)
        assert type(d) is int
        if d == 0:
            singular += 1
            with pytest.raises(ValueError):
                linalg.inverse(m)
        else:
            assert linalg.matmul(m, linalg.inverse(m)) == linalg.identity(n)
    assert 0 < singular < 300
