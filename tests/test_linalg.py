"""Exact determinant and inverse against reference eliminations."""

import random
from fractions import Fraction

import pytest

from hilb import linalg
from hilb.surface_ring import PRESET_NAMES, e8_cartan, preset


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


def _inverse_by_fractions(m):
    """The reference: Gauss-Jordan on sparse rows of (m | 1) that divides by
    each pivot as it clears (Fractions where it does not divide), as
    `inverse` did before it went fraction-free; integral entries as int."""
    n = len(m)
    rows = linalg._sparse_rows(m)
    for i, row in enumerate(rows):
        row[n + i] = 1
    for col in range(n):
        if linalg._pivot(rows, col) is None:
            raise ValueError("singular matrix")
        pivot = rows[col]
        for r, row in enumerate(rows):
            if r != col and col in row:
                f = linalg._div(row[col], pivot[col])
                for k, v in pivot.items():
                    linalg.add_term(row, k, -f * v)
    return [
        [linalg._div(row.get(n + j, 0), row[col]) for j in range(n)]
        for col, row in enumerate(rows)
    ]


def _same_entries(a, b) -> bool:
    """Equal matrices whose equal entries also have equal types."""
    return a == b and [list(map(type, row)) for row in a] == [list(map(type, row)) for row in b]


@pytest.mark.parametrize("name", [p for p in PRESET_NAMES if preset(p).mode == "compact"])
def test_pairing_inverse_matches_the_fraction_reference(name):
    pairing = preset(name).pairing
    assert _same_entries(linalg.inverse(pairing), _inverse_by_fractions(pairing))


def test_random_nonsingular_matrices_match_the_fraction_reference():
    # int matrices, and Fraction matrices with small denominators, whose
    # pivots do not all divide
    rng = random.Random(11)
    entries = (0, 0, 1, -1, 2, -3, 5)
    seen = {"int": 0, "fraction": 0}
    while min(seen.values()) < 100:
        kind = rng.choice(sorted(seen))
        n = rng.randint(1, 6)
        m = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        if kind == "fraction":
            m = [[Fraction(x, rng.choice((1, 2, 3, 4))) for x in row] for row in m]
        if linalg.det(m) == 0:
            continue
        assert _same_entries(linalg.inverse(m), _inverse_by_fractions(m)), m
        seen[kind] += 1


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
