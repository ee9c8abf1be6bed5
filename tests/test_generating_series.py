"""Generating series: closed forms, refined products, partition sums, oracle."""

from fractions import Fraction

import pytest

from hilb.errors import UsageError
from hilb.exact_poly import TruncatedSeries
from hilb.generating_series import (
    DEFAULT_LIMIT,
    _poly_mul,
    SeriesSpec,
    betti_goettsche,
    brute_force_poincare,
    check_resource,
    closed_form,
    compare_series,
    orbit_scan_cost,
    partition_sum,
    poly_render,
    refined_goettsche,
    ring_betti,
    ring_dims,
)
from hilb.surface_ring import PRESET_NAMES, load_ring, preset, save_ring
from hilb.symmetric_groups import _perm_orbit_blocks, partitions
from hilb.wreath_ring import iter_orbit_reps

FAMILY = {"a0": "a0", "d4": "dynkin4", "e6": "dynkin6", "e7": "dynkin7", "e8": "dynkin8"}


def test_series_spec_parsing():
    assert SeriesSpec.parse("a0", 3).case == "a0"
    assert SeriesSpec.parse("dynkin7", 3).k == 7
    with pytest.raises(UsageError):
        SeriesSpec.parse("dynkin5", 3)
    with pytest.raises(UsageError):
        SeriesSpec.parse("e6", 3)


def test_closed_form_s0_and_s1():
    for label, expected_s1 in [
        ("a0", {(0, 0): 1, (1, 1): 2, (2, 2): 1}),
        ("dynkin4", {(0, 0): 1, (1, 2): 4, (2, 2): 1}),
        ("dynkin6", {(0, 0): 1, (1, 2): 6, (2, 2): 1}),
    ]:
        series = closed_form(SeriesSpec.parse(label, 2))
        assert series.coefficient_of_s(0) == {(0, 0): 1}
        assert series.coefficient_of_s(1) == expected_s1


def test_partitions():
    assert list(partitions(0)) == [()]
    assert sorted(partitions(4)) == sorted(
        [
            (0, 0, 0, 1),
            (1, 0, 1, 0),
            (0, 2, 0, 0),
            (2, 1, 0, 0),
            (4, 0, 0, 0),
        ]
    )


def test_partition_sum_examples():
    d4 = ring_dims(preset("d4"))
    assert partition_sum(d4, 0) == {(0, 0): 1}
    assert partition_sum(d4, 1) == {(0, 0): 1, (1, 2): 4, (2, 2): 1}
    cf = closed_form(SeriesSpec.parse("dynkin4", 2))
    assert partition_sum(d4, 2) == cf.coefficient_of_s(2)


def test_cancelling_sums_store_no_zero_key():
    # (1 + qt)(1 - qt) = 1 - q^2 t^2: the two cross terms cancel
    assert _poly_mul({(0, 0): 1, (1, 1): 1}, {(0, 0): 1, (1, 1): -1}) == {(0, 0): 1, (2, 2): -1}
    x = closed_form(SeriesSpec.parse("dynkin4", 3))
    assert (x + (-x)).terms == {}


def test_brute_force_examples():
    d4 = preset("d4")
    assert brute_force_poincare(d4, 0) == {(0, 0): 1}
    assert brute_force_poincare(d4, 1) == {(0, 0): 1, (1, 2): 4, (2, 2): 1}
    with pytest.raises(UsageError):
        brute_force_poincare(d4, -1)
    a0 = preset("a0")
    cf = closed_form(SeriesSpec.parse("a0", 2))
    assert brute_force_poincare(a0, 2) == cf.coefficient_of_s(2)


@pytest.mark.parametrize("name", ["a0", "d4", "e6", "e7", "e8"])
def test_refined_equals_closed_form(name):
    ring = preset(name)
    bound = 6
    refined = refined_goettsche(ring_dims(ring), bound)
    closed = closed_form(SeriesSpec.parse(FAMILY[name], bound))
    assert compare_series(refined, closed, bound).equal


@pytest.mark.parametrize(
    "name,n_max",
    [("a0", 3), ("d4", 3), ("e6", 3), ("e7", 3), ("e8", 3), ("k3", 3), ("abelian", 3)],
)
def test_oracle_equivalence_small(name, n_max):
    # acceptance runs the larger five-family ranges; these cover every preset
    ring = preset(name)
    dims = ring_dims(ring)
    refined = refined_goettsche(dims, n_max)
    closed = closed_form(SeriesSpec.parse(FAMILY[name], n_max)) if name in FAMILY else refined
    for n in range(n_max + 1):
        brute = brute_force_poincare(ring, n)
        summed = partition_sum(dims, n)
        coeff = refined.coefficient_of_s(n)
        assert brute == summed == coeff == closed.coefficient_of_s(n), (name, n)
        # both oracles count in ints and return Fractions
        for poly in (brute, summed):
            assert all(type(c) is Fraction for c in poly.values()), (name, n)


@pytest.mark.parametrize("name", ["a0", "d4", "e6", "e7", "e8", "k3", "abelian"])
def test_goettsche_betti_specialization(name):
    ring = preset(name)
    bound = 4
    refined = refined_goettsche(ring_dims(ring), bound).specialize(q_value=1)
    betti = betti_goettsche(ring_betti(ring), bound)
    assert refined == betti


@pytest.mark.parametrize("name", ["a0", "d4", "e6", "e7", "e8", "k3", "abelian"])
def test_degree_bounds(name):
    ring = preset(name)
    refined = refined_goettsche(ring_dims(ring), 4)
    for (e_s, e_q, e_t) in refined.terms:
        assert e_t <= 4 * e_s
        assert e_q <= 2 * e_s


@pytest.mark.parametrize("name", ["k3", "abelian"])
def test_hard_lefschetz_palindromy_compact(name):
    ring = preset(name)
    refined = refined_goettsche(ring_dims(ring), 3)
    for n in range(1, 4):
        poly = refined.coefficient_of_s(n)
        flipped = {(2 * n - q, 4 * n - t): c for (q, t), c in poly.items()}
        assert flipped == poly, (name, n)


def _lefschetz_symmetric(poly, n: int) -> bool:
    """Whether dims_n(p, d) = dims_n(2n - p, d + 2(n - p)) on one s^n slice."""
    return poly == {(2 * n - p, d + 2 * (n - p)): c for (p, d), c in poly.items()}


def _relative_hard_lefschetz_breaks(dims, s_bound: int) -> list[int]:
    """The n <= s_bound at which the refined series breaks the symmetry."""
    refined = refined_goettsche(dims, s_bound)
    return [
        n for n in range(1, s_bound + 1)
        if not _lefschetz_symmetric(refined.coefficient_of_s(n), n)
    ]


@pytest.mark.parametrize("name", ["a0", "d4", "e6", "e7", "e8", "k3", "abelian"])
def test_relative_hard_lefschetz(name):
    # de Cataldo-Migliorini: the perverse filtration of S^[n] -> C^(n) is
    # symmetric about perversity n, shifting degree by twice the distance
    assert _relative_hard_lefschetz_breaks(ring_dims(preset(name)), 12) == []


def test_relative_hard_lefschetz_catches_moved_class():
    # one d4 class moved from perversity 1 to perversity 0
    dims = dict(ring_dims(preset("d4")))
    dims[(1, 2)] -= 1
    dims[(0, 2)] = dims.get((0, 2), 0) + 1
    assert _relative_hard_lefschetz_breaks(dims, 3)[0] == 1


@pytest.mark.parametrize("name", ["k3", "abelian"])
def test_oracle_equivalence_compact_at_n5(name):
    # the compact presets at the oracle's sorted-tuple reach; abelian's odd
    # classes exercise the stabilizer-generator sign test
    ring = preset(name)
    assert brute_force_poincare(ring, 5) == partition_sum(ring_dims(ring), 5)


def _equal_adjacent_pairs(rep) -> int:
    """Pairs of adjacent slots of one group of equal-length cycles that hold
    equal factors: the sign tests the orbit count makes at most for rep."""
    s, factors = rep
    lengths = [len(block) for block in _perm_orbit_blocks(s)]
    count = 0
    for length in set(lengths):
        slots = [i for i, l in enumerate(lengths) if l == length]
        count += sum(factors[a] == factors[b] for a, b in zip(slots, slots[1:]))
    return count


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_orbit_scan_cost_counts_the_enumeration(name):
    # the gate's count, from partitions alone, against what iter_orbit_reps
    # generates: one tuple per representative, plus one sign test per equal
    # adjacent pair of a group on rings with odd classes
    ring = preset(name)
    for n in range(1, 5 if name != "k3" else 4):
        reps = [rep for rep, _ in iter_orbit_reps(ring, n)]
        tests = sum(map(_equal_adjacent_pairs, reps)) if ring.has_odd else 0
        assert orbit_scan_cost(ring, n) == len(reps) + tests, (name, n)


def test_resource_gate_admits_the_sorted_enumeration():
    # sorted tuples at e6/e7/e8 n = 6, d4 n = 7, k3 n = 6; abelian n = 5 adds
    # its sign tests to 33,440 tuples
    costs = {("e6", 6): 7_704, ("e7", 6): 12_483, ("e8", 6): 19_415,
             ("d4", 7): 6_372, ("k3", 6): 1_073_720, ("abelian", 5): 53_808}
    for (name, n), cost in costs.items():
        assert orbit_scan_cost(preset(name), n) == cost, name
        check_resource(preset(name), n, DEFAULT_LIMIT)


@pytest.mark.parametrize(
    "name,n_max", [(name, 5 if name in ("a0", "d4") else 3) for name in PRESET_NAMES]
)
def test_relative_hard_lefschetz_on_orbit_counts(name, n_max):
    # the same symmetry on the oracle's own counts, with no product formula
    ring = preset(name)
    for n in range(1, n_max + 1):
        assert _lefschetz_symmetric(brute_force_poincare(ring, n), n), (name, n)


def test_orbit_count_symmetry_catches_moved_class():
    # E1 moved from perversity 1 to perversity 0 in the d4 ring itself
    text = save_ring(preset("d4")).replace(
        "basis E1 degree=2 perversity=1", "basis E1 degree=2 perversity=0"
    )
    assert not _lefschetz_symmetric(brute_force_poincare(load_ring(text), 1), 1)


@pytest.mark.parametrize(
    "name,n_max",
    [("a0", 5), ("d4", 5), ("e6", 4), ("e7", 3), ("e8", 3), ("k3", 3), ("abelian", 3)],
)
def test_invariant_class_counts_match_betti_product(name, n_max):
    # number of surviving orbit classes per degree = coefficients of the
    # refined product at q := 1
    ring = preset(name)
    refined = refined_goettsche(ring_dims(ring), n_max).specialize(q_value=1)
    for n in range(n_max + 1):
        by_degree: dict[int, int] = {}
        for (q, t), c in brute_force_poincare(ring, n).items():
            by_degree[t] = by_degree.get(t, 0) + int(c)
        expected = {
            t: int(c) for (q, t), c in refined.coefficient_of_s(n).items()
        }
        assert by_degree == expected, (name, n)


def test_compare_series():
    a = closed_form(SeriesSpec.parse("dynkin4", 3))
    b = closed_form(SeriesSpec.parse("dynkin6", 3))
    assert compare_series(a, a, 3).equal
    report = compare_series(a, b, 1)
    assert not report.equal
    assert report.first_diff == (1, 1, 2)
    assert (report.coeff_a, report.coeff_b) == (4, 6)
    with pytest.raises(UsageError):
        compare_series(a, TruncatedSeries.one(1), 3)
    with pytest.raises(UsageError):
        compare_series(a, a, -1)  # "equal through s^-1" says nothing


def test_poly_render():
    assert poly_render({}) == "0"
    assert poly_render({(0, 0): Fraction(1), (1, 2): Fraction(4)}) == "1 + 4*q^1t^2"
