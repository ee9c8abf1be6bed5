"""Acceptance suite: the exit criteria, exact arithmetic, zero tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Everything here is exact; there are no numerical tolerances
anywhere, only equality of rational numbers.
"""

import time

from hilb.generating_series import (
    SeriesSpec,
    betti_goettsche,
    brute_force_poincare,
    closed_form,
    compare_series,
    partition_sum,
    refined_goettsche,
    ring_betti,
    ring_dims,
)
from hilb.perverse_filtration import (
    MONODROMY_MATRICES,
    TRIANGLE_MATRIX,
    check_diagonal_bound,
    check_intersection_nondegenerate,
    check_monodromy_vanishing,
    check_multiplicativity,
    perversity,
    perversity_class,
    pw_transport,
)
from hilb.surface_ring import filtered_basis, preset
from hilb.symmetric_groups import Perm, parse_cycles
from hilb.wreath_ring import (
    WreathClass,
    check_associativity,
    check_equivariance,
    check_graded_commutativity,
    check_unit_laws,
    cup_class,
    make_element,
)

FIVE_FAMILIES = ("a0", "d4", "e6", "e7", "e8")
FAMILY_CASE = {"a0": "a0", "d4": "dynkin4", "e6": "dynkin6", "e7": "dynkin7", "e8": "dynkin8"}

N1_TABLES = {
    "a0": {(0, 0): 1, (1, 1): 2, (2, 2): 1},
    "d4": {(0, 0): 1, (1, 2): 4, (2, 2): 1},
    "e6": {(0, 0): 1, (1, 2): 6, (2, 2): 1},
    "e7": {(0, 0): 1, (1, 2): 7, (2, 2): 1},
    "e8": {(0, 0): 1, (1, 2): 8, (2, 2): 1},
}


def _announce(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_01_n1_perverse_numbers():
    start = time.time()
    for name in FIVE_FAMILIES:
        got = brute_force_poincare(preset(name), 1)
        assert got == N1_TABLES[name], (name, got)
    _announce(
        1,
        True,
        f"n=1 perverse numbers match the five-family table ({time.time()-start:.2f}s)",
    )


def test_criterion_02_theorem_oracle_equivalence():
    start = time.time()
    ranges = {"a0": 8, "d4": 8, "e6": 8, "e7": 8, "e8": 8}
    for name, n_max in ranges.items():
        ring = preset(name)
        dims = ring_dims(ring)
        series = closed_form(SeriesSpec.parse(FAMILY_CASE[name], n_max))
        refined = refined_goettsche(dims, n_max)
        assert compare_series(series, refined, n_max).equal, name
        for n in range(n_max + 1):
            closed_coeff = series.coefficient_of_s(n)
            brute = brute_force_poincare(ring, n)
            summed = partition_sum(dims, n)
            assert brute == closed_coeff, (name, n, "brute vs closed")
            assert summed == closed_coeff, (name, n, "partition sum vs closed")
    _announce(
        2,
        True,
        "closed form = brute force = partition sum on the stated ranges "
        f"({time.time()-start:.1f}s)",
    )


def test_criterion_03_multiplicativity_open():
    start = time.time()
    details = []
    for name in FIVE_FAMILIES:
        for n in range(1, 9):
            report = check_multiplicativity(preset(name), n)
            assert report.passed, report.render_text()
            if n == 8:
                details.append(f"{name} n=8 mode={report.info['mode']}")
    _announce(
        3,
        True,
        "multiplicativity holds for the five families, n <= 8 "
        f"({'; '.join(details)}; {time.time()-start:.1f}s)",
    )


def test_criterion_04_multiplicativity_compact():
    start = time.time()
    modes = []
    for name in ("k3", "abelian"):
        for n in range(1, 9):
            report = check_multiplicativity(preset(name), n)
            assert report.passed, report.render_text()
            if n == 8:
                modes.append(f"{name} n=8 mode={report.info['mode']}")
    _announce(
        4,
        True,
        f"multiplicativity holds for k3 and abelian, n <= 8 ({'; '.join(modes)}; "
        f"{time.time()-start:.1f}s)",
    )


def test_criterion_05_lehn_ring_axioms():
    start = time.time()
    for name in ("a0", "d4", "e6", "e7", "e8", "k3", "abelian"):
        ring = preset(name)
        for n in (2, 3):
            assoc = check_associativity(ring, n)
            assert assoc.passed, assoc.render_text()
            assert assoc.info["mode"] == "orbit-local"
            units = check_unit_laws(ring, n)
            assert units.passed, units.render_text()
            equiv = check_equivariance(ring, n)
            assert equiv.passed, equiv.render_text()
            assert equiv.info["mode"] == "orbit-local"
            comm = check_graded_commutativity(ring, n)
            assert comm.passed, comm.render_text()
            assert comm.info["mode"] == "orbit-local"
    _announce(
        5,
        True,
        "associativity, graded commutativity, equivariance and unit laws pass "
        "for all presets at n <= 3, the first three orbit-local "
        f"({time.time()-start:.1f}s)",
    )


def test_criterion_06_diagonal_bound():
    start = time.time()
    for name in ("a0", "d4", "e6", "e7", "e8", "k3", "abelian"):
        report = check_diagonal_bound(preset(name), n_max=4)
        assert report.passed, report.render_text()
    _announce(6, True, f"diagonal perversity bound holds, m <= 4 ({time.time()-start:.2f}s)")


def test_criterion_07_g1_branch():
    start = time.time()
    k3 = preset("k3")
    x = make_element(k3, 3, parse_cycles("(1 2 3)", 3), (0,))
    expected = WreathClass.of(
        make_element(k3, 3, parse_cycles("(1 3 2)", 3), (k3.top_index(),)), 24
    )
    assert cup_class(k3, x, x) == expected
    d4 = preset("d4")
    y = make_element(d4, 2, parse_cycles("(1 2)", 2), (0,))
    squared = cup_class(d4, y, y)
    expected_d4 = WreathClass(2)
    for i in range(1, 5):
        expected_d4.add_term(make_element(d4, 2, Perm.identity(2), (i, i)), -1)
    assert squared == expected_d4
    assert perversity(d4, y) == 1
    assert perversity_class(d4, squared) == 2
    _announce(
        7,
        True,
        "k3 (1.(123))^2 = 24 pt.(132); d4 (1.(12))^2 = -sum E_i(x)E_i.id with "
        f"perversity 2 = 1+1 ({time.time()-start:.2f}s)",
    )


def test_criterion_08_monodromy_and_triangle():
    start = time.time()
    dets = []
    for matrix in MONODROMY_MATRICES:
        report = check_monodromy_vanishing(matrix)
        assert report.passed
        dets.append(report.info["det_m_minus_i"])
    assert dets == [4, 3, 2, 1]
    triangle = check_intersection_nondegenerate(TRIANGLE_MATRIX)
    assert triangle.passed
    assert triangle.info["determinant"] == 4
    _announce(
        8,
        True,
        f"monodromy determinants {dets}, triangle determinant 4 ({time.time()-start:.3f}s)",
    )


def test_criterion_09_pw_transport():
    start = time.time()
    weight_tables = {
        "a0": {0: {0: 1}, 2: {1: 2}, 4: {2: 1}},
        "d4": {0: {0: 1}, 2: {2: 4}, 4: {2: 1}},
        "e6": {0: {0: 1}, 2: {2: 6}, 4: {2: 1}},
        "e7": {0: {0: 1}, 2: {2: 7}, 4: {2: 1}},
        "e8": {0: {0: 1}, 2: {2: 8}, 4: {2: 1}},
    }
    for name in FIVE_FAMILIES:
        table = brute_force_poincare(preset(name), 1)
        nested: dict[int, dict[int, int]] = {}
        for (p, d), dim in table.items():
            nested.setdefault(p, {})[d] = int(dim)
        assert pw_transport(nested) == weight_tables[name], name
    _announce(
        9,
        True,
        f"P=W transport of each family's n=1 table gives the weight table ({time.time()-start:.3f}s)",
    )


def test_criterion_10_goettsche_specialization():
    start = time.time()
    for name in ("a0", "d4", "e6", "e7", "e8", "k3", "abelian"):
        ring = preset(name)
        refined = refined_goettsche(ring_dims(ring), 6).specialize(q_value=1)
        betti = betti_goettsche(ring_betti(ring), 6)
        assert refined == betti, name
    _announce(
        10,
        True,
        f"q := 1 specialization equals the Betti-only product, s_bound 6 ({time.time()-start:.1f}s)",
    )


def test_criterion_11_filtered_basis():
    start = time.time()
    for name in ("k3", "abelian"):
        ring = preset(name)
        basis = filtered_basis(ring)
        blocks = basis.blocks()
        keys = sorted(blocks)
        for ka in keys:
            for kb in keys:
                if kb < ka:
                    continue
                complementary = ka[0] + kb[0] == 2 and ka[1] + kb[1] == 4
                for i, ea in enumerate(blocks[ka]):
                    for j, eb in enumerate(blocks[kb]):
                        value = ring.pairing_eval(ea.as_vec(), eb.as_vec())
                        if not complementary:
                            assert value == 0, (name, ka, kb, i, j)
                        elif ka == kb:
                            assert ka == (1, 2)
                            expected = basis.middle_signs[i] if i == j else 0
                            assert value == expected, (name, ka, i, j)
                        else:
                            assert value == (1 if i == j else 0), (name, ka, kb, i, j)
                            assert not (value == -1), "minus one outside the middle"
    _announce(
        11,
        True,
        "filtered bases of k3 and abelian are signed orthonormal with -1 only "
        f"in the middle block ({time.time()-start:.2f}s)",
    )
