"""Abstract perversity and the filtration checkers."""

from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct
from math import factorial

import pytest

from hilb import perverse_filtration, surface_ring, symmetric_groups, wreath_ring
from hilb.errors import UsageError
from hilb.perverse_filtration import (
    BOTTOM,
    MONODROMY_MATRICES,
    TRIANGLE_MATRIX,
    _local_mult_stats,
    _mult_pair_check,
    _worst_pair_total,
    check_diagonal_bound,
    check_intersection_nondegenerate,
    check_monodromy_suite,
    check_monodromy_vanishing,
    check_multiplicativity,
    perversity,
    perversity_class,
    pw_transport,
)
from hilb.surface_ring import PRESET_NAMES, SurfaceRing, load_ring, preset, save_ring
from hilb.symmetric_groups import (
    Perm,
    _perm_orbit_blocks,
    class_representatives,
    enumerate_sn,
    graph_defect,
    joint_orbits,
    joint_signatures,
    orbits,
    parse_cycles,
)
from hilb.wreath_ring import (
    WreathClass,
    _cup_plan,
    _mul_sequence,
    act_class,
    cup_class,
    enumerate_wreath_basis,
    local_product,
    make_element,
    unit_element,
)


def test_perversity_examples():
    d4 = preset("d4")
    assert perversity(d4, unit_element(d4, 3)) == 0
    x = make_element(d4, 2, parse_cycles("(1 2)", 2), (0,))
    assert perversity(d4, x) == 1
    y = make_element(d4, 2, parse_cycles("(1 2)", 2), (1,))
    assert perversity(d4, y) == 2  # p(E1) = 1 plus the 2-cycle shift
    k3 = preset("k3")
    z = make_element(k3, 3, parse_cycles("(1 3 2)", 3), (k3.top_index(),))
    assert perversity(k3, z) == 4


def test_perversity_range():
    for name in ("a0", "d4", "k3"):
        ring = preset(name)
        for x in enumerate_wreath_basis(ring, 2):
            assert 0 <= perversity(ring, x) <= 4


def test_perversity_class():
    d4 = preset("d4")
    assert perversity_class(d4, WreathClass(2)) is BOTTOM
    assert BOTTOM < 0 and not (BOTTOM > 5) and BOTTOM <= BOTTOM
    x = make_element(d4, 2, parse_cycles("(1 2)", 2), (0,))
    assert perversity_class(d4, cup_class(d4, x, x)) == 2


def test_perversity_invariant_under_action():
    for name in ("a0", "d4", "abelian"):
        ring = preset(name)
        taus = list(enumerate_sn(3))
        for x in enumerate_wreath_basis(ring, 3):
            p = perversity(ring, x)
            for tau in taus:
                assert perversity_class(ring, act_class(ring, tau, WreathClass.of(x))) == p


def test_external_additivity_on_identity_component():
    # pure tensors on sigma = id: perversity is the sum of factor perversities
    for name in ("a0", "d4", "k3"):
        ring = preset(name)
        for x in enumerate_wreath_basis(ring, 3):
            s, factors = x
            if s == Perm.identity(3).images:
                assert perversity(ring, x) == sum(ring.perversities[f] for f in factors)


def test_multiplicativity_small_presets():
    for name in ("a0", "d4", "k3", "abelian"):
        ring = preset(name)
        report = check_multiplicativity(ring, 2)
        assert report.passed, report.render_text()
        assert report.info["mode"] == "exhaustive"


def restrict_perm(sigma: Perm, block: tuple[int, ...]) -> Perm:
    """Relabel the restriction of sigma to an invariant block onto [len(block)]."""
    relabel = {v: i + 1 for i, v in enumerate(block)}
    return Perm(tuple(relabel[sigma(v)] for v in block))


def _signature(sigma: Perm, tau: Perm, block) -> tuple[int, int, int, int]:
    """Size of a joint orbit and the orbit counts of sigma, tau, sigma tau on it."""
    m = len(block)
    s, t = restrict_perm(sigma, block), restrict_perm(tau, block)
    return (m, *(len(orbits(m, [p])) for p in (s, t, s.compose(t))))


def _ranks_inside(perm: Perm, block) -> tuple[int, ...]:
    """The ranks of perm's canonical orbits that lie inside block."""
    inside = set(block)
    return tuple(
        m for m, b in enumerate(_perm_orbit_blocks(perm.images)) if inside.issuperset(b)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_joint_signatures_match_restricted_orbit_counts(n):
    # joint_orbits against a brute-force reference: its blocks are the orbits
    # of the generated group and each rank list names the permutation's
    # orbits inside the block, for every (sigma, tau, sigma tau) and, at
    # n <= 3, every (sigma, tau, rho).  Its views: the signatures against
    # orbit counts of the restrictions to each joint orbit, the graph defect
    # against the signature formula, _cup_plan's groups against a scan for
    # the orbits whose minimum lies in the block, and its two moves against
    # their definitions
    perms = list(enumerate_sn(n))

    def ranks_in(joint_block, blocks):
        return tuple(m for m, b in enumerate(blocks) if b[0] in joint_block)

    def inversions(keys):
        return tuple((i, j) for i, j in combinations(range(len(keys)), 2) if keys[i] > keys[j])

    for sigma in perms:
        for tau in perms:
            st = sigma.compose(tau)
            blocks, signatures = joint_signatures(sigma, tau)
            defects = graph_defect(sigma, tau)
            context = (sigma.cycle_string(), tau.cycle_string())
            assert blocks == orbits(n, [sigma, tau]).blocks == tuple(defects), context
            joint, ranks = joint_orbits(sigma.images, tau.images, st.images)
            assert joint == blocks, context
            assert ranks == [
                tuple(_ranks_inside(p, block) for p in (sigma, tau, st)) for block in blocks
            ], context
            plan_st, local, pull, dst, push, vanishes = _cup_plan(sigma.images, tau.images)
            assert plan_st == st.images, context
            assert [g for _, _, g, _ in local] == list(defects.values()), context
            assert vanishes == any(g >= 2 for g in defects.values()), context
            groups = [
                tuple(ranks_in(block, _perm_orbit_blocks(p.images)) for block in blocks)
                for p in (sigma, tau, st)
            ]
            assert [xg for xg, _, _, _ in local] == list(groups[0]), context
            assert [yg for _, yg, _, _ in local] == list(groups[1]), context
            assert [m_res for _, _, _, m_res in local] == list(map(len, groups[2])), context
            # push: the product's components, read in joint-orbit order, go to
            # sigma tau's ranks in that order
            assert dst == tuple(m for dg in groups[2] for m in dg), context
            assert push == inversions(dst), context
            # pull: x's slots, then y's, sorted by (joint orbit, side, rank)
            keys = [
                (k, side, m)
                for side, p in enumerate((sigma, tau))
                for m, b in enumerate(_perm_orbit_blocks(p.images))
                for k, block in enumerate(blocks)
                if b[0] in block
            ]
            assert pull == inversions(keys), context
            for block, signature in zip(blocks, signatures):
                m, a, b, m_res = _signature(sigma, tau, block)
                assert signature == (m, a, b, m_res), context
                assert 2 * defects[block] == m + 2 - a - b - m_res, context
    if n > 3:
        return
    for triple in iproduct(perms, repeat=3):
        blocks, ranks = joint_orbits(*(p.images for p in triple))
        context = tuple(p.cycle_string() for p in triple)
        assert blocks == orbits(n, triple).blocks, context
        assert ranks == [
            tuple(_ranks_inside(p, block) for p in triple) for block in blocks
        ], context


@pytest.mark.parametrize(
    "name,n",
    [(name, 2) for name in ("a0", "d4", "e6", "e7", "e8", "abelian")]
    + [("a0", 3), ("d4", 3), ("k3", 2), ("a0", 4)],
)
def test_joint_orbit_factorization_matches_brute_force(name, n):
    # the worst excess over all basis pairs on (sigma, tau) is the sum of the
    # per-joint-orbit worst excesses, and a dead orbit kills every product;
    # the memo reads each joint orbit only through its orbit-count signature
    # (k3 is the first ring here with a nonzero Euler class, a0 at n = 4 the
    # first case with 4-point joint orbits).  Each element's class and
    # perversity are made once, outside the pair loops
    ring = preset(name)
    by_sigma: dict[Perm, list] = {}
    for x in enumerate_wreath_basis(ring, n):
        by_sigma.setdefault(Perm(x[0]), []).append((WreathClass.of(x), perversity(ring, x)))
    for sigma, xs in by_sigma.items():
        for tau, ys in by_sigma.items():
            brute = None
            for cx, px in xs:
                for cy, py in ys:
                    product = cup_class(ring, cx, cy)
                    if product:
                        excess = perversity_class(ring, product) - px - py
                        brute = excess if brute is None else max(brute, excess)
            bests = [
                _local_mult_stats(ring, *_signature(sigma, tau, b))[0]
                for b in orbits(n, [sigma, tau]).blocks
            ]
            context = (sigma.cycle_string(), tau.cycle_string())
            if None in bests:
                assert brute is None, context
            else:
                assert brute == sum(bests), context


def _tuple_search(ring: SurfaceRing, sigma: Perm, tau: Perm):
    """The local search over every pair of factor tuples of a transitive
    (sigma, tau), in lexicographic order, keeping the first worst pair."""
    block = tuple(range(1, sigma.n + 1))
    g = graph_defect(sigma, tau)[block]
    m, a, b, m_res = _signature(sigma, tau, block)
    perv = ring.perversities
    best = arg = None
    for fx in iproduct(range(ring.size), repeat=a):
        for fy in iproduct(range(ring.size), repeat=b):
            mx, my = _mul_sequence(ring, fx), _mul_sequence(ring, fy)
            split = local_product(ring, mx, my, g, m_res) if mx and my else {}
            if not split:
                continue
            top = max(sum(perv[f] for f in k) for k in split) + m - m_res
            excess = top - sum(perv[f] for f in fx) - sum(perv[f] for f in fy)
            excess -= 2 * m - a - b
            if best is None or excess > best:
                best, arg = excess, (fx, fy)
    return best, arg


def _small_open_ring(perversities, products) -> SurfaceRing:
    """An open ring on the basis 1, b1, b2, ... with the given perversities,
    the unit products and `products`, and Delta_2 = 0."""
    size = len(perversities)
    mul = {(0, k): {k: 1} for k in range(size)} | {(k, 0): {k: 1} for k in range(size)}
    return SurfaceRing(
        name="small",
        mode="open",
        names=("1",) + tuple(f"b{k}" for k in range(1, size)),
        degrees=(0,) + (2,) * (size - 1),
        perversities=perversities,
        unit=0,
        mul=mul | products,
        diag2={},
        euler={},
    )


# factor groups need exact coefficients: b1.b1 = b3 - b4 and b2.b2 = b3 + b4
# differ in a sign that decides whether the product with b5 vanishes
_SIGNED = (
    (0, 0, 0, 1, 1, 0, 2),
    {(1, 1): {3: 1, 4: -1}, (2, 2): {3: 1, 4: 1}, (3, 5): {6: 1}, (4, 5): {6: 1}},
)
# factor groups need perversity sums: 1.b3 and b1.b2 are both b3, at 2 and 0
_UNEQUAL = ((0, 0, 0, 2), {(1, 2): {3: 1}})


@pytest.mark.parametrize(
    "name",
    [
        "a0",
        "d4",
        "e6",
        "e7",
        "e8",
        "k3",
        "abelian",
        "corrupted",
        "corrupted-E1",
        "signed",
        "unequal",
    ],
)
def test_signature_memo_matches_tuple_search(name):
    # every transitive (sigma, tau) on at most 3 points gets from the memo,
    # keyed by its signature and pushing each distinct product of factor
    # groups once, the worst excess and the worst pair that the search over
    # all factor tuples finds
    rings = {
        "corrupted": _corrupted_d4,
        "corrupted-E1": _corrupted_d4_e1,
        "signed": lambda: _small_open_ring(*_SIGNED),
        "unequal": lambda: _small_open_ring(*_UNEQUAL),
    }
    ring = rings[name]() if name in rings else load_ring(save_ring(preset(name)))
    for m in (1, 2, 3):
        perms = list(enumerate_sn(m))
        block = tuple(range(1, m + 1))
        for sigma in perms:
            for tau in perms:
                if len(orbits(m, [sigma, tau])) == 1:
                    expected = _tuple_search(ring, sigma, tau)
                    got = _local_mult_stats(ring, *_signature(sigma, tau, block))
                    assert got == expected, (sigma.cycle_string(), tau.cycle_string())


def _corrupted_d4(diag2=None) -> SurfaceRing:
    """d4 with Delta_2(1) := S (x) S, a perversity-4 class breaking the bound,
    or with the given Delta_2 table."""
    ring = preset("d4")
    s = ring.index("S")
    return SurfaceRing(
        name="corrupted",
        mode="open",
        names=ring.names,
        degrees=ring.degrees,
        perversities=ring.perversities,
        unit=ring.unit,
        mul={
            (i, j): dict(ring.mul_basis(i, j))
            for i in range(ring.size)
            for j in range(ring.size)
        },
        diag2={0: {(s, s): Fraction(1)}} if diag2 is None else diag2,
        euler={},
    )


def test_multiplicativity_catches_corrupted_diagonal():
    ring = _corrupted_d4()
    report = check_multiplicativity(ring, 2)
    assert not report.passed
    worst = report.witnesses[0]
    assert worst["x"] == "[1@{1,2}] * (1 2)"
    assert worst["y"] == "[1@{1,2}] * (1 2)"
    assert worst["bound"] == 2
    assert worst["actual"] == 4
    assert worst["excess"] == 2


# distinct orbit-count signatures (m, a, b, m_res) of transitive joint orbits
# on at most n points: the g <= 1 triples of each m, and (5, 1, 1, 1) at g = 2
_SIGNATURES = {1: 1, 2: 4, 3: 11, 4: 24, 5: 46}


@pytest.mark.parametrize(
    "name,n", [(name, n) for name in PRESET_NAMES for n in (1, 2, 3, 4, 5)]
)
def test_multiplicativity_exhaustive_reach(name, n):
    # a fresh copy, so the memo sizes are this run's alone
    ring = load_ring(save_ring(preset(name)))
    report = check_multiplicativity(ring, n)
    assert report.passed, report.render_text()
    assert report.info == {
        "ring": name,
        "n": n,
        "mode": "exhaustive",
        "seed": 0,
        "checked": len(class_representatives(n)) * factorial(n),
    }
    # the memos stay bounded: the knapsack solves each signature exactly
    # once, and the grouped search never fills the per-tuple product memo
    assert len(ring._caches["mult_local"]) == _SIGNATURES[n]
    assert not ring._caches.get("mul_seq")


@pytest.mark.parametrize("name,most", [("k3", 550), ("abelian", 600)])
def test_multiplicativity_work_counts(monkeypatch, name, most):
    # the local searches push each distinct product once per (g, m_res):
    # 102 and 108 pushes, against 504 and 540 when each (a, b) pushed its
    # own and 2,004 and 2,304 when every pair of factor groups was pushed;
    # the interned products are each multiplied once (675 and 783
    # mul_class calls, against 8,296 and 6,279 per pair of groups), and a
    # passing ring is decided by the knapsack, with no pair of S_n walked
    ring = load_ring(save_ring(preset(name)))
    calls = {"push": 0, "pair_orbits": 0, "mul_class": 0}

    def counted(key, function):
        def wrapper(*args):
            calls[key] += 1
            return function(*args)

        return wrapper

    push = counted("push", surface_ring.diagonal_push)
    for module in (surface_ring, perverse_filtration):
        monkeypatch.setattr(module, "diagonal_push", push)
    orbit_walk = counted("pair_orbits", symmetric_groups.pair_orbits)
    for module in (symmetric_groups, wreath_ring, perverse_filtration):
        monkeypatch.setattr(module, "pair_orbits", orbit_walk)
    monkeypatch.setattr(SurfaceRing, "mul_class", counted("mul_class", SurfaceRing.mul_class))
    assert check_multiplicativity(ring, 4).passed
    assert 0 < calls["push"] <= most
    assert calls["pair_orbits"] == 0
    assert calls["mul_class"] <= 800, calls


def test_multiplicativity_accepts_the_benchmark_keywords():
    # the benchmark calls the suite with seed= and sample_size=: the seed is
    # echoed, the sample size is read by nothing
    report = check_multiplicativity(preset("d4"), 5, seed=11, sample_size=10_000)
    assert report.passed, report.render_text()
    assert report.info["mode"] == "exhaustive"
    assert report.info["seed"] == 11


def _pair_total(ring: SurfaceRing, sigma: Perm, tau: Perm) -> int | None:
    """Sum over the joint orbits of (sigma, tau) of the local worst excesses,
    nonpositive ones included; None when an orbit kills every product."""
    bests = [_local_mult_stats(ring, *s)[0] for s in joint_signatures(sigma, tau)[1]]
    return None if None in bests else sum(bests)


def _worst_total(ring: SurfaceRing, sigmas, taus) -> int | None:
    totals = (_pair_total(ring, s, t) for s in sigmas for t in taus)
    return max((t for t in totals if t is not None), default=None)


def _corrupted_d4_e1() -> SurfaceRing:
    """d4 with Delta_2(E1) := S (x) S: the diagonal bound of a non-unit class
    breaks, perversity 4 > p(E1) + 2."""
    d4 = preset("d4")
    s = d4.index("S")
    return _corrupted_d4(d4.diag2 | {d4.index("E1"): {(s, s): Fraction(1)}})


_FAILING = {"corrupted": _corrupted_d4, "corrupted-E1": _corrupted_d4_e1}


@pytest.mark.parametrize(
    "name,n",
    [(name, n) for name in PRESET_NAMES for n in (1, 2, 3, 4)]
    + [("d4", 5)]
    + [(name, n) for name in _FAILING for n in (1, 2, 3)],
)
def test_conjugation_reduction_matches_all_pairs(name, n):
    # the run over one sigma per cycle type against the loop over all n!^2
    # pairs: same verdict, same worst excess, and the same worst pair total
    # (nonpositive totals included, so passing rings are compared too),
    # which is also the knapsack's over the transitive signatures
    ring = _FAILING[name]() if name in _FAILING else load_ring(save_ring(preset(name)))
    report = check_multiplicativity(ring, n)
    assert report.info["mode"] == "exhaustive"
    perms = list(enumerate_sn(n))
    brute = [w for s in perms for t in perms if (w := _mult_pair_check(ring, s, t))]
    assert report.passed == (not brute) == (name not in _FAILING or n == 1)
    if brute:
        assert report.witnesses[0]["excess"] == max(w["excess"] for w in brute)
        assert all(w["actual"] - w["bound"] == w["excess"] for w in report.witnesses)
    reps = class_representatives(n)
    worst = _worst_total(ring, reps, perms)
    assert worst == _worst_total(ring, perms, perms)
    assert _worst_pair_total(ring, n) == worst


def test_diagonal_bound_presets():
    for name in ("a0", "d4", "e6", "e7", "e8", "k3", "abelian"):
        report = check_diagonal_bound(preset(name), n_max=4)
        assert report.passed, report.render_text()


def test_diagonal_bound_catches_corruption():
    report = check_diagonal_bound(_corrupted_d4(), n_max=2)
    assert not report.passed
    assert report.witnesses[0]["perversity_sum"] == 4
    assert report.witnesses[0]["bound"] == 2


def test_pw_transport_tables():
    # n = 1 perverse tables of the five families map onto the weight tables
    assert pw_transport({0: {0: 1}, 1: {2: 4}, 2: {2: 1}}) == {
        0: {0: 1},
        2: {2: 4},
        4: {2: 1},
    }
    assert pw_transport({0: {0: 1}, 1: {1: 2}, 2: {2: 1}}) == {
        0: {0: 1},
        2: {1: 2},
        4: {2: 1},
    }
    assert pw_transport({}) == {}


def test_monodromy_matrices():
    expected_dets = [4, 3, 2, 1]
    for matrix, det in zip(MONODROMY_MATRICES, expected_dets):
        report = check_monodromy_vanishing(matrix)
        assert report.passed
        assert report.info["det_m_minus_i"] == det
    identity = ((1, 0), (0, 1))
    assert not check_monodromy_vanishing(identity).passed
    with pytest.raises(UsageError):
        check_monodromy_vanishing(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_intersection_matrix():
    report = check_intersection_nondegenerate(TRIANGLE_MATRIX)
    assert report.passed
    assert report.info["determinant"] == 4
    assert not check_intersection_nondegenerate(((0,),)).passed
    assert check_intersection_nondegenerate(((-2,),)).passed


def test_determinant_checks_reject_non_integral_entries():
    # det [[1/2]] = 1/2 is not zero, and the checks take integer matrices
    with pytest.raises(UsageError, match="integer matrix"):
        check_intersection_nondegenerate([[Fraction(1, 2)]])
    with pytest.raises(UsageError, match="integer matrix"):
        check_monodromy_vanishing([[Fraction(3, 2), 0], [0, 1]])
    assert check_intersection_nondegenerate([[Fraction(4, 2)]]).info["determinant"] == 2


def test_monodromy_suite():
    report = check_monodromy_suite()
    assert report.passed
    assert report.info["monodromy_determinants"] == [4, 3, 2, 1]
    assert report.info["triangle_determinant"] == 4
