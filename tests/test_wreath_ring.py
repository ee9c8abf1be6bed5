"""The wreath product: action, the joint-orbit kernel, cup product, projection."""

import hashlib
from fractions import Fraction
from itertools import product
from math import inf

import pytest

from hilb import surface_ring, wreath_ring
from hilb.cli import main
from hilb.errors import DataError, ResourceError, UsageError
from hilb.report import witness_key
from hilb.surface_ring import (
    PRESET_NAMES,
    SurfaceRing,
    inverted_pairs,
    koszul_sign,
    load_ring,
    preset,
    save_ring,
    validate,
)
from hilb.symmetric_groups import (
    Perm,
    enumerate_sn,
    orbits,
    parse_cycles,
)
from hilb.wreath_ring import (
    WreathClass,
    act_class,
    _commutativity_pairs,
    _cup_plan,
    _lifted_witness,
    _mul_sequence,
    _nonzero_pairs,
    _partners,
    _product_groups,
    _transitive_tuples,
    _unit_laws_hold_locally,
    _violating_triples,
    basis_count,
    check_associativity,
    check_equivariance,
    check_graded_commutativity,
    check_unit_laws,
    cup,
    cup_class,
    cup_equivariant,
    element_degree,
    enumerate_wreath_basis,
    invariant_project,
    iter_orbit_reps,
    local_product,
    local_push,
    make_element,
    max_degree,
    render_class,
    render_element,
    sn_act,
    unit_element,
)


def _act(ring: SurfaceRing, tau: Perm, x: tuple) -> tuple[int, tuple]:
    """sn_act along a Perm: (Koszul sign, transported element)."""
    return sn_act(ring, tau.images, x)


def test_element_shape_enforced():
    ring = preset("d4")
    with pytest.raises(UsageError):
        make_element(ring, 2, parse_cycles("(1 2)", 2), (0, 0))  # one orbit only
    # sigma must lie in the S_n the element is made for, even where its
    # orbit count matches the factors
    with pytest.raises(UsageError, match="S_2, not in S_3"):
        make_element(ring, 3, Perm.identity(2), (0, 0))
    with pytest.raises(UsageError):
        make_element(ring, 2, parse_cycles("(1 2)", 3), (0, 0))
    x = make_element(ring, 2, parse_cycles("(1 2)", 2), (0,))
    assert element_degree(ring, x) == 2  # deg(1) + 2*(2-1)


def test_basis_enumeration_counts():
    ring = preset("a0")
    assert basis_count(ring, 2) == 16 + 4
    assert len(list(enumerate_wreath_basis(ring, 2))) == 20
    ring = preset("d4")
    assert basis_count(ring, 3) == 6**3 + 3 * 36 + 2 * 6


def test_sn_act_identity_and_even_ring():
    ring = preset("d4")
    x = make_element(ring, 3, parse_cycles("(1 2)", 3), (1, 5))
    sign, moved = _act(ring, Perm.identity(3), x)
    assert sign == 1 and moved == x
    # even ring: no sign can ever appear
    for tau in (parse_cycles("(1 3)", 3), parse_cycles("(1 2 3)", 3)):
        sign, moved = _act(ring, tau, x)
        assert sign == 1


def test_sn_act_transports_factors():
    ring = preset("d4")
    x = make_element(ring, 3, parse_cycles("(1 2)", 3), (1, 5))  # E1 on {1,2}, S on {3}
    tau = parse_cycles("(2 3)", 3)
    sign, moved = _act(ring, tau, x)
    assert moved[0] == parse_cycles("(1 3)", 3).images
    # orbits of (1 3): {1,3} and {2}; E1 rides to {1,3}, S to {2}
    assert moved[1] == (1, 5)
    assert sign == 1


def test_sn_act_odd_transposition_sign():
    # two odd factors swapping positions pick up the Koszul sign
    ring = preset("a0")
    a, b = ring.index("a"), ring.index("b")
    x = make_element(ring, 2, Perm.identity(2), (a, b))
    sign, moved = _act(ring, parse_cycles("(1 2)", 2), x)
    assert moved[1] == (b, a)
    assert sign == -1


def test_local_product_merges_and_multiplies():
    ring = preset("k3")
    f, s = ring.index("f"), ring.index("s")
    pt = ring.top_index()
    unit = {ring.unit: 1}
    # one slot, unit on the other side: the factor comes back unchanged
    assert local_product(ring, {f: 1}, unit, 0, 1) == {(f,): 1}
    # f and s merged onto one joint orbit multiply to the point class
    assert local_product(ring, _mul_sequence(ring, (f, s)), unit, 0, 1) == {(pt,): 1}
    assert local_product(ring, {f: 1}, {s: 1}, 0, 1) == {(pt,): 1}


def test_local_product_zero_product():
    ring = preset("d4")
    assert _mul_sequence(ring, (1, 1)) == {}
    assert local_product(ring, {1: 1}, {1: 1}, 0, 1) == {}


def test_local_product_diagonal_push():
    ring = preset("d4")
    unit = {0: 1}
    assert local_product(ring, unit, unit, 0, 1) == {(0,): 1}
    assert local_product(ring, unit, unit, 0, 2) == {(i, i): -1 for i in range(1, 5)}


def test_local_product_euler_insertion():
    ring = preset("k3")
    unit = {ring.unit: 1}
    pt = ring.top_index()
    assert local_product(ring, unit, unit, 1, 1) == {(pt,): 24}
    assert local_product(ring, unit, unit, 2, 1) == {}


def test_cup_d4_transposition_squares_to_diagonal():
    ring = preset("d4")
    x = make_element(ring, 2, parse_cycles("(1 2)", 2), (0,))
    result = cup_class(ring, x, x)
    expected = WreathClass(2)
    for i in range(1, 5):
        expected.add_term(
            make_element(ring, 2, Perm.identity(2), (i, i)), Fraction(-1)
        )
    assert result == expected


def test_cup_k3_three_cycle_euler_branch():
    ring = preset("k3")
    x = make_element(ring, 3, parse_cycles("(1 2 3)", 3), (0,))
    result = cup_class(ring, x, x)
    expected = WreathClass.of(
        make_element(ring, 3, parse_cycles("(1 3 2)", 3), (ring.top_index(),)),
        Fraction(24),
    )
    assert result == expected
    assert "24" in render_class(ring, result)
    assert "(1 3 2)" in render_class(ring, result)


def test_cup_open_ring_euler_branch_dies():
    # e = 0 on the open presets, so the g = 1 branch vanishes
    ring = preset("d4")
    x = make_element(ring, 3, parse_cycles("(1 2 3)", 3), (0,))
    assert cup_class(ring, x, x) == WreathClass(3)


# the one-class ring: H*(pt) = Q in degree 0, with no diagonal and no Euler class
_PT = """ring name=pt mode=open
basis 1 degree=0 perversity=0
unit 1
mul 1 1 = 1*1
euler =
"""


def test_class_algebra_anchor_on_the_point():
    """On pt, A{S_n} is the class algebra graded by n - #orbits: the product
    of 1.sigma and 1.tau is 1.(sigma tau) when the degrees add and 0
    otherwise (Lehn-Sorger, H*(Hilb^n C^2) = gr Z(Q[S_n])).  Degrees add iff
    every joint orbit has graph defect 0 and one orbit of sigma tau, so this
    anchor pins the composition order and the graph defect; it does not see
    e or Delta_m, which such a product never reaches."""
    ring = load_ring(_PT)
    nonzero = 0
    for n in range(1, 6):
        ones = {
            s: make_element(ring, n, s, (ring.unit,) * len(s.cycles())) for s in enumerate_sn(n)
        }
        degree = {s: element_degree(ring, x) for s, x in ones.items()}
        for sigma, x in ones.items():
            for tau, y in ones.items():
                st = sigma.compose(tau)
                z = ones[st]
                additive = degree[sigma] + degree[tau] == degree[st]
                expected = WreathClass.of(z) if additive else WreathClass(n)
                where = (n, sigma.cycle_string(), tau.cycle_string())
                assert cup_class(ring, x, y) == expected, where
                nonzero += additive and n == 5
    assert nonzero == 1809


def test_unit_laws_small():
    for name in ("a0", "d4", "k3", "abelian"):
        ring = preset(name)
        report = check_unit_laws(ring, 2)
        assert report.passed, report.render_text()


def test_degree_additivity_exhaustive_n2():
    for name in ("a0", "d4", "k3", "abelian"):
        ring = preset(name)
        elements = list(enumerate_wreath_basis(ring, 2))
        for x in elements:
            dx = element_degree(ring, x)
            for y in elements:
                expected = dx + element_degree(ring, y)
                for term in cup_class(ring, x, y).terms:
                    assert element_degree(ring, term) == expected


def test_degree_additivity_n3_samples():
    import random

    rng = random.Random(0)
    for name in ("a0", "d4", "k3", "abelian"):
        ring = preset(name)
        elements = list(enumerate_wreath_basis(ring, 3))
        for _ in range(300):
            x, y = rng.choice(elements), rng.choice(elements)
            expected = element_degree(ring, x) + element_degree(ring, y)
            for term in cup_class(ring, x, y).terms:
                assert element_degree(ring, term) == expected


def test_bilinearity_of_cup_class():
    ring = preset("d4")
    x = make_element(ring, 2, parse_cycles("(1 2)", 2), (0,))
    y = make_element(ring, 2, Perm.identity(2), (1, 1))
    c = WreathClass(2, {x: Fraction(2), y: Fraction(3)})
    u = unit_element(ring, 2)
    assert cup_class(ring, c, u) == c
    assert cup_class(ring, u, c) == c


def test_wreath_class_rejects_keys_outside_the_model():
    ring = preset("d4")
    for key in (
        ((1, 2), (0, 0)),  # images of S_2 in A{S_3}
        ((1, 1, 3), (0, 0, 0)),  # not a permutation
        ((1, 2, 3), (0, 0)),  # three orbits, two factors
        ((2, 3, 1), (0, 0)),  # one orbit, two factors
        "x",
    ):
        with pytest.raises(UsageError, match="not a basis element"):
            WreathClass(3, {key: Fraction(1)})
    valid = WreathClass(3, {((2, 3, 1), (1,)): Fraction(1)})
    assert cup_class(ring, valid, unit_element(ring, 3)) == valid


@pytest.mark.parametrize("factor", [99, -1])
def test_class_factors_outside_the_ring_are_rejected(factor):
    # WreathClass has no ring, so its key check cannot see a factor index;
    # cup_class and act_class range-check it, as make_element does
    ring = preset("d4")
    bad = WreathClass(1, {((1,), (factor,)): Fraction(1)})
    unit = unit_element(ring, 1)
    for a, b in ((bad, bad), (unit, bad), (bad, unit), (((1,), (factor,)), unit)):
        with pytest.raises(UsageError, match="out of range"):
            cup_class(ring, a, b)
    with pytest.raises(UsageError, match="out of range"):
        act_class(ring, Perm.identity(1), bad)


def test_class_keys_are_checked_after_add_term():
    # add_term checks its key, and a class checked once against a ring is
    # checked again after add_term changes it
    ring = preset("d4")
    cls = WreathClass(1, {((1,), (0,)): Fraction(1)})
    with pytest.raises(UsageError, match="not a basis element"):
        cls.add_term(((1, 2), (0, 0)), Fraction(1))
    assert cup_class(ring, cls, cls) == cls
    cls.add_term(((1,), (99,)), Fraction(1))
    with pytest.raises(UsageError, match="out of range"):
        cup_class(ring, cls, cls)


def test_invariant_project_examples():
    ring = preset("d4")
    u = unit_element(ring, 2)
    assert invariant_project(ring, WreathClass.of(u)) == WreathClass.of(u)
    x = make_element(ring, 2, parse_cycles("(1 2)", 2), (1,))
    proj = invariant_project(ring, WreathClass.of(x))
    assert proj == WreathClass.of(x)  # single conjugacy class, fixed factor
    # idempotency
    y = make_element(ring, 2, Perm.identity(2), (1, 5))
    once = invariant_project(ring, WreathClass.of(y))
    assert invariant_project(ring, once) == once


def test_invariant_project_kills_odd_diagonal():
    # (a (x) a) . id is antisymmetrized away for odd a
    ring = preset("a0")
    a = ring.index("a")
    x = make_element(ring, 2, Perm.identity(2), (a, a))
    assert invariant_project(ring, WreathClass.of(x)) == WreathClass(2)


def test_orbit_reps_super_dimension_count():
    # surviving orbit count over S_2 on a0: multisets on even classes,
    # distinct pairs on odd classes, plus the 4 two-cycle classes
    ring = preset("a0")
    reps = list(iter_orbit_reps(ring, 2))
    survivors = [r for r, ok in reps if ok]
    assert len(survivors) == 8 + 4
    killed = [r for r, ok in reps if not ok]
    assert len(killed) == 2  # (a,a) and (b,b) on the identity component


def _orbit_reps_by_full_scan(ring: SurfaceRing, n: int):
    """The reference for the sorted-tuple enumeration: every basis element
    tested against all of S_n for minimality, and against its whole
    stabilizer for the sign."""
    taus = list(enumerate_sn(n))
    for x in enumerate_wreath_basis(ring, n):
        minimal = True
        survives = True
        for tau in taus:
            sign, moved = _act(ring, tau, x)
            if moved < x:
                minimal = False
                break
            if moved == x and sign == -1:
                survives = False
        if minimal:
            yield x, survives


@pytest.mark.parametrize(
    "name,n_max",
    [(name, 4 if name in ("a0", "d4", "e6") else 3) for name in PRESET_NAMES]
    + [("a0", 5), ("d4", 5), ("e7", 4), ("e8", 4), ("abelian", 4)],
)
def test_orbit_reps_match_the_full_scan(name, n_max):
    # a0's and abelian's odd classes exercise the sign test on the
    # stabilizer generators; k3 stops at n = 3, as its n = 4 reference
    # alone takes 4 s
    ring = preset(name)
    for n in range(n_max + 1):
        assert list(iter_orbit_reps(ring, n)) == list(_orbit_reps_by_full_scan(ring, n)), n


def test_render_element():
    ring = preset("d4")
    x = make_element(ring, 3, parse_cycles("(1 2)", 3), (1, 5))
    assert render_element(ring, x) == "[E1@{1,2} ⊗ S@{3}] * (1 2)"


# -- failing reports ------------------------------------------------------------


def _with_product(base: str, left: str, right: str, product: dict[str, int]) -> SurfaceRing:
    """An open preset with the one table entry left.right redefined."""
    ring = preset(base)
    mul = {
        (i, j): dict(ring.mul_basis(i, j))
        for i in range(ring.size)
        for j in range(ring.size)
    }
    mul[(ring.index(left), ring.index(right))] = {
        ring.index(name): c for name, c in product.items()
    }
    return SurfaceRing(
        name="corrupted",
        mode=ring.mode,
        names=ring.names,
        degrees=ring.degrees,
        perversities=ring.perversities,
        unit=ring.unit,
        mul=mul,
        diag2=ring.diag2,
        euler=ring.euler,
    )


def _assert_failing_report(check, entry):
    """On d4 with one product redefined, the report fails, lists distinct
    witnesses in driver order, and a fresh run on a freshly built ring
    reproduces it exactly."""
    report = check(_with_product("d4", *entry), 2)
    assert not report.passed
    keys = [witness_key(w) for w in report.witnesses]
    assert keys == sorted(keys)
    distinct = {tuple(sorted(w.items())) for w in report.witnesses}
    assert len(distinct) == len(report.witnesses)
    assert check(_with_product("d4", *entry), 2).to_json() == report.to_json()
    return report


def test_associativity_catches_redefined_square():
    report = _assert_failing_report(check_associativity, ("E1", "E1", {"S": 1}))
    assert report.info["mode"] == "orbit-local"


def test_unit_laws_catch_scaled_unit():
    report = _assert_failing_report(check_unit_laws, ("1", "E1", {"E1": 2}))
    assert len(report.witnesses) == 12


def _with_unit_degree(base: str, degree: int) -> SurfaceRing:
    """An open preset with its unit moved to another degree."""
    ring = preset(base)
    return SurfaceRing(
        name="regraded",
        mode=ring.mode,
        names=ring.names,
        degrees=tuple(degree if i == ring.unit else d for i, d in enumerate(ring.degrees)),
        perversities=ring.perversities,
        unit=ring.unit,
        mul={
            (i, j): dict(ring.mul_basis(i, j))
            for i in range(ring.size)
            for j in range(ring.size)
        },
        diag2=ring.diag2,
        euler=ring.euler,
    )


# rings whose unit laws fail: a scaled left unit on an even class, a unit
# whose square is not itself, a0 with 1.a := -a on the odd class a, and a0
# with its unit in degree 1, which fails from n = 2 on by the Koszul signs
# of the pull although every local law holds, so it walks the basis
# without a local look
_UNIT_MUTANTS = {
    "d4-scaled-unit": lambda: _with_product("d4", "1", "E1", {"E1": 2}),
    "d4-unit-square": lambda: _with_product("d4", "1", "1", {"1": 2}),
    "a0-odd-unit-law": lambda: _with_product("a0", "1", "a", {"a": -1}),
    "a0-odd-unit": lambda: _with_unit_degree("a0", 1),
}


def _unit_violations_by_walk(ring: SurfaceRing, n: int) -> set:
    """The reference: the rendered basis elements x of A{S_n} with
    1.x != x or x.1 != x, through cup_class on every element."""
    one = WreathClass.of(unit_element(ring, n))
    bad = set()
    for x in enumerate_wreath_basis(ring, n):
        cx = WreathClass.of(x)
        if cup_class(ring, one, cx) != cx or cup_class(ring, cx, one) != cx:
            bad.add(render_element(ring, x))
    return bad


@pytest.mark.parametrize(
    "name,n", [(name, n) for name in (*PRESET_NAMES, *_UNIT_MUTANTS) for n in range(4)]
)
def test_local_unit_verdict_matches_the_basis_walk(name, n):
    # the unit laws are decided on the cycles of sigma; a ring that fails
    # there walks the basis, and its report lists exactly the elements at
    # which a law fails
    ring = _UNIT_MUTANTS[name]() if name in _UNIT_MUTANTS else load_ring(save_ring(preset(name)))
    brute = _unit_violations_by_walk(ring, n)
    report = check_unit_laws(ring, n)
    assert {w["x"] for w in report.witnesses} == brute
    passes = name in PRESET_NAMES or n == 0 or (name == "a0-odd-unit" and n == 1)
    assert report.passed == (not brute) == passes
    assert _unit_laws_hold_locally(ring, n) == (not brute and name != "a0-odd-unit")


def test_unit_laws_work_counts(monkeypatch):
    # one left and one right product per m-cycle of S_m, m <= 3, and basis
    # class: 2 * (1 + 1 + 2) * 6 = 48 cup calls on d4 at n = 3, where the
    # walk over the basis made 2 * 336
    calls = []

    def counted(*args):
        calls.append(args)
        return cup(*args)

    monkeypatch.setattr(wreath_ring, "cup", counted)
    assert check_unit_laws(load_ring(save_ring(preset("d4"))), 3).passed
    assert len(calls) == 48


@pytest.mark.parametrize(
    "check", [check_associativity, check_graded_commutativity, check_unit_laws]
)
def test_suites_refuse_past_the_enumeration_limit(check, monkeypatch):
    # the refusal comes first: no local problem is generated
    monkeypatch.setattr(wreath_ring, "enumerate_sn", None)
    monkeypatch.setattr(wreath_ring, "_require_parity", None)
    with pytest.raises(ResourceError):
        check(preset("d4"), 9)


@pytest.mark.parametrize("check", [check_equivariance, check_graded_commutativity])
def test_asymmetric_product_fails_orbit_local(check):
    # E1.E2 := S with E2.E1 left at 0
    report = _assert_failing_report(check, ("E1", "E2", {"S": 1}))
    assert report.info["mode"] == "orbit-local"


def _parities(ring: SurfaceRing, factors: tuple) -> tuple:
    return tuple(ring.degrees[f] % 2 for f in factors)


def _premise_breaks(ring: SurfaceRing, n: int, act=sn_act) -> set:
    """The (t, sigma) of S_n, as images, at which act breaks what the action
    law check of check_equivariance reads off sn_act: that it sends every
    x = (sigma, f) to the images of `_act_plan(t, sigma)` with f's slots
    moved by the plan's move, and gives one sign to all the f of one parity
    pattern.  Every basis element is acted on by every t."""
    by_sigma: dict = {}
    for s, f in enumerate_wreath_basis(ring, n):
        by_sigma.setdefault(s, []).append(f)
    breaks = set()
    for t in (p.images for p in enumerate_sn(n)):
        for s, tuples in by_sigma.items():
            images, new_pos, _ = wreath_ring._act_plan(t, s)
            signs: dict = {}  # parity pattern -> sign
            for f in tuples:
                sign, (moved_images, moved) = act(ring, t, (s, f))
                expected = [0] * len(f)
                for m, v in enumerate(f):
                    expected[new_pos[m]] = v
                if (
                    (moved_images, moved) != (images, tuple(expected))
                    or signs.setdefault(_parities(ring, f), sign) != sign
                ):
                    breaks.add((t, s))
                    break
    return breaks


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_sn_act_reads_only_slot_moves_and_parities(name):
    # the premise of the action law check: for every (t, sigma) of S_n,
    # n <= 3, sn_act moves the slots of every element over sigma by one
    # permutation, the move of _act_plan(t, sigma), and gives the elements
    # of one parity pattern one sign (94k sn_act calls on k3 at n = 3)
    ring = preset(name)
    for n in range(4):
        assert not _premise_breaks(ring, n), n


def _sign_mutant(flip):
    """sn_act with its sign negated wherever flip(t, s, factors) holds."""

    def mutant(ring, t, x):
        sign, moved = sn_act(ring, t, x)
        return (-sign if flip(t, *x) else sign), moved

    return mutant


def _odd(images: tuple[int, ...]) -> bool:
    return sum(len(c) - 1 for c in Perm(images).cycles()) % 2 == 1


_ID3, _T12, _T13, _C123 = (parse_cycles(c, 3).images for c in ("id", "(1 2)", "(1 3)", "(1 2 3)"))


def _swapped_plan(monkeypatch):
    """_act_plan with the first and last slots of its move swapped for
    t = (1 2) on sigma = id in S_3; sn_act follows the plan."""
    plan = wreath_ring._act_plan

    def mutant(t, s):
        images, new_pos, inverted = plan(t, s)
        if (t, s) != (_T12, _ID3):
            return images, new_pos, inverted
        new_pos = (new_pos[-1], *new_pos[1:-1], new_pos[0])
        return images, new_pos, inverted_pairs(new_pos)

    monkeypatch.setattr(wreath_ring, "_act_plan", mutant)
    return sn_act


def _dropped_pair(monkeypatch):
    """koszul_sign that never counts the first inverted pair of a move; cup
    reads it too."""
    monkeypatch.setattr(
        wreath_ring, "koszul_sign", lambda degrees, f, inverted: koszul_sign(degrees, f, inverted[1:])
    )
    return sn_act


# name -> (mutant of sn_act on a ring, given an element x0 as (images,
# factors) and monkeypatch, the rings of the test on which it is no longer
# a signed action, and whether it keeps the premise _premise_breaks tests)
_ACTION_MUTANTS = {
    "none": (lambda ring, x0, mp: sn_act, (), True),
    # twisting by the sign character, everywhere or on the invariant span of
    # the elements over transpositions, keeps the law
    "sign-twist": (lambda ring, x0, mp: _sign_mutant(lambda t, s, f: _odd(t)), (), True),
    "sign-twist-on-transpositions": (
        lambda ring, x0, mp: _sign_mutant(lambda t, s, f: _odd(t) and _odd(s)),
        (),
        True,
    ),
    # structural mutants: each keeps the premise
    "swap-two-slots-of-one-plan": (lambda ring, x0, mp: _swapped_plan(mp), ("a0", "d4"), True),
    "koszul-drops-a-pair": (lambda ring, x0, mp: _dropped_pair(mp), ("a0",), True),
    "flip-one-pattern": (
        lambda ring, x0, mp: _sign_mutant(
            lambda t, s, f: (t, s) == (_T12, _ID3) and _parities(ring, f) == (ring.has_odd, 0, 0)
        ),
        ("a0", "d4"),
        True,
    ),
    # element-specific mutants: each breaks the premise
    "flip-13-at-x0": (
        lambda ring, x0, mp: _sign_mutant(lambda t, s, f: t == _T13 and (s, f) == x0),
        ("a0", "d4"),
        False,
    ),
    "flip-12-on-unit": (
        lambda ring, x0, mp: _sign_mutant(
            lambda t, s, f: t == _T12 and (s, f) == (_ID3, (ring.unit,) * 3)
        ),
        ("a0", "d4"),
        False,
    ),
    "flip-id-at-x0": (
        lambda ring, x0, mp: _sign_mutant(lambda t, s, f: t == _ID3 and (s, f) == x0),
        ("a0", "d4"),
        False,
    ),
    "fix-x0-under-123": (
        lambda ring, x0, mp: lambda r, t, x: (1, x) if t == _C123 and x == x0 else sn_act(r, t, x),
        ("a0", "d4"),
        False,
    ),
}


@pytest.mark.parametrize("mutant", list(_ACTION_MUTANTS))
@pytest.mark.parametrize("name", ["a0", "d4"])
def test_action_law_on_generators_matches_all_pairs(name, mutant, monkeypatch):
    # the brute-force law A(t2)A(t1) = A(t2 t1) over every element of A{S_3}
    # and every pair (t1, t2) of S_3, against the action-* witnesses of
    # check_equivariance, which check the law on generators once per
    # parity pattern.  That check rests on the premise of
    # test_sn_act_reads_only_slot_moves_and_parities.  A mutant that keeps
    # the premise fails the check exactly when it fails the law; one that
    # breaks the premise fails the law and the premise test, so no mutant
    # goes uncaught.  Both sign twists keep the law; the twist on every odd
    # tau breaks equivariance, the one on transpositions only does not
    ring = load_ring(save_ring(preset(name)))
    elements = list(enumerate_wreath_basis(ring, 3))
    x0 = next((s, f) for s, f in elements if s == _T12 and len(set(f)) == 2)
    make, broken_on, keeps_premise = _ACTION_MUTANTS[mutant]
    act = make(ring, x0, monkeypatch)
    perms = [p.images for p in enumerate_sn(3)]
    brute = all(
        (s1 * s2, m2) == act(ring, tuple(t2[j - 1] for j in t1), x)
        for x in elements
        for t1 in perms
        for s1, m1 in [act(ring, t1, x)]
        for t2 in perms
        for s2, m2 in [act(ring, t2, m1)]
    )
    assert brute == (name not in broken_on)
    assert (not _premise_breaks(ring, 3, act)) == keeps_premise
    monkeypatch.setattr(wreath_ring, "sn_act", act)
    report = check_equivariance(ring, 3)
    law_holds = not any(w.get("detail", "").startswith("action-") for w in report.witnesses)
    if keeps_premise:
        assert law_holds == brute, report.render_text()
        # the sign twist on every odd tau is an action that breaks equivariance
        assert report.passed == (brute and mutant != "sign-twist")


# -- associativity up to simultaneous conjugation ---------------------------------

_D4_DIAG = {"1": {(f"E{i}", f"E{i}"): -1 for i in range(1, 5)}}
# Delta_2(1) carries E1 (x) E2 but not E2 (x) E1
_D4_ASYMMETRIC_DIAG = {"1": {("E1", "E2"): -1, ("E3", "E3"): -1, ("E4", "E4"): -1}}


def _with_diag2(name: str, table: dict[str, dict[tuple[str, str], int]]) -> SurfaceRing:
    """An open preset with its diag2 table replaced (entries by basis name)."""
    ring = preset(name)
    return SurfaceRing(
        name="rediagonal",
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
        diag2={
            ring.index(g): {(ring.index(a), ring.index(b)): c for (a, b), c in t.items()}
            for g, t in table.items()
        },
        euler=ring.euler,
    )


@pytest.mark.parametrize(
    "table,axiom",
    [
        (_D4_ASYMMETRIC_DIAG, "diagonal-symmetry"),
        # symmetric, but Delta_2(E1) = S (x) S makes the two ways of
        # iterating Delta_2 differ, so Delta_3 is not symmetric in its slots
        (_D4_DIAG | {"E1": {("S", "S"): 1}}, "diagonal-coassociativity"),
    ],
)
def test_diagonal_axioms_gate_the_conjugation_key(table, axiom):
    ring = _with_diag2("d4", table)
    report = validate(ring)
    assert not report.passed
    assert {w["axiom"] for w in report.witnesses} == {axiom}
    assert not cup_equivariant(ring)
    # every transitive triple is solved: 1 + 7 + 194 on 1, 2, 3 points
    assert check_associativity(ring, 3).info["local_suites"] == 202


@pytest.mark.parametrize("name", ["a0", "d4"])
def test_associativity_at_five_points(name):
    # 14,406 local problems, generated one per class
    report = check_associativity(load_ring(save_ring(preset(name))), 5)
    assert report.passed, report.render_text()
    assert report.info["local_suites"] == 14_406


def test_associativity_one_problem_per_conjugacy_class():
    # one local problem per class of transitive permutation triples under
    # simultaneous conjugation: 1 + 7 + 41 on 1, 2, 3 points (202 triples)
    ring = load_ring(save_ring(preset("d4")))
    report = check_associativity(ring, 3)
    assert report.passed, report.render_text()
    assert report.info == {
        "ring": "d4",
        "n": 3,
        "mode": "orbit-local",
        "seed": 0,
        "local_suites": 49,
    }


def _transitive_triples(m: int):
    """The triples of S_k, k <= m, whose joint orbit is all of [k]."""
    for k in range(1, m + 1):
        for triple in product(list(enumerate_sn(k)), repeat=3):
            if len(orbits(k, triple).blocks) == 1:
                yield triple


def _conjugated_violations(ring: SurfaceRing, triple, memo: dict) -> set:
    """The violating triples of the least conjugate t(sigma, tau, rho)t^-1,
    moved back along t^-1, for the first t of S_m that reaches it (the
    identity when the triple is its own least conjugate).  memo caches the
    least conjugates' violating triples."""
    conjugates = {
        t: tuple(t.compose(p).compose(t.inverse()).images for p in triple)
        for t in enumerate_sn(triple[0].n)
    }
    least = min(conjugates.values())
    t = next(t for t, images in conjugates.items() if images == least)
    if least not in memo:
        memo[least] = _violating_triples(ring, *least)
    back = t.inverse()
    return {tuple(sn_act(ring, back.images, e)[1] for e in bad) for bad in memo[least]}


def test_conjugation_key_without_coassociativity_would_change_the_report():
    # the cup product of this ring is not S_3-equivariant, so the violating
    # sets of conjugate triples differ and every transitive triple is solved.
    # Solving representatives only gives a subset of the witnesses, and
    # moving them along S_3 would give a witness set other than the report's
    table = _D4_DIAG | {"E1": {("S", "S"): 1}}
    ring = _with_diag2("d4", table)
    raw = {witness_key(w) for w in check_associativity(ring, 3).witnesses}
    forced = _with_diag2("d4", table)
    forced._caches["validate"] = {"failing": frozenset()}
    representatives = {witness_key(w) for w in check_associativity(forced, 3).witnesses}
    memo: dict = {}
    conjugated = {
        witness_key(_lifted_witness(ring, 3, *bad))
        for triple in _transitive_triples(3)
        for bad in _conjugated_violations(ring, triple, memo)
    }
    assert representatives < raw
    assert representatives < conjugated
    assert conjugated != raw


# a0 with Delta_2(1) = a (x) b - b (x) a: it passes validate and fails
# associativity from n = 2 on
_A0_ODD_DIAGONAL = {"1": {("a", "b"): 1, ("b", "a"): -1}}


def _gated_mutants():
    # d4 with E1.E1 := S, and a0 with the odd diagonal: both keep the
    # equivariance axioms and fail associativity in A{S_3}
    return {
        "d4-E1E1": _with_product("d4", "E1", "E1", {"S": 1}),
        "a0-odd-diagonal": _with_diag2("a0", _A0_ODD_DIAGONAL),
    }


@pytest.mark.parametrize(
    "name,m",
    [(name, 2) for name in PRESET_NAMES]
    + [("a0", 3), ("d4", 3), ("e6", 3), ("d4-E1E1", 3), ("a0-odd-diagonal", 3)],
)
def test_conjugation_key_matches_raw_triples(name, m):
    # the argument for solving one triple per conjugacy class: every
    # transitive triple's violating set is its least conjugate's, moved back
    mutants = _gated_mutants()
    ring = mutants[name] if name in mutants else preset(name)
    assert cup_equivariant(ring)
    violations = 0
    memo: dict = {}
    for triple in _transitive_triples(m):
        raw = _violating_triples(ring, *(p.images for p in triple))
        assert _conjugated_violations(ring, triple, memo) == set(raw), triple
        violations += len(raw)
    assert (violations > 0) == (name not in PRESET_NAMES)


def _ring_free_capacity(images: tuple[int, ...]) -> int:
    """The reference's degree capacity of the component of a permutation,
    given by its images: every orbit priced at degree 4, whatever the ring,
    at least max_degree on every ring validate admits."""
    return 2 * len(images) + 2 * len(orbits(len(images), [Perm(images)]).blocks)


def _violations_by_api(ring: SurfaceRing, n: int) -> set:
    """The rendered basis triples of A{S_n} with (x.y).z != x.(y.z), through
    cup and cup_class, with raw keys and no split into joint orbits.  Triples
    above the ring-free capacity of their target component are skipped: both
    sides vanish there on the rings it is run on
    (test_degree_capacity_cuts_skip_only_zero_products), and it cuts no
    lower than the ring's own capacity, so it checks the triples that
    max_degree cuts away too.  Each element's class is made once, outside
    the loops, and each y.z once per (tau, rho) block, when a triple under
    the cut first needs it."""
    by_sigma: dict = {}
    for x in enumerate_wreath_basis(ring, n):
        by_sigma.setdefault(Perm(x[0]), []).append((element_degree(ring, x), x, WreathClass.of(x)))
    for elements in by_sigma.values():
        elements.sort(key=lambda e: e[0])
    blocks = list(by_sigma.items())
    bad = set()
    for (tau, ys), (rho, zs) in product(blocks, repeat=2):
        yz: dict = {}  # (index of y, index of z) -> y.z
        for sigma, xs in blocks:
            cap = _ring_free_capacity(sigma.compose(tau).compose(rho).images)
            for dx, x, cx in xs:
                for i, (dy, y, cy) in enumerate(ys):
                    if dx + dy + zs[0][0] > cap:
                        break
                    xy = cup_class(ring, cx, cy)
                    for k, (dz, z, cz) in enumerate(zs):
                        if dx + dy + dz > cap:
                            break
                        cyz = yz.get((i, k))
                        if cyz is None:
                            cyz = yz[i, k] = cup_class(ring, cy, cz)
                        if cup_class(ring, xy, cz) != cup_class(ring, cx, cyz):
                            bad.add((render_element(ring, x), render_element(ring, y),
                                     render_element(ring, z)))
    return bad


@pytest.mark.parametrize(
    "name,n",
    [("a0", 2), ("a0", 3), ("abelian", 2), ("d4", 2), ("e6", 2)]
    + [("a0-odd-diagonal", 2), ("a0-odd-diagonal", 3), ("d4-E1E1", 2)],
)
def test_orbit_local_associativity_matches_all_triples(name, n):
    # the reference for the orbit-local reduction and the degree cut: the
    # violating triples of every permutation triple of S_n, with raw keys,
    # no split into joint orbits and the ring-free capacity, which on the
    # graded a0, d4 and e6 checks the triples max_degree cuts away.  The
    # verdicts agree, and every lifted local witness is a global violation
    mutants = _gated_mutants()
    ring = mutants[name] if name in mutants else load_ring(save_ring(preset(name)))
    report = check_associativity(ring, n)
    assert report.info["mode"] == "orbit-local"
    brute = _violations_by_api(ring, n)
    assert report.passed == (not brute)
    assert {(w["x"], w["y"], w["z"]) for w in report.witnesses} <= brute
    assert report.passed == (name in PRESET_NAMES)
    if name == "a0-odd-diagonal" and n == 2:
        assert len(report.witnesses) == len(brute) == 12


# failing rings for the references of the orbit-local pair suites, with
# their (equivariance, graded commutativity) verdicts
_PAIR_MUTANTS = {
    "d4-E1E2": (lambda: _with_product("d4", "E1", "E2", {"S": 1}), (False, False)),
    "d4-scaled-unit": (lambda: _with_product("d4", "1", "E1", {"E1": 2}), (True, False)),
    "a0-ba": (lambda: _with_product("a0", "b", "a", {"w": 1}), (False, False)),
    # Delta_2(1) = a (x) b fails diagonal-symmetry
    "a0-diagonal-ab": (lambda: _with_diag2("a0", {"1": {("a", "b"): 1}}), (False, True)),
}

_PAIR_CASES = [("a0", 2), ("a0", 3), ("d4", 2), ("d4", 3), ("abelian", 2)] + [
    (name, n) for name in _PAIR_MUTANTS for n in ((2, 3) if name.startswith("a0") else (2,))
]


def _pair_case(name: str, n: int):
    """A fresh ring for a reference case, its basis as {element: its class},
    and the verdicts (equivariance, graded commutativity) it must get."""
    if name in _PAIR_MUTANTS:
        make, verdicts = _PAIR_MUTANTS[name]
        ring = make()
    else:
        ring, verdicts = load_ring(save_ring(preset(name))), (True, True)
    return ring, {x: WreathClass.of(x) for x in enumerate_wreath_basis(ring, n)}, verdicts


@pytest.mark.parametrize("name,n", _PAIR_CASES)
def test_orbit_local_equivariance_matches_all_pairs(name, n):
    # the reference for the orbit-local reduction: g.(xy) = (gx)(gy) over
    # every basis pair of A{S_n} and every adjacent transposition g, with no
    # split into joint orbits and no degree cut.  The verdicts agree, and
    # every lifted local witness is a global violation
    ring, basis, (passes, _) = _pair_case(name, n)
    report = check_equivariance(ring, n)
    assert report.info["mode"] == "orbit-local"
    generators = [Perm.from_cycles([(i, i + 1)], n) for i in range(1, n)]
    brute = set()
    for x, y in product(basis, repeat=2):
        xy = cup_class(ring, basis[x], basis[y])
        for g in generators:
            sx, gx = _act(ring, g, x)
            sy, gy = _act(ring, g, y)
            if act_class(ring, g, xy) != cup_class(ring, basis[gx], basis[gy]).scale(sx * sy):
                brute.add((render_element(ring, x), render_element(ring, y), g.cycle_string()))
    assert report.passed == (not brute) == passes
    assert {(w["x"], w["y"], w["tau"]) for w in report.witnesses} <= brute


def _invariant_basis(ring: SurfaceRing, n: int) -> list[WreathClass]:
    """Projections of surviving orbit representatives: a basis of the invariants."""
    return [
        invariant_project(ring, WreathClass.of(rep))
        for rep, survives in iter_orbit_reps(ring, n)
        if survives
    ]


def _class_degree(ring: SurfaceRing, cls: WreathClass) -> int:
    (degree,) = {element_degree(ring, el) for el in cls.terms}
    return degree


@pytest.mark.parametrize("name,n", _PAIR_CASES)
def test_orbit_local_commutativity_matches_all_pairs(name, n):
    # the references for the orbit-local reduction: X.Y = eps Y.X over every
    # pair of the invariant basis, and the twisted identity
    # x.y = eps sigma_x(y).x over every basis pair of A{S_n}, with no split
    # into joint orbits and no degree cut.  The three verdicts agree, and
    # every lifted local witness is a global violation of the identity
    ring, basis, (_, passes) = _pair_case(name, n)
    report = check_graded_commutativity(ring, n)
    assert report.info["mode"] == "orbit-local"
    twisted = set()
    for x, y in product(basis, repeat=2):
        sign, moved = sn_act(ring, x[0], y)
        if element_degree(ring, x) % 2 and element_degree(ring, y) % 2:
            sign = -sign
        if cup_class(ring, basis[x], basis[y]) != cup_class(ring, basis[moved], basis[x]).scale(sign):
            twisted.add((render_element(ring, x), render_element(ring, y)))
    invariant = _invariant_basis(ring, n)
    invariant_commutes = all(
        cup_class(ring, a, b)
        == cup_class(ring, b, a).scale((-1) ** (_class_degree(ring, a) * _class_degree(ring, b)))
        for a in invariant
        for b in invariant
    )
    assert report.passed == (not twisted) == invariant_commutes == passes
    assert {(w["x"], w["y"]) for w in report.witnesses} <= twisted


@pytest.mark.parametrize(
    "table,axioms",
    [
        # Delta_2(w) = a (x) 1 + 1 (x) a is symmetric and coassociative, but
        # odd where w is even
        ({"w": {("a", "1"): 1, ("1", "a"): 1}}, {"diagonal-parity"}),
        # the same terms on Delta_2(1) also break coassociativity:
        # Delta_3(1) = a1a + 1aa against aa1 + a1a
        ({"1": {("a", "1"): 1, ("1", "a"): 1}}, {"diagonal-parity", "diagonal-coassociativity"}),
    ],
)
def test_diagonal_parity_gates_odd_associativity(table, axioms, tmp_path, capsys, monkeypatch):
    ring = _with_diag2("a0", table)
    assert {w["axiom"] for w in validate(ring).witnesses} == axioms
    path = tmp_path / "odd.ring"
    path.write_text(save_ring(ring))
    assert main(["ring", "show", "--ring", str(path)]) == 2
    assert "diagonal-parity" in capsys.readouterr().err
    calls = []
    monkeypatch.setattr(wreath_ring, "validate", lambda r: calls.append(r) or validate(r))
    # the gate of all three orbit-local suites, each run twice
    for check in (check_associativity, check_equivariance, check_graded_commutativity) * 2:
        with pytest.raises(DataError, match="diagonal-parity"):
            check(ring, 2)
    assert cup_equivariant(ring) == (axioms == {"diagonal-parity"})
    assert len(calls) == 1  # validate is read once per ring


# witness counts and sha256 of the JSON reports: every witness is a violation
# of a solved local problem, lifted onto points 1..m
_PARENT_REPORTS = {
    ("E1", "E1", 2): (6, "e21fbdabc6f9868d6d2b9c06e8fde3f16322a3c4732fa0765fdf7fc5539f1420"),
    ("E1", "E1", 3): (42, "edafb195faa5febaa4f659fddf32d7932f120814757ab8992a30937d86f909ec"),
    ("E1", "E2", 2): (10, "db1499d3e310286c29ec3dc46c9ef6aa9c76a04e520a2f16594d51a901432726"),
    ("E1", "E2", 3): (314, "01460759f4af0e1d3f71b35229f78271652b5ccd24a225cd77ec4e25ea3ae169"),
}


@pytest.mark.parametrize("left,right,n", sorted(_PARENT_REPORTS))
def test_failing_associativity_reports_unchanged(left, right, n):
    # E1.E1 := S keeps the equivariance axioms (one triple per conjugacy
    # class), E1.E2 := S breaks graded commutativity (every transitive triple)
    ring = _with_product("d4", left, right, {"S": 1})
    assert cup_equivariant(ring) == (left == right)
    report = check_associativity(ring, n)
    count, digest = _PARENT_REPORTS[(left, right, n)]
    assert len(report.witnesses) == count
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


_PAIR_CHECKS = {"equivariance": check_equivariance, "graded-commutativity": check_graded_commutativity}

# witness counts and sha256 of the JSON reports of the pair suites on the
# failing rings of their references, pinned while every local pair under the
# degree cut still reached cup
_PARENT_PAIR_REPORTS = {
    ("equivariance", "a0-ba", 2): (4, "0129c40b44f5a424621b5277a81c4da739d097f80c1b4f52be2dec32ccd2ee23"),
    ("equivariance", "a0-ba", 3): (36, "3ce92a6262fe364415d33db84117e7e921e5f2c5a80d0f9a89834f371755d28c"),
    ("equivariance", "a0-diagonal-ab", 2): (1, "34767c50169aaa116afb43dd884e51328986e8088531888fb02f43cf3b6a37bd"),
    ("equivariance", "a0-diagonal-ab", 3): (9, "8f83baee51a47c20f65ac16229e361cfa4f384b5a786dddb2e368500c3265bbd"),
    ("equivariance", "d4-E1E2", 2): (2, "e0e7abc5e2dd3e553f02debc502a121ed662526ce485992a4dfc5412fe88a0be"),
    ("equivariance", "d4-E1E2", 3): (18, "0937cb0bd77df39b6e6e0723b36d9735c7faa0ecf1c369737d0cd94138ccee82"),
    ("equivariance", "d4-scaled-unit", 2): (0, "150242ef3d95e167e28c58bc85278619e675ca77e9620044e64416176f788488"),
    ("equivariance", "d4-scaled-unit", 3): (0, "ef303ff3d45e2fe180b910d2a895178c268e3b02d5007a249336fb435fb79957"),
    ("graded-commutativity", "a0-ba", 2): (12, "8f151c3c4482467bc1b0d564fdb49bfc98c7d57b1d2e216ae1270ac0c161c3c3"),
    ("graded-commutativity", "a0-ba", 3): (100, "4c437c1986b713a3b4295746d7b74e79cd79b5f9731bd14fe94caaf29276f45c"),
    ("graded-commutativity", "a0-diagonal-ab", 2): (0, "26f6b0ca6bc744effeb4174180cb75a2b92b97e523aaddf089864c9a02995a85"),
    ("graded-commutativity", "a0-diagonal-ab", 3): (0, "5ac4d2d47f5453f90c15b319cfd7833c5d0382ab5fbcb045962fb456214ac86a"),
    ("graded-commutativity", "d4-E1E2", 2): (12, "1022f5509cf836a4d2fd1c54b483a8214991422541ee9e2b0bb69dc556b136f3"),
    ("graded-commutativity", "d4-E1E2", 3): (100, "3c51b54de345df076bdaad80518717d5a796fa92e529e9011e53e102a8979282"),
    ("graded-commutativity", "d4-scaled-unit", 2): (8, "4c9fa423242c1d9a2fc31839aae4815a269a61e7589943b9532c024b25354ab5"),
    ("graded-commutativity", "d4-scaled-unit", 3): (48, "165660e79419e5525285a53528ea3771593fe70541be863835af4080df12214b"),
}


@pytest.mark.parametrize("suite,name,n", sorted(_PARENT_PAIR_REPORTS))
def test_failing_pair_reports_unchanged(suite, name, n):
    report = _PAIR_CHECKS[suite](_PAIR_MUTANTS[name][0](), n)
    count, digest = _PARENT_PAIR_REPORTS[(suite, name, n)]
    assert len(report.witnesses) == count
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


class _SizeLog(dict):
    """A dict that records the most entries it ever held, and how often it
    was emptied."""

    peak = clears = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))

    def clear(self):
        super().clear()
        self.clears += 1


def test_cup_memo_stays_bounded(monkeypatch):
    # memos emptied many times over give the same report, and never hold
    # more entries than their bound: the cup memo, its memo of products on
    # one joint orbit, and the partner lists of the associativity walk
    plain = check_associativity(load_ring(save_ring(preset("d4"))), 3).to_json()
    monkeypatch.setattr(wreath_ring, "CUP_MEMO_BOUND", 50)
    ring = load_ring(save_ring(preset("d4")))
    memos = {name: _SizeLog() for name in ("cup", "cup_local", "partners")}
    ring._caches.update(memos)
    assert check_associativity(ring, 3).to_json() == plain
    for memo in memos.values():
        assert memo.peak == 50
        assert memo.clears > 1


def test_associativity_work_counts(monkeypatch):
    # the associativity walk takes only products that are nonzero: 510 cup
    # calls on d4 at n = 3, none of them zero (2,328 with every orbit priced
    # at degree 4; 30,285 calls, 5,759 of the 7,147 distinct products zero,
    # when every triple under that cut reached cup)
    products = []

    def counted(*args):
        products.append(cup(*args))
        return products[-1]

    monkeypatch.setattr(wreath_ring, "cup", counted)
    assert check_associativity(load_ring(save_ring(preset("d4"))), 3).passed
    assert len(products) <= 510
    assert all(products)


def test_product_groups_push_each_distinct_product_once(monkeypatch):
    # the pair suites' group filter pushes each distinct product of two
    # factor groups once per (g, m_res), shared across the tuple lengths
    # (a, b) through the ring's interned products: 150 pushes over the 24
    # orbit signatures of k3 at n <= 4, where pushing once per (a, b) took
    # 600 and pushing every pair of groups 14,356 (as local_product calls)
    ring = load_ring(save_ring(preset("k3")))
    pushes = []

    def counted(*args):
        pushes.append(args)
        return local_push(*args)

    monkeypatch.setattr(surface_ring, "local_push", counted)
    monkeypatch.setattr(wreath_ring, "local_product", None)
    signatures = {
        (len(xg), len(yg), g, m_res)
        for s, t in _transitive_tuples(4, 1, 2)
        for ((xg, yg, g, m_res),) in [_cup_plan(s, t)[1]]
    }
    assert len(signatures) == 24
    for signature in signatures:
        _product_groups(ring, *signature)
    assert len(pushes) == 150
    # interned products are one object per distinct class
    assert len({(id(prod), g, m_res) for _, prod, g, m_res in pushes}) == len(pushes)


def _partner_ring(name: str) -> SurfaceRing:
    if name in _PAIR_MUTANTS:
        return _PAIR_MUTANTS[name][0]()
    if name == "a0-odd-diagonal":
        return _with_diag2("a0", _A0_ODD_DIAGONAL)
    return load_ring(save_ring(preset(name)))


@pytest.mark.parametrize("name", [*PRESET_NAMES, *_PAIR_MUTANTS, "a0-odd-diagonal"])
def test_partners_are_exactly_the_nonzero_products(name):
    # _partners against cup on every pair (sigma, tau) of S_m, m <= 3,
    # transitive or not, with at most 50,000 basis pairs: all 41 pairs on
    # the a0 and d4 rings, 20 to 40 on the others (non-transitive ones on
    # every ring but k3 and abelian).  For each factor tuple of either side,
    # the partners are the other side's elements with a nonzero product,
    # ascending by degree
    ring = _partner_ring(name)
    checked = 0
    for m in (1, 2, 3):
        by_perm: dict = {}
        for x in enumerate_wreath_basis(ring, m):
            by_perm.setdefault(x[0], []).append(x)
        for s, t in product(by_perm, repeat=2):
            xs, ys = by_perm[s], by_perm[t]
            if len(xs) * len(ys) > 50_000:
                continue
            checked += 1
            nonzero = {(x, y) for x in xs for y in ys if cup(ring, x, y)}
            for x in xs:
                expected = sorted((element_degree(ring, y), y[1]) for y in ys if (x, y) in nonzero)
                _assert_partners(ring, (s, t, 0, x[1]), expected)
            for y in ys:
                expected = sorted((element_degree(ring, x), x[1]) for x in xs if (x, y) in nonzero)
                _assert_partners(ring, (s, t, 1, y[1]), expected)
    assert checked >= (41 if ring.size <= 6 else 20)


def _assert_partners(ring: SurfaceRing, args: tuple, expected: list) -> None:
    """_partners(ring, *args, low, high) yields the (degree, factors) of
    expected, ascending by degree, or those with low < degree <= high."""
    partners = list(_partners(ring, *args, -1, inf))
    degrees = [d for d, _ in partners]
    assert degrees == sorted(degrees), args
    assert sorted(partners) == expected, args
    if partners:
        low, high = degrees[0], degrees[len(degrees) // 2]
        assert list(_partners(ring, *args, low, high)) == [
            p for p in partners if low < p[0] <= high
        ], args


@pytest.mark.parametrize("name", ["a0", "d4"])
def test_degree_capacity_cuts_skip_only_zero_products(name):
    ring = preset(name)
    n = 2
    elements = list(enumerate_wreath_basis(ring, n))
    degree = {x: element_degree(ring, x) for x in elements}
    cut = 0
    for x, y in product(elements, repeat=2):
        # degree additivity: no pair above the capacity of its target
        # component has a nonzero product
        if degree[x] + degree[y] > max_degree(ring, Perm(x[0]).compose(Perm(y[0])).images):
            assert not cup_class(ring, x, y)
    for x, y, z in product(elements, repeat=3):
        # _violating_triples' cut on the target component
        images = Perm(x[0]).compose(Perm(y[0])).compose(Perm(z[0])).images
        if degree[x] + degree[y] + degree[z] > max_degree(ring, images):
            cut += 1
            assert not cup_class(ring, cup_class(ring, x, y), z)
            assert not cup_class(ring, x, cup_class(ring, y, z))
    assert cut > 0


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_price_each_orbit_at_their_top_degree(name):
    # every preset is graded: on one point with one orbit the capacity is
    # the ring's largest degree, 2 on the five open presets
    ring = load_ring(save_ring(preset(name)))
    assert max_degree(ring, (1,)) == max(ring.degrees) == (4 if name in ("k3", "abelian") else 2)
    assert max_degree(ring, (2, 3, 1)) == 6 + (max(ring.degrees) - 2)


@pytest.mark.parametrize(
    "make",
    [
        # not degree-additive: E1.E1 or E1.E2 lands in degree 2
        lambda: _with_product("d4", "E1", "E1", {"S": 1}),
        lambda: _with_product("d4", "E1", "E2", {"S": 1}),
        # passes validate, but Delta_2(1) = a (x) b - b (x) a has degree 2
        lambda: _with_diag2("a0", _A0_ODD_DIAGONAL),
        # the two tables of test_diagonal_axioms_gate_the_conjugation_key
        lambda: _with_diag2("d4", _D4_ASYMMETRIC_DIAG),
        lambda: _with_diag2("d4", _D4_DIAG | {"E1": {("S", "S"): 1}}),
    ],
    ids=["d4-E1E1", "d4-E1E2", "a0-odd-diagonal", "d4-diag2-asymmetric", "d4-diag2-SS"],
)
def test_ungraded_rings_price_each_orbit_at_degree_4(make):
    ring = make()
    assert max(ring.degrees) == 2
    assert max_degree(ring, (1,)) == 4
    assert max_degree(ring, (2, 1, 3)) == 2 * 3 + 2 * 2


@pytest.mark.parametrize(
    "name,n",
    [(name, 2) for name in PRESET_NAMES]
    + [("a0", 3), ("d4", 3), ("e8", 3)]
    + [(name, n) for name in _PAIR_MUTANTS for n in (2, 3)],
)
def test_pair_suites_visit_exactly_the_pairs_with_a_nonzero_product(name, n):
    # the pruning of the pair suites against every basis pair over every
    # transitive (sigma, tau) of S_m, m <= n: equivariance visits the pairs
    # with x.y != 0, each once, and graded commutativity also the pairs with
    # only sigma_x(y).x != 0, which d4-E1E2 alone has (E2.E1 = 0 != E1.E2)
    ring = _PAIR_MUTANTS[name][0]() if name in _PAIR_MUTANTS else preset(name)
    one_sided = 0
    for m in range(1, n + 1):
        by_perm: dict = {}
        for x in enumerate_wreath_basis(ring, m):
            by_perm.setdefault(x[0], []).append(x)
        for s, t in _transitive_tuples(m, m, 2):
            pairs = [(x, y) for x in by_perm[s] for y in by_perm[t]]
            nonzero = {(x, y) for x, y in pairs if cup(ring, x, y)}
            visited = list(_nonzero_pairs(ring, s, t))
            assert len(visited) == len(nonzero) and set(visited) == nonzero, (s, t)
            either = {(x, y) for x, y in pairs if cup(ring, sn_act(ring, s, y)[1], x)} | nonzero
            assert _commutativity_pairs(ring, s, t) == either, (s, t)
            one_sided += len(either - nonzero)
    assert (one_sided > 0) == (name == "d4-E1E2")


def test_equivariance_work_counts(monkeypatch):
    # cup runs on the local pairs with x.y != 0 only (10,147 calls when every
    # pair under the degree cut reached it).  The action law acts on one
    # representative per permutation and parity pattern, 6 on this even
    # ring, so 36 of the 2,674 sn_act calls are its; the pair walk makes
    # the rest (10,558 calls when the law walked every basis element)
    calls = {"cup": 0, "sn_act": 0}

    def counting(name):
        kernel = getattr(wreath_ring, name)

        def counted(*args):
            calls[name] += 1
            return kernel(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(wreath_ring, name, counting(name))
    assert check_equivariance(preset("e8"), 3).passed
    assert calls["cup"] <= 1_300
    assert calls["sn_act"] <= 3_000


# sha256 over every render_class(cup(x, y)) (x, y in basis order) and then
# every "sign render_element(image)" of sn_act (tau in enumerate_sn order),
# one line each, pinned before the Koszul signs were read off slot plans;
# a cycle string restricts the basis to that permutation
_PRODUCT_AND_ACTION_SHA256 = {
    ("a0", 3, None): "4868aa8fca80c8a7cc0474bf994469dc3e2ecc4759428f58a75f578632b8c721",
    ("abelian", 2, None): "1912e00918eabf077314b4fad85a9d71a0a2875b10d55f6efaa09ec3c6f20df9",
    ("abelian", 3, "(1 3)"): "64c29ce37456eb3a461fc9c8c2c8052973c43367e555be8de848cfeebb678dbd",
    ("d4", 3, None): "51f20dec46f14e9202b67c21906cccb1e35d8c2fcb5ad4f9efa0aeb84883095f",
}


@pytest.mark.parametrize("name,n,only", sorted(_PRODUCT_AND_ACTION_SHA256, key=str))
def test_every_product_and_action_image_unchanged(name, n, only):
    # a0 and abelian carry odd classes, so every Koszul sign of the action
    # and of the cup product's pull move is in the digest; d4 is the even
    # control.  The push move inverts odd components only from n = 3 on, and
    # there only for sigma = tau = (1 3): its joint orbit {1, 3} pushes to
    # slots 0 and 2 of sigma tau = id, around slot 1 of the joint orbit {2}
    ring = preset(name)
    basis = list(enumerate_wreath_basis(ring, n))
    if only is not None:
        basis = [x for x in basis if x[0] == parse_cycles(only, n).images]
    digest = hashlib.sha256()
    for x, y in product(basis, repeat=2):
        digest.update(render_class(ring, cup_class(ring, x, y)).encode() + b"\n")
    for tau in enumerate_sn(n):
        for x in basis:
            sign, moved = _act(ring, tau, x)
            digest.update(f"{sign} {render_element(ring, moved)}\n".encode())
    assert digest.hexdigest() == _PRODUCT_AND_ACTION_SHA256[(name, n, only)]
