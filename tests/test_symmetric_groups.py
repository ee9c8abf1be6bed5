"""Permutations, orbits, cycle types and the graph defect."""

import pytest

from hilb.errors import ResourceError, UsageError
from hilb.symmetric_groups import (
    Perm,
    class_representatives,
    cycle_type,
    enumerate_sn,
    graph_defect,
    is_least_conjugate,
    orbits,
    pair_orbits,
    parse_cycles,
    signature_defect,
    transitive_signatures,
)


def test_perm_basics():
    p = parse_cycles("(1 2)(3 4 5)", 5)
    assert p(1) == 2 and p(2) == 1 and p(3) == 4 and p(5) == 3
    assert p.cycle_string() == "(1 2)(3 4 5)"
    assert Perm.identity(4).cycle_string() == "id"
    assert p.compose(p.inverse()) == Perm.identity(5)


def test_composition_convention_applies_right_factor_first():
    s = parse_cycles("(1 2)", 3)
    t = parse_cycles("(2 3)", 3)
    # (s compose t)(2) = s(t(2)) = s(3) = 3
    assert s.compose(t)(2) == 3
    assert s.compose(t).cycle_string() == "(1 2 3)"


def test_perm_rejects_non_bijections():
    with pytest.raises(UsageError):
        Perm((1, 1, 3))


def test_orbits_examples():
    assert orbits(3, [parse_cycles("(1 2)", 3)]).blocks == ((1, 2), (3,))
    assert orbits(3, []).blocks == ((1,), (2,), (3,))
    two = [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)]
    assert orbits(4, two).blocks == ((1, 2, 3, 4),)


def test_orbits_carrier_preservation():
    sigma = parse_cycles("(1 2)", 3)
    assert orbits(3, [sigma], carrier=(1, 2)).blocks == ((1, 2),)
    with pytest.raises(UsageError):
        orbits(3, [sigma], carrier=(1, 3))


def test_graph_defect_examples():
    s2 = parse_cycles("(1 2)", 2)
    assert graph_defect(s2, s2) == {(1, 2): 0}
    c3 = parse_cycles("(1 2 3)", 3)
    assert graph_defect(c3, c3) == {(1, 2, 3): 1}
    e1 = Perm.identity(1)
    assert graph_defect(e1, e1) == {(1,): 0}


def test_graph_defect_nonnegative_integer_exhaustive_small():
    for n in range(1, 6):
        perms = list(enumerate_sn(n))
        for s in perms:
            for t in perms:
                for value in graph_defect(s, t).values():
                    assert value >= 0


def test_graph_defect_partition_additivity():
    # sum over joint orbits of (|E| - #<st>-orbits in E) telescopes to
    # n - #<st>-orbits on [n]
    for n in range(1, 6):
        perms = list(enumerate_sn(n))
        for s in perms:
            for t in perms:
                st = s.compose(t)
                total = 0
                for block in orbits(n, [s, t]).blocks:
                    total += len(block) - len(orbits(n, [st], carrier=block).blocks)
                assert total == n - len(orbits(n, [st]).blocks)


def test_graph_defect_self_inverse_consistency():
    # tau = sigma^{-1}: joint orbits equal sigma-orbits, sigma tau = id, and
    # the defect formula collapses to 1 - |<sigma>\E| = 0 on each orbit
    for n in range(1, 6):
        for s in enumerate_sn(n):
            defect = graph_defect(s, s.inverse())
            for block, value in defect.items():
                orbit_count = len(orbits(n, [s], carrier=block).blocks)
                assert orbit_count == 1
                assert value == (len(block) + 2 - 2 * orbit_count - len(block)) // 2
                assert value == 0


def test_joint_orbits_coarsen_single_orbits():
    for n in range(1, 6):
        perms = list(enumerate_sn(n))
        for s in perms:
            for t in perms:
                joint = orbits(n, [s, t])
                assert orbits(n, [s]).refines(joint)
                assert orbits(n, [t]).refines(joint)


def _transitive_pairs_by_signature(m: int) -> dict[tuple[int, int, int], int]:
    """The transitive pairs of S_m counted by the numbers of orbits of
    sigma, tau and sigma tau, over all of S_m x S_m."""
    counts: dict[tuple[int, int, int], int] = {}
    perms = [p.images for p in enumerate_sn(m)]
    for s in perms:
        for t in perms:
            _, blocks, ranks = pair_orbits(s, t)
            if len(blocks) == 1:
                key = tuple(map(len, ranks[0]))
                counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize(
    "m,pairs,signatures", [(1, 1, 1), (2, 3, 3), (3, 26, 7), (4, 426, 13), (5, 11_064, 22)]
)
def test_transitive_signatures_match_the_enumeration(m, pairs, signatures):
    # the character count equals the count over S_m x S_m, coefficient by
    # coefficient
    counted = _transitive_pairs_by_signature(m)
    assert sum(counted.values()) == pairs
    assert len(counted) == signatures
    assert dict(transitive_signatures(m)) == counted


def test_transitive_signature_counts_are_positive():
    # every coefficient counts pairs, so none is zero or negative, and every
    # signature has a nonnegative integral graph defect
    for m in range(1, 9):
        counts = transitive_signatures(m)
        assert all(isinstance(c, int) and c > 0 for c in counts.values()), m
        for a, b, m_res in counts:
            signature_defect(m, a, b, m_res)
    with pytest.raises(UsageError):
        transitive_signatures(0)


def test_least_conjugate_is_a_class_invariant():
    # at m = 3 the 216 permutation triples fall into the classes of S_3
    # acting by simultaneous conjugation; exactly the least member of each
    # class passes
    perms = list(enumerate_sn(3))
    triples = [(s, t, r) for s in perms for t in perms for r in perms]
    keys = set()
    for triple in triples:
        images = tuple(p.images for p in triple)
        conjugates = {
            tuple(u.compose(p).compose(u.inverse()).images for p in triple)
            for u in perms
        }
        assert is_least_conjugate(images) == (images == min(conjugates))
        assert sum(map(is_least_conjugate, conjugates)) == 1
        if is_least_conjugate(images):
            keys.add(images)
    # Burnside: the average number of triples a conjugator fixes
    fixed = sum(
        len([1 for tr in triples if all(u.compose(p) == p.compose(u) for p in tr)])
        for u in perms
    )
    assert len(keys) == fixed // len(perms) == 49


def test_cycle_type():
    assert cycle_type(Perm.identity(3)).mults == (3, 0, 0)
    assert cycle_type(parse_cycles("(1 2)(3 4 5)", 5)).mults == (0, 1, 1, 0, 0)
    count = sum(
        1 for p in enumerate_sn(3) if cycle_type(p).mults == (1, 1, 0)
    )
    assert count == 3


@pytest.mark.parametrize("n,classes", [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)])
def test_class_representatives_first_of_each_cycle_type(n, classes):
    # one permutation per cycle type, the lexicographically least of its type
    reps = {cycle_type(p): p for p in class_representatives(n)}
    assert len(reps) == len(class_representatives(n)) == classes
    assert all(reps[cycle_type(p)].images <= p.images for p in enumerate_sn(n))
    assert class_representatives(3) == [parse_cycles(c, 3) for c in ("id", "(2 3)", "(1 2 3)")]


@pytest.mark.parametrize("n", range(1, 7))
def test_class_representatives_are_conjugation_minima(n):
    # the lemma the orbit oracle prunes by: each representative is the least
    # of its conjugacy class, computed here by conjugating with all of S_n,
    # so every tau outside its centralizer moves it to a larger permutation;
    # the representatives come in increasing order and their classes cover S_n
    perms = list(enumerate_sn(n))
    reps = class_representatives(n)
    assert reps == sorted(reps)
    covered = set()
    for sigma in reps:
        conjugates = {tau.compose(sigma).compose(tau.inverse()) for tau in perms}
        assert min(conjugates) == sigma
        assert covered.isdisjoint(conjugates)
        covered |= conjugates
    assert len(covered) == len(perms)


def _class_representatives_by_scan(n):
    """The reference: the first permutation of each cycle type in enumerate_sn order."""
    reps = {}
    for sigma in enumerate_sn(n):
        reps.setdefault(cycle_type(sigma), sigma)
    return list(reps.values())


@pytest.mark.parametrize("n", range(9))
def test_class_representatives_match_the_scan(n):
    # the representatives are built from the partitions of n; the scan of all
    # of S_n finds the same permutations in the same order
    assert class_representatives(n) == _class_representatives_by_scan(n)


def test_partition_bookkeeping():
    part = cycle_type(parse_cycles("(1 2)(3 4 5)", 5))
    assert part.n == 5
    assert part.length == 2
    assert part.parts() == (3, 2)
    assert part.render() == "2^13^1"


def test_enumerate_sn():
    assert [p.images for p in enumerate_sn(1)] == [(1,)]
    perms3 = list(enumerate_sn(3))
    assert len(perms3) == 6
    assert perms3[0] == Perm.identity(3)
    assert perms3 == sorted(perms3)
    perms5 = list(enumerate_sn(5))
    assert len(perms5) == 120
    assert perms5[0] == Perm.identity(5)
    with pytest.raises(ResourceError):
        list(enumerate_sn(9))
