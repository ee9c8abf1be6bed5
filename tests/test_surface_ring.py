"""Surface algebras: presets, validation, serialization, diagonal, filtered basis."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from hilb import linalg
from hilb.errors import DataError, ModeError, UsageError
from hilb.surface_ring import (
    PRESET_NAMES,
    SurfaceRing,
    diagonal_push,
    e8_cartan,
    filtered_basis,
    inverted_pairs,
    koszul_sign,
    load_ring,
    preset,
    save_ring,
    validate,
)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_validate(name):
    report = validate(preset(name))
    assert report.passed, report.render_text()


def test_preset_shapes():
    assert preset("d4").size == 6
    assert preset("e6").size == 8
    assert preset("e7").size == 9  # unit + 7 exceptional classes + section
    assert preset("e8").size == 10
    assert sum(1 for d in preset("k3").degrees if d == 2) == 22
    assert preset("k3").size == 24
    assert preset("abelian").size == 16
    assert preset("a0").mode == "open"
    assert preset("k3").mode == "compact"


def test_a0_perverse_dims():
    ring = preset("a0")
    assert sum(1 for d, p in zip(ring.degrees, ring.perversities) if (p, d) == (1, 1)) == 2


def test_cancelling_product_stores_no_zero_key():
    # a.b + b.a = w - w: equal classes must be equal dicts, so the cancelled
    # w leaves no zero entry behind
    ring = preset("a0")
    a, b = ring.index("a"), ring.index("b")
    assert ring.mul_class({a: 1, b: 1}, {a: 1, b: 1}) == {}


def test_unknown_preset():
    with pytest.raises(UsageError):
        preset("k3-but-wrong")


def test_e8_cartan_data():
    cartan = e8_cartan()
    assert all(cartan[i][i] == 2 for i in range(8))
    assert linalg.det(cartan) == 1
    offdiag = sum(1 for i in range(8) for j in range(8) if i != j and cartan[i][j])
    assert offdiag == 14  # 7 edges, symmetric


def test_k3_h2_gram_unimodular():
    ring = preset("k3")
    h2 = [i for i, d in enumerate(ring.degrees) if d == 2]
    gram = [[ring.pairing[i][j] for j in h2] for i in h2]
    assert abs(linalg.det(gram)) == 1


def test_k3_euler_class_is_24_top():
    ring = preset("k3")
    top = ring.top_index()
    assert ring.euler == {top: 24}
    # Euler characteristic from Betti numbers: 1 + 22 + 1 alternating
    assert sum((-1) ** d for d in ring.degrees) == 24


def test_abelian_degree_totals():
    ring = preset("abelian")
    by_degree = {}
    for d in ring.degrees:
        by_degree[d] = by_degree.get(d, 0) + 1
    assert by_degree == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
    by_perv = {}
    for p in ring.perversities:
        by_perv[p] = by_perv.get(p, 0) + 1
    assert by_perv == {0: 4, 1: 8, 2: 4}


def _broken_commutativity_ring() -> SurfaceRing:
    # a . b = w but b . a = +w: violates graded commutativity for odd classes
    one = Fraction(1)
    mul = {
        (0, 0): {0: one},
        (0, 1): {1: one},
        (0, 2): {2: one},
        (0, 3): {3: one},
        (1, 0): {1: one},
        (2, 0): {2: one},
        (3, 0): {3: one},
        (1, 2): {3: one},
        (2, 1): {3: one},
    }
    return SurfaceRing(
        name="broken",
        mode="open",
        names=("1", "a", "b", "w"),
        degrees=(0, 1, 1, 2),
        perversities=(0, 1, 1, 2),
        unit=0,
        mul=mul,
        diag2={},
        euler={},
    )


def test_validate_reports_commutativity_violation():
    report = validate(_broken_commutativity_ring())
    assert not report.passed
    assert any(w["axiom"] == "graded-commutativity" for w in report.witnesses)


def test_validate_reports_degree_violation():
    ring = preset("a0")
    # a.b lands on the degree-1 element b instead of degree 2
    broken = SurfaceRing(
        name="bad-degree",
        mode="open",
        names=ring.names,
        degrees=ring.degrees,
        perversities=ring.perversities,
        unit=0,
        mul={(0, 0): {0: 1}, (1, 2): {1: 1}},
        diag2={},
        euler={},
    )
    report = validate(broken)
    assert any(w["axiom"] == "degree-additivity" for w in report.witnesses)


def test_validate_mode_exclusivity():
    ring = preset("a0")
    broken = SurfaceRing(
        name="no-mode-data",
        mode="open",
        names=ring.names,
        degrees=ring.degrees,
        perversities=ring.perversities,
        unit=0,
        mul={(i, 0): {i: 1} for i in range(4)} | {(0, i): {i: 1} for i in range(4)} | {(1, 2): {3: 1}, (2, 1): {3: -1}},
        diag2=None,
        euler={},
    )
    report = validate(broken)
    assert any(w["axiom"] == "mode" for w in report.witnesses)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_save_load_round_trip(name):
    ring = preset(name)
    text = save_ring(ring)
    loaded = load_ring(text)
    assert loaded.names == ring.names
    assert loaded.degrees == ring.degrees
    assert loaded.perversities == ring.perversities
    assert loaded.mode == ring.mode
    assert save_ring(loaded) == text


# sha256 of each preset's save_ring document before the diagonal-parity axiom
_PRESET_DOCUMENTS = {
    "a0": "c8f3d891db35acba5ee43570361f7dfd591b8e75bacb9bb6e913b40a04c03fbd",
    "d4": "bebdb887da1bb5e2b9d10a4f38a6deeadf7e227e9e8a6ad1fcdc4d0cb36ace2f",
    "e6": "a7bdbf58ec77cac8a48aa8ced9381852ef0b4a428e7aa8a398e13cae57c2f8db",
    "e7": "87fe6d24c7121efb9d507edb76da0230f98bbea4807536b48f8cac320869d723",
    "e8": "c98bed3a032d376b3dfef97b69a89f7bca918883364508a30639e56e392b47f5",
    "k3": "9b5f282ff164e2cfd963dfeefb328972aecbcbc416ab52519b9c731a7f3a851d",
    "abelian": "37ed2e75db4eb302f824ea4496a580623882a24fc3d2b17af225ca5c826fbe3c",
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_documents_unchanged(name):
    # test_save_load_round_trip shows each one still loads past the new axiom
    text = save_ring(preset(name))
    assert hashlib.sha256(text.encode()).hexdigest() == _PRESET_DOCUMENTS[name]


def test_load_rejects_invalid_document():
    text = save_ring(_broken_commutativity_ring())
    with pytest.raises(DataError):
        load_ring(text)
    with pytest.raises(UsageError):
        load_ring("not a ring document")


def test_load_rejects_conflicting_mode_data():
    # an open ring document additionally carrying pairing lines violates the
    # compact-vs-open exclusivity axiom
    text = save_ring(preset("d4")) + "pairing E1 E1 = -2\n"
    with pytest.raises(DataError):
        load_ring(text)


def test_load_rejects_compact_without_usable_pairing():
    # mode=compact with no pairing lines: the all-zero pairing is degenerate
    text = save_ring(preset("abelian"))
    stripped = "\n".join(
        line for line in text.splitlines() if not line.startswith("pairing")
    )
    with pytest.raises(DataError):
        load_ring(stripped)


def test_singular_pairing_raises_data_error_on_first_push():
    # the constructor checks shapes only, so a compact ring built directly
    # reaches Delta_2 with a singular pairing; the dual basis does not exist
    ring = SurfaceRing(
        name="flat",
        mode="compact",
        names=("1", "pt"),
        degrees=(0, 4),
        perversities=(0, 2),
        unit=0,
        mul={(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        pairing=[[0, 1], [0, 0]],
    )
    with pytest.raises(DataError, match="ring flat fails pairing-nondegenerate"):
        diagonal_push(ring, 2, 0)


A0_DOCUMENT = save_ring(preset("a0"))


@pytest.mark.parametrize(
    "old, new, message",
    [
        # each edit replaces the line `old` of the a0 document, or appends
        # when `old` is None; the error names the offending line
        ("ring name=a0 mode=open", "ring name=a0", "expected name=... mode=..."),
        ("ring name=a0 mode=open", "ring name=a0 mode=open 2", "expected name=..."),
        ("ring name=a0 mode=open", "ring name=a0 name=b mode=open", "expected name="),
        ("basis a degree=1 perversity=1", "basis a degree=1", "expected degree="),
        ("basis a degree=1 perversity=1", "basis a degree=one perversity=1", "'one'"),
        ("basis a degree=1 perversity=1", "basis degree=1 perversity=1", "expected degree="),
        ("unit 1", "unit", "unknown basis element ''"),
        ("unit 1", "unit 1 a", "unknown basis element '1 a'"),
        ("mul a b = 1*w", "mul a b 1*w", "expected `mul <name> <name> = ...`"),
        ("mul a b = 1*w", "mul a = 1*w", "expected `mul <name> <name> = ...`"),
        ("mul a b = 1*w", "mul a q = 1*w", "unknown basis element 'q'"),
        ("mul a b = 1*w", "mul a b = w", "malformed term 'w'"),
        ("mul a b = 1*w", "mul a b = 1*q", "unknown basis element 'q'"),
        ("mul a b = 1*w", "mul a b = 1/0*w", "malformed rational '1/0'"),
        ("mul a b = 1*w", "mul a b = 1*w +", "malformed term ''"),
        (None, "pairing a b = 1*w", "malformed rational '1*w'"),
        (None, "pairing a = 1", "expected `pairing <name> <name> = ...`"),
        (None, "diag2 1 = 1*a", "tensor term 'a' is not <a>x<b>"),
        (None, "diag2 1 = 1*axbxw", "tensor term 'axbxw' is not <a>x<b>"),
        (None, "diag2 1 = 1*axq", "unknown basis element 'q'"),
        (None, "diag2 = 1*axb", "expected `diag2 <name> = ...`"),
        ("euler =", "euler", "expected `euler = ...`"),
        ("euler =", "euler w = 1*w", "expected `euler = ...`"),
        ("euler =", "euler = 1*", "unknown basis element ''"),
        (None, "muls a b = 1*w", "unknown line kind 'muls'"),
        (None, "ring name=b mode=open", "a second `ring` line"),
        (None, "basis a degree=1 perversity=1", "a second `basis a` line"),
        (None, "unit a", "a second `unit` line"),
        (None, "mul a b = 1*w", "a second `mul a b` line"),
        (None, "pairing a b = 1\npairing a b = 1", "a second `pairing a b` line"),
        (None, "diag2 1 = 1*axb\ndiag2 1 = 1*bxa", "a second `diag2 1` line"),
        (None, "euler =", "a second `euler` line"),
    ],
)
def test_load_rejects_malformed_line(old, new, message):
    if old is None:
        text = A0_DOCUMENT + new + "\n"
    else:
        assert old + "\n" in A0_DOCUMENT
        text = A0_DOCUMENT.replace(old + "\n", new + "\n", 1)
    with pytest.raises(UsageError, match=r"^line \d+ ") as info:
        load_ring(text)
    assert message in str(info.value)


def _mutant(text: str, rng: random.Random) -> str:
    """One random edit: delete, replace or insert a character; blank a
    space-separated token or copy one over another; or duplicate a line."""
    op = rng.randrange(6)
    if op < 3:
        pos = rng.randrange(len(text))
        ch = rng.choice(" =+*x/-#\t\n0125" + text)
        return text[:pos] + ("", ch, ch + text[pos])[op] + text[pos + 1 :]
    if op < 5:
        tokens = text.split(" ")
        tokens[rng.randrange(len(tokens))] = "" if op == 3 else rng.choice(tokens)
        return " ".join(tokens)
    lines = text.splitlines(keepends=True)
    lines.insert(rng.randrange(len(lines)), rng.choice(lines))
    return "".join(lines)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_load_ring_mutants_raise_only_usage_or_data_errors(name):
    rng = random.Random(name)
    text = save_ring(preset(name))
    for _ in range(300):
        mutant = _mutant(text, rng)
        try:
            load_ring(mutant)
        except (UsageError, DataError):
            pass
        except Exception as exc:
            pytest.fail(f"{exc!r} loading the mutant\n{mutant}")


def test_names_survive_save_and_load():
    a0 = preset("a0")
    ring = SurfaceRing(
        name="a0#*+/",
        mode="open",
        names=("1", "*a", "#b", "w/2"),
        degrees=a0.degrees,
        perversities=a0.perversities,
        unit=a0.unit,
        mul={(i, j): dict(a0.mul_basis(i, j)) for i in range(4) for j in range(4)},
        diag2={0: {(1, 2): 1, (2, 1): -1}},
        euler={},
    )
    text = save_ring(ring)
    loaded = load_ring(text)
    assert (loaded.name, loaded.names) == (ring.name, ring.names)
    assert save_ring(loaded) == text


@pytest.mark.parametrize(
    "ring_name, basis_name",
    [
        ("a b", "v"), ("a=b", "v"), ("r", "a+"), ("r", "a="), ("r", "a b"), ("r", "ax"),
        ("r", "a@1"), ("r", "a,b"), ("r", "a;b"),
    ],
)
def test_names_a_document_cannot_carry_are_rejected(ring_name, basis_name):
    with pytest.raises(UsageError):
        SurfaceRing(
            name=ring_name,
            mode="open",
            names=("1", basis_name),
            degrees=(0, 2),
            perversities=(0, 2),
            unit=0,
            mul={},
        )


# -- diagonal pushforward ------------------------------------------------------


def test_diagonal_push_k3_point():
    ring = preset("k3")
    pt = ring.top_index()
    assert diagonal_push(ring, 2, pt) == {(pt, pt): 1}


def test_diagonal_push_d4_unit():
    ring = preset("d4")
    expected = {(i, i): -1 for i in range(1, 5)}
    assert diagonal_push(ring, 2, ring.unit) == expected
    # m = 3 iterates to zero: diag2 lands in degree 2 (x) 2 and dies
    assert diagonal_push(ring, 3, ring.unit) == {}


def test_diagonal_push_a0_vanishes():
    ring = preset("a0")
    for g in range(ring.size):
        for m in (2, 3, 4):
            assert diagonal_push(ring, m, g) == {}


def test_diagonal_push_open_mode_requires_diag2():
    ring = preset("d4")
    naked = SurfaceRing(
        name="no-diag",
        mode="open",
        names=ring.names,
        degrees=ring.degrees,
        perversities=ring.perversities,
        unit=ring.unit,
        mul={(i, j): dict(ring.mul_basis(i, j)) for i in range(6) for j in range(6)},
        diag2=None,
        euler={},
    )
    with pytest.raises(ModeError):
        diagonal_push(naked, 2, 0)


def test_adjunction_defines_compact_diagonal():
    # <Delta_2(gamma), x (x) y> = <gamma, x.y> with the Koszul tensor pairing
    for name in ("k3", "abelian"):
        ring = preset(name)
        for g in range(ring.size):
            push = diagonal_push(ring, 2, g)
            for x in range(ring.size):
                for y in range(ring.size):
                    lhs = Fraction(0)
                    for (a, b), c in push.items():
                        sign = (
                            -1
                            if ring.degrees[b] % 2 and ring.degrees[x] % 2
                            else 1
                        )
                        lhs += (
                            sign
                            * c
                            * ring.pairing_eval({a: 1}, {x: 1})
                            * ring.pairing_eval({b: 1}, {y: 1})
                        )
                    rhs = ring.pairing_eval({g: 1}, ring.mul_class({x: 1}, {y: 1}))
                    assert lhs == rhs, (name, ring.names[g], ring.names[x], ring.names[y])


def _sign_by_adjacent_swaps(odd: tuple[int, ...], dst: tuple[int, ...]) -> int:
    """The Koszul sign of a move made one adjacent swap at a time (bubble sort
    on the target slots): each swap of two odd neighbours is one -1."""
    slots = list(zip(dst, odd))
    sign = 1
    for end in range(len(slots) - 1, 0, -1):
        for i in range(end):
            if slots[i][0] > slots[i + 1][0]:
                if slots[i][1] and slots[i + 1][1]:
                    sign = -sign
                slots[i], slots[i + 1] = slots[i + 1], slots[i]
    return sign


@pytest.mark.parametrize("k", range(7))
def test_koszul_sign_matches_its_definition(k):
    # every move of k <= 6 slots and every parity pattern; basis factor f
    # has degree degrees[f], so factor 0 is even and factor 1 odd
    degrees = (2, 3)
    for dst in permutations(range(k)):
        inverted = inverted_pairs(dst)
        assert inverted == tuple(
            (i, j) for i, j in combinations(range(k), 2) if dst[i] > dst[j]
        )
        for factors in product((0, 1), repeat=k):
            expected = _sign_by_adjacent_swaps(factors, dst)
            assert koszul_sign(degrees, factors, inverted) == expected, (dst, factors)


def test_only_the_odd_presets_have_odd_classes():
    assert [name for name in PRESET_NAMES if preset(name).has_odd] == ["a0", "abelian"]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_diagonal_symmetry(name):
    ring = preset(name)
    push = diagonal_push(ring, 2, ring.unit)
    swapped = {}
    for (a, b), c in push.items():
        sign = -1 if ring.degrees[a] % 2 and ring.degrees[b] % 2 else 1
        swapped[(b, a)] = swapped.get((b, a), 0) + sign * c
    assert {k: v for k, v in swapped.items() if v} == push


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_diagonal_perversity_bound(name):
    ring = preset(name)
    for g in range(ring.size):
        for m in range(2, 5):
            for key in diagonal_push(ring, m, g):
                total = sum(ring.perversities[i] for i in key)
                assert total <= ring.perversities[g] + 2 * (m - 1)


# -- filtered basis ---------------------------------------------------------------


def _signed_orthonormal_pattern(ring, basis):
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
                        assert value == 0, (ka, kb, i, j, value)
                    elif ka == kb:
                        expected = basis.middle_signs[i] if i == j else 0
                        assert value == expected, (ka, i, j, value)
                        if i == j:
                            assert value in (1, -1)
                    else:
                        assert value == (1 if i == j else 0), (ka, kb, i, j, value)


def test_filtered_basis_k3():
    ring = preset("k3")
    basis = filtered_basis(ring)
    assert len(basis.entries) == 24
    assert len(basis.middle_signs) == 20
    assert set(basis.middle_signs) == {1, -1}
    assert sorted(basis.middle_signs).count(-1) == 18  # signature (2, 18)
    _signed_orthonormal_pattern(ring, basis)


def test_filtered_basis_abelian():
    ring = preset("abelian")
    basis = filtered_basis(ring)
    assert len(basis.entries) == 16
    assert len(basis.middle_signs) == 4
    _signed_orthonormal_pattern(ring, basis)


def test_filtered_basis_blocks_span_filtration():
    ring = preset("k3")
    basis = filtered_basis(ring)
    counts = {}
    for e in basis.entries:
        counts[(e.perversity, e.degree)] = counts.get((e.perversity, e.degree), 0) + 1
    expected = {}
    for p, d in zip(ring.perversities, ring.degrees):
        expected[(p, d)] = expected.get((p, d), 0) + 1
    assert counts == expected


def test_filtered_basis_idempotent_on_orthonormal_input():
    # a ring already signed orthonormal per block keeps its pairing pattern
    ring = preset("abelian")
    first = filtered_basis(ring)
    # rebuild: same ring, construction deterministic
    second = filtered_basis(ring)
    assert first == second


def test_filtered_basis_requires_compact():
    with pytest.raises(ModeError):
        filtered_basis(preset("d4"))
