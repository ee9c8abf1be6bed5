"""The wreath product A{S_n} of a surface algebra with the symmetric group.

An additive basis element is a pair (sigma, factors): a permutation together
with one surface-basis element per orbit of <sigma>, stored against the
canonical orbit order (blocks sorted by minimal element).  Its cohomological
degree is

    deg = sum of factor degrees + 2 * (n - number of orbits).

The S_n-action conjugates the permutation and transports factors along the
relabeling; the cup product pulls both factor tensors back to the joint
orbits of <sigma, tau>, multiplies there, inserts Euler-class powers e^g
prescribed by the graph defect (with e^g = 0 for g >= 2, since e sits in top
degree), and pushes forward to the orbits of <sigma tau>; `local_product` is
that step on one joint orbit, and `surface_ring.local_push` its second half
(e^g and the push), which the local searches reach once per distinct
product through `ring.intern`.
Odd-degree factors give the Koszul sign (`surface_ring.koszul_sign`) of
each move of tensor factors, planned once per permutation pair.  The action
moves sigma's orbits to their relabeled ranks.  The cup product makes two
moves: `pull` takes x's slots, then y's, to joint-orbit order (x's before
y's on each joint orbit); `push` takes the product's components, read in
joint-orbit order, to the canonical slots of sigma tau.  Both bracketings of
a triple product share their moves across joint orbits, so associativity is
checked one joint orbit at a time on every ring (`check_associativity`).
So are equivariance and graded commutativity (as the twisted identity
x.y = (-1)^(|x||y|) sigma_x(y).x), over the joint orbits of <sigma, tau>.
Their local problems are the transitive permutation tuples of S_m,
m <= n (`_transitive_tuples`); when the cup product is S_n-equivariant,
associativity and graded commutativity solve one tuple per class under
simultaneous conjugation, generated directly (`_least_transitive_tuples`:
sigma per conjugacy class, then the later entries up to its centralizer).
The unit laws are decided on one cycle at a time (`check_unit_laws`).
The cup product reads each factor tuple only
through its merged product on each joint orbit, and it vanishes exactly
when one joint orbit's product does, so every suite multiplies only pairs
with a nonzero product, found per pair of factor groups with one merged
product each (an interned id): the pair suites visit those pairs
(`_nonzero_pairs`), and associativity walks, for each middle element, the
partners of each element it meets (`_partners`), cut by the degree
capacity of the target component (`max_degree`): each orbit priced at the
ring's largest degree when the ring is graded (`_top_degree`: it passes
`validate` and Delta_2 raises degrees by 4, so the cup product is
degree-additive), at degree 4 otherwise.  Each violation is one witness,
lifted onto points 1..m.
Every function takes a basis element as the pair `Element` = (images of
sigma, factors), and n is the length of the images; `WreathClass` is the
class-level type, a linear combination of such pairs, taken by
`cup_class` and `act_class`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product as iproduct
from math import factorial
from operator import itemgetter

from .errors import DataError, UsageError
from .linalg import add_term
from .report import CheckReport, run_suite
from .surface_ring import (
    SurfaceRing,
    Tensor,
    Vec,
    diagonal_push,
    euler_vanishes,
    inverted_pairs,
    koszul_sign,
    local_push,
    validate,
)
from .symmetric_groups import (
    Perm,
    _perm_orbit_blocks,
    _walk,
    class_representatives,
    enumerate_sn,
    pair_orbits,
    require_enumerable,
    signature_defect,
)


# Basis element a.sigma: the images of sigma and one factor per canonical
# <sigma>-orbit
Element = tuple[tuple[int, ...], tuple[int, ...]]


def _is_element(n: int, el) -> bool:
    """Whether el is a basis element of A{S_n}: the images of a permutation
    of [n], and one factor per orbit of it."""
    try:
        images, factors = el
        return (sorted(images) == list(range(1, n + 1))
                and len(factors) == len(_perm_orbit_blocks(tuple(images))))
    except (TypeError, ValueError):
        return False


class WreathClass:
    """Exact rational linear combination of basis elements of one A{S_n}.

    Keys are checked where they enter, here and in add_term: a key outside
    A{S_n} is a UsageError.  Their factors are checked against a ring once,
    by the first `cup_class` or `act_class` that takes the class with that
    ring (`_require_class`).  The classes the library builds from keys it
    has checked are made by `_trusted`, which checks nothing again.  `terms`
    is read, never written, outside this class.
    """

    __slots__ = ("n", "terms", "_ring")

    def __init__(self, n: int, terms: dict[Element, Fraction] | None = None):
        self.n = n
        self.terms: dict[Element, Fraction] = {}
        self._ring = None  # the ring every factor was last checked against
        if terms:
            for el, c in terms.items():
                self._require_key(el)
                if c:
                    self.terms[el] = c

    def _require_key(self, el) -> None:
        if not _is_element(self.n, el):
            raise UsageError(f"{el!r} is not a basis element of A{{S_{self.n}}}")

    @classmethod
    def _trusted(cls, n: int, terms: dict[Element, Fraction], ring) -> "WreathClass":
        """The class with these terms, whose keys are basis elements of
        A{S_n} and whose coefficients are nonzero, without checking them;
        ring, unless None, is one that every factor lies in."""
        out = cls.__new__(cls)
        out.n, out.terms, out._ring = n, terms, ring
        return out

    @classmethod
    def of(cls, element: Element, coeff=1) -> "WreathClass":
        return cls(len(element[0]), {element: coeff})

    def add_term(self, element: Element, coeff: Fraction) -> None:
        self._require_key(element)
        self._ring = None
        add_term(self.terms, element, coeff)

    def scale(self, coeff) -> "WreathClass":
        if not coeff:
            return WreathClass(self.n)
        terms = {el: c * coeff for el, c in self.terms.items()}
        return WreathClass._trusted(self.n, terms, self._ring)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WreathClass)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"WreathClass(n={self.n}, {len(self.terms)} terms)"


# -- orbit bookkeeping -------------------------------------------------------


def element_degree(ring: SurfaceRing, x: Element) -> int:
    s, factors = x
    degrees = ring.degrees
    total = 2 * (len(s) - len(factors))
    for f in factors:
        total += degrees[f]
    return total


def _require_factors(ring: SurfaceRing, factors) -> None:
    """UsageError unless every factor index names a basis class of the ring."""
    for f in factors:
        if not 0 <= f < ring.size:
            raise UsageError(f"factor index {f} out of range")


def _require_class(ring: SurfaceRing, cls: WreathClass) -> None:
    """UsageError unless every factor of the class's terms lies in the ring:
    WreathClass has no ring, so its own key check cannot see them.  A class
    passes once per ring; it is not checked again until add_term changes it."""
    if cls._ring is not ring:
        for _, factors in cls.terms:
            _require_factors(ring, factors)
        cls._ring = ring


def make_element(ring: SurfaceRing, n: int, sigma: Perm, factors) -> Element:
    if sigma.n != n:
        raise UsageError(f"{sigma.cycle_string()} lies in S_{sigma.n}, not in S_{n}")
    blocks = _perm_orbit_blocks(sigma.images)
    factors = tuple(factors)
    if len(factors) != len(blocks):
        raise UsageError(
            f"{len(blocks)} orbit factors required for {sigma.cycle_string()}, got {len(factors)}"
        )
    _require_factors(ring, factors)
    return sigma.images, factors


def enumerate_wreath_basis(ring: SurfaceRing, n: int):
    """All basis elements a.sigma, sigma lexicographic, factor tuples lexicographic."""
    for sigma in enumerate_sn(n):
        s = sigma.images
        for factors in iproduct(range(ring.size), repeat=len(_perm_orbit_blocks(s))):
            yield s, factors


def render_element(ring: SurfaceRing, x: Element) -> str:
    s, factors = x
    inner = " ⊗ ".join(
        f"{ring.names[f]}@{{{','.join(str(v) for v in block)}}}"
        for f, block in zip(factors, _perm_orbit_blocks(s))
    )
    return f"[{inner}] * {Perm(s).cycle_string()}"


def render_class(ring: SurfaceRing, cls: WreathClass) -> str:
    if not cls.terms:
        return "0"
    pieces = []
    for el in sorted(cls.terms):
        pieces.append(f"{cls.terms[el]} * {render_element(ring, el)}")
    return " + ".join(pieces)


# -- the S_n action ----------------------------------------------------------


@lru_cache(maxsize=None)
def _act_plan(tau_images: tuple[int, ...], sigma_images: tuple[int, ...]):
    """Conjugation transport: the images of tau sigma tau^-1, and the move of
    sigma's orbits to their relabeled ranks, as slots and inverted pairs."""
    tau = Perm(tau_images)
    new_sigma = tau.compose(Perm(sigma_images)).compose(tau.inverse())
    old_blocks = _perm_orbit_blocks(sigma_images)
    image_mins = [min(tau(v) for v in block) for block in old_blocks]
    new_pos = tuple(sorted(image_mins).index(v) for v in image_mins)
    return new_sigma.images, new_pos, inverted_pairs(new_pos)


def _transport(t: tuple[int, ...], x) -> tuple[Element, tuple]:
    """x moved along tau, given by its image tuple t, without its sign, and
    the inverted slot pairs of the move."""
    s, factors = x
    images, new_pos, inverted = _act_plan(t, s)
    moved = [0] * len(factors)
    for m, f in enumerate(factors):
        moved[new_pos[m]] = f
    return (images, tuple(moved)), inverted


def sn_act(ring: SurfaceRing, t: tuple[int, ...], x) -> tuple[int, tuple]:
    """Transport x = (images of sigma, factors) along tau, given by its image
    tuple t; returns (Koszul sign, (images of tau sigma tau^-1, moved
    factors)).  The one action kernel; act_class is its linear closure."""
    moved, inverted = _transport(t, x)
    sign = koszul_sign(ring.degrees, x[1], inverted) if ring.has_odd else 1
    return sign, moved


def act_class(ring: SurfaceRing, tau: Perm, cls: WreathClass) -> WreathClass:
    if tau.n != cls.n:
        raise UsageError("tau and the class must live in the same S_n")
    _require_class(ring, cls)
    terms: dict = {}
    for el, c in cls.terms.items():
        sign, moved = sn_act(ring, tau.images, el)
        add_term(terms, moved, sign * c)
    return WreathClass._trusted(cls.n, terms, ring)


def invariant_project(ring: SurfaceRing, cls: WreathClass) -> WreathClass:
    """Average over the S_n action; idempotent; lands in the invariant model."""
    n = cls.n
    terms: dict = {}
    for tau in enumerate_sn(n):
        for el, c in act_class(ring, tau, cls).terms.items():
            add_term(terms, el, c)
    return WreathClass._trusted(n, terms, ring).scale(Fraction(1, factorial(n)))


# -- cup product --------------------------------------------------------------


@lru_cache(maxsize=None)
def _cup_plan(sigma_images: tuple[int, ...], tau_images: tuple[int, ...]):
    """The images of sigma tau; per joint orbit of <sigma, tau>, the ranks
    of sigma's and tau's orbits inside it, its graph defect g and its number
    m_res of orbits of sigma tau; the product's two moves, each by its
    inverted slot pairs; and whether some joint orbit has e^g = 0, which
    makes every product over the pair vanish.

    `pull` moves x's slots, then y's slots, to joint-orbit order, x's before
    y's on each joint orbit.  `push` moves the product's components, read in
    joint-orbit order, to the canonical slots `dst` of sigma tau.
    """
    st_images, blocks, ranks = pair_orbits(sigma_images, tau_images)
    local = tuple(
        (xg, yg, signature_defect(len(b), len(xg), len(yg), len(dg)), len(dg))
        for b, (xg, yg, dg) in zip(blocks, ranks)
    )
    vanishes = any(euler_vanishes(g) for _, _, g, _ in local)
    # x's slot m is pull slot m and y's slot m is pull slot kx + m; `order`
    # lists the pull slots in joint-orbit order
    kx = sum(len(xg) for xg, *_ in local)
    order = [s for xg, yg, *_ in local for s in (*xg, *(kx + m for m in yg))]
    dst = tuple(m for *_, dg in ranks for m in dg)
    pull = inverted_pairs([order.index(s) for s in range(len(order))])
    return st_images, local, pull, dst, inverted_pairs(dst), vanishes


def _mul_sequence(ring: SurfaceRing, factors: tuple[int, ...]) -> Vec:
    cache = ring._caches.setdefault("mul_seq", {})
    hit = cache.get(factors)
    if hit is not None:
        return hit
    acc: Vec = {ring.unit: 1}
    for f in factors:
        acc = ring.mul_class(acc, {f: 1})
        if not acc:
            break
    cache[factors] = acc
    return acc


def local_product(ring: SurfaceRing, mx: Vec, my: Vec, g: int, m: int) -> Tensor:
    """The product on one transitive joint orbit of <sigma, tau>.

    mx and my are the two sides' factors already merged onto the joint orbit
    (by _mul_sequence); their product goes through `local_push`.
    """
    if euler_vanishes(g):
        return {}
    return local_push(ring, ring.mul_class(mx, my), g, m)


# the most entries each memo of the cup product (and of its partner lists)
# holds; a full memo is emptied
CUP_MEMO_BOUND = 2_000_000


def _memo_put(memo: dict, key, value) -> None:
    """Store value under key, emptying memo first if it holds CUP_MEMO_BOUND
    entries."""
    if len(memo) >= CUP_MEMO_BOUND:
        memo.clear()
    memo[key] = value


def _local_terms(ring: SurfaceRing, lx: tuple[int, ...], ly: tuple[int, ...], g: int, m_res: int):
    """The sorted terms of the product on one joint orbit with graph defect g
    and m_res orbits of sigma tau, x's factors there lx and y's ly
    (`local_product` of their merged products); memoized per ring under
    CUP_MEMO_BOUND, so a cup miss recomputes no local product."""
    memo = ring._caches.setdefault("cup_local", {})
    key = (lx, ly, g, m_res)
    hit = memo.get(key)
    if hit is None:
        mx = _mul_sequence(ring, lx)
        my = _mul_sequence(ring, ly) if mx else {}
        hit = sorted(local_product(ring, mx, my, g, m_res).items()) if my else []
        _memo_put(memo, key, hit)
    return hit


def cup(ring: SurfaceRing, x, y) -> dict[tuple[int, ...], Fraction]:
    """Lehn cup product of x = (images of sigma, factors) and y = (images of
    tau, factors), as {factors over sigma tau: coeff}; bilinear closure is
    cup_class.  It works joint orbit by joint orbit and assembles the result
    by two slot moves.  `pull` brings x's and y's factors to joint-orbit order,
    where each joint orbit's factors are merged and multiplied
    (`local_product`, through `_local_terms`); `push` takes each term's
    components to their slots `dst` of sigma tau.  Each move contributes its
    Koszul sign, taken only on rings with odd classes.  Results are memoized
    per ring, at most CUP_MEMO_BOUND of them; callers must treat them as
    immutable.
    """
    cache = ring._caches.setdefault("cup", {})
    key = x + y  # (s, fx, t, fy): one flat tuple per memo entry
    hit = cache.get(key)
    if hit is not None:
        return hit
    (s, fx), (t, fy) = x, y
    _, local, pull, dst, push, vanishes = _cup_plan(s, t)
    pushed: list[list[tuple[tuple[int, ...], Fraction]]] = []
    if not vanishes:
        for xg, yg, g, m_res in local:
            lx, ly = tuple(fx[m] for m in xg), tuple(fy[m] for m in yg)
            split = _local_terms(ring, lx, ly, g, m_res)
            if not split:
                break
            pushed.append(split)
    out: dict[tuple[int, ...], Fraction] = {}
    # the product vanishes unless every joint orbit has a nonzero local one
    if len(pushed) == len(local):
        degs, odd = ring.degrees, ring.has_odd
        sign = koszul_sign(degs, fx + fy, pull) if odd else 1
        for combo in iproduct(*pushed):
            coeff = sign
            flat: list[int] = []
            for part, c in combo:
                coeff *= c
                flat += part
            if odd:
                coeff *= koszul_sign(degs, flat, push)
            factors = [0] * len(dst)
            for slot, f in zip(dst, flat):
                factors[slot] = f
            add_term(out, tuple(factors), coeff)
    _memo_put(cache, key, out)
    return out


def cup_class(ring: SurfaceRing, a, b) -> WreathClass:
    """Bilinear closure of cup on classes (elements accepted on either side)."""
    if isinstance(a, tuple):
        a = WreathClass.of(a)
    if isinstance(b, tuple):
        b = WreathClass.of(b)
    if a.n != b.n:
        raise UsageError("cup factors must live in the same A{S_n}")
    _require_class(ring, a)
    _require_class(ring, b)
    terms: dict = {}
    for xa, ca in a.terms.items():
        for xb, cb in b.terms.items():
            st = _cup_plan(xa[0], xb[0])[0]
            c = ca * cb
            for f, cc in cup(ring, xa, xb).items():
                add_term(terms, (st, f), c * cc)
    return WreathClass._trusted(a.n, terms, ring)


def unit_element(ring: SurfaceRing, n: int) -> Element:
    return tuple(range(1, n + 1)), (ring.unit,) * n


# -- orbit representatives of the invariant model ------------------------------


def _sorted_tuples(size: int, prev: list[int]):
    """Factor tuples over values 0..size-1 that are non-decreasing along each
    group of slots, in lexicographic order.  prev[i] is the previous slot of
    slot i's group, or -1 for the group's first slot.

    An odometer: the successor raises the rightmost slot below size - 1 and
    resets every later slot to its least value, the value at the previous
    slot of its group (0 for a group's first slot).
    """
    k = len(prev)
    factors = [0] * k
    top = size - 1
    while True:
        yield tuple(factors)
        i = k - 1
        while i >= 0 and factors[i] == top:
            i -= 1
        if i < 0:
            return
        factors[i] += 1
        for j in range(i + 1, k):
            p = prev[j]
            factors[j] = factors[p] if p >= 0 else 0


def _cycle_swap(s: tuple[int, ...], one: tuple[int, ...], other: tuple[int, ...]):
    """The images of the involution in Z(sigma) that swaps two equal-length
    cycles of sigma, given by their blocks: sigma^i(a) <-> sigma^i(b) for
    their least points a and b; it fixes the other points, and its slot move
    swaps the two cycles' slots."""
    t = list(range(1, len(s) + 1))
    a, b = one[0], other[0]
    for _ in one:
        t[a - 1], t[b - 1] = b, a
        a, b = s[a - 1], s[b - 1]
    return tuple(t)


def _class_slots(n: int):
    """(images, orbit blocks, prev) per least permutation of a conjugacy
    class of S_n (`class_representatives`), where prev[i] is the previous
    slot of slot i's group of equal-length cycles, or -1, as
    `_sorted_tuples` takes it."""
    for sigma in class_representatives(n):
        s = sigma.images
        blocks = _perm_orbit_blocks(s)
        latest: dict[int, int] = {}  # cycle length -> its latest slot so far
        prev = []
        for slot, block in enumerate(blocks):
            prev.append(latest.get(len(block), -1))
            latest[len(block)] = slot
        yield s, blocks, prev


def iter_orbit_reps(ring: SurfaceRing, n: int):
    """Yield (representative, survives) per S_n-orbit of basis elements.

    The representative is the lexicographically minimal element of its orbit.
    `survives` is False when some stabilizer element acts by -1 on the factor
    tensor, in which case the orbit sums to zero in the invariant model.

    Only the least permutation sigma of each conjugacy class
    (`class_representatives`) can carry a representative, and only its
    centralizer Z(sigma) can move a.sigma to an element at most a.sigma: any
    other tau conjugates sigma to a larger permutation.  Z(sigma) keeps sigma
    and acts on its slots as the product of the symmetric groups S_{a_i} on
    the a_i cycles of each length i, each of them realized.  So a.sigma is
    least in its orbit exactly when its factors are non-decreasing along the
    slots of each group of equal-length cycles, and those tuples are the
    only ones generated (`_sorted_tuples`), in lexicographic order.

    The sign of sn_act depends on the slot move alone, and on the stabilizer
    of a.sigma it is a character, so generators decide it.  The stabilizer's
    slot moves are the permutations within runs of equal factors of a
    group, generated by the transpositions of adjacent equal slots; each is
    tested through sn_act with the swap of their two cycles
    (`_cycle_swap`).  On rings without odd classes the sign is 1 and every
    orbit survives.  The pairs come out as a scan of every basis element
    against all of S_n would yield them, in the same order.
    """
    for s, blocks, prev in _class_slots(n):
        swaps = [
            (p, j, _cycle_swap(s, blocks[p], blocks[j]))
            for j, p in enumerate(prev)
            if p >= 0 and ring.has_odd
        ]
        for factors in _sorted_tuples(ring.size, prev):
            survives = all(
                sn_act(ring, t, (s, factors))[0] == 1
                for p, j, t in swaps
                if factors[p] == factors[j]
            )
            yield (s, factors), survives


# -- basis size ----------------------------------------------------------------


def basis_count(ring: SurfaceRing, n: int) -> int:
    return sum(
        ring.size ** len(_perm_orbit_blocks(s.images)) for s in enumerate_sn(n)
    )


# -- transitive local subproblems ----------------------------------------------


def _elements_by_degree(ring: SurfaceRing, s: tuple[int, ...]) -> list[tuple[int, tuple]]:
    """(degree, factors) for all factor tuples of the permutation with images
    s, ascending by degree."""
    cache = ring._caches.setdefault("local_elems", {})
    hit = cache.get(s)
    if hit is not None:
        return hit
    blocks = _perm_orbit_blocks(s)
    shift = 2 * (len(s) - len(blocks))
    out = []
    for factors in iproduct(range(ring.size), repeat=len(blocks)):
        out.append((sum(ring.degrees[f] for f in factors) + shift, factors))
    out.sort()
    cache[s] = out
    return out


def max_degree(ring: SurfaceRing, images: tuple[int, ...]) -> int:
    """Degree capacity of the A{S_n}-component of a permutation, given by
    its images: 2m + (top - 2)k on m points with k orbits, where top is the
    largest degree a factor can have (`_top_degree`)."""
    m, k = len(images), len(_perm_orbit_blocks(images))
    return 2 * m + (_top_degree(ring) - 2) * k


def _transitive_tuples(n: int, smallest: int, arity: int):
    """Every tuple of `arity` permutations of S_m, smallest <= m <= n, whose
    joint orbit is all of [m], by their images, in lexicographic order: the
    local problems of the orbit-local suites.

    A joint orbit of a tuple of S_n, relabelled in order onto 1..m, is one
    of them, and each of them is one, on points 1..m with the identity on
    the other points.
    """
    for m in range(smallest, n + 1):
        perms = [p.images for p in enumerate_sn(m)]
        for images in iproduct(perms, repeat=arity):
            if len(_walk(m, images)) == 1:
                yield images


def _least_under(perms: list, group: list):
    """(p, stabilizer) for every p of perms, all of S_m by images in
    lexicographic order, that is least in its orbit under conjugation by
    group, a list of (z, z^-1) image pairs that holds the identity; the
    stabilizer lists the pairs of group whose z fixes p.

    The walk meets each orbit first at its least element and marks the
    whole orbit there.
    """
    if len(group) == 1:
        for p in perms:
            yield p, group
        return
    seen = set()
    for p in perms:
        if p in seen:
            continue
        fixing = []
        for z, z_inv in group:
            # z p z^-1 sends z(i) to z(p(i))
            q = tuple(z[p[i - 1] - 1] for i in z_inv)
            if q == p:
                fixing.append((z, z_inv))
            else:
                seen.add(q)
        yield p, fixing


def _least_transitive_tuples(n: int, smallest: int, arity: int):
    """The tuples of `_transitive_tuples` (arity 2 or 3) that are their own
    least simultaneous conjugate t(sigma, tau, ...)t^-1 over t in S_m: one
    per class, in the same order, generated without walking S_m^arity.

    The tuples compare lexicographically, sigma first.  A t outside the
    centralizer Z(sigma) conjugates sigma to another permutation, which is
    larger exactly when sigma is the least of its class; a t in Z(sigma)
    keeps sigma and compares tau; a t that fixes tau too compares rho.  So
    a tuple is least exactly when sigma is a class representative
    (`class_representatives`), tau is least under conjugation by Z(sigma),
    and rho least under the stabilizer of tau in Z(sigma) (`_least_under`);
    transitivity is the same on every conjugate, so it filters last.
    """
    for m in range(smallest, n + 1):
        perms = [p.images for p in enumerate_sn(m)]
        for sigma in class_representatives(m):
            s = sigma.images
            centralizer = [
                (z, Perm(z).inverse().images)
                for z in perms
                if all(z[v - 1] == s[z[i] - 1] for i, v in enumerate(s))
            ]
            for t, fixing in _least_under(perms, centralizer):
                whole = len(_walk(m, (s, t))) == 1
                if arity == 2:
                    if whole:
                        yield s, t
                    continue
                for r, _ in _least_under(perms, fixing):
                    if whole or len(_walk(m, (s, t, r))) == 1:
                        yield s, t, r


def _factor_members(ring: SurfaceRing, k: int) -> list[tuple[int, list[tuple[int, ...]]]]:
    """Factor tuples of length k grouped by merged product: (id of the merged
    product in `ring.intern`, member tuples) per group whose product is
    nonzero.

    The merged product is the left fold from the unit of `_mul_sequence`, so
    level k is built from level k - 1 with one more factor; a tuple whose
    prefix folds to zero folds to zero and is in no group.
    """
    cache = ring._caches.setdefault("factor_members", {})
    hit = cache.get(k)
    if hit is not None:
        return hit
    intern = ring.intern
    if k == 0:
        groups = [(intern.id_of({ring.unit: 1}), [()])]
    else:
        by_product: dict[int, list[tuple[int, ...]]] = {}
        basis = [intern.id_of({f: 1}) for f in range(ring.size)]
        for vec, members in _factor_members(ring, k - 1):
            for f, fid in enumerate(basis):
                merged = intern.mul(vec, fid)
                if merged is not None:
                    by_product.setdefault(merged, []).extend(m + (f,) for m in members)
        groups = list(by_product.items())
    cache[k] = groups
    return groups


def _group_products(ring: SurfaceRing, a: int, b: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """The ids of the distinct nonzero products mx.my of factor groups of
    lengths a and b (`_factor_members`), each with the index pairs (i, j) of
    the groups whose product it is, in loop order (x's groups outer)."""
    cache = ring._caches.setdefault("group_products", {})
    hit = cache.get((a, b))
    if hit is None:
        by_product: dict[int, list[tuple[int, int]]] = {}
        mul = ring.intern.mul
        ys = _factor_members(ring, b)
        for i, (mx, _) in enumerate(_factor_members(ring, a)):
            for j, (my, _) in enumerate(ys):
                prod = mul(mx, my)
                if prod is not None:
                    by_product.setdefault(prod, []).append((i, j))
        hit = cache[(a, b)] = list(by_product.items())
    return hit


def _product_groups(
    ring: SurfaceRing, a: int, b: int, g: int, m_res: int
) -> list[tuple[int, int]]:
    """The index pairs (i, j), ascending, of the factor groups of lengths a
    and b (`_factor_members`) whose local product on a joint orbit with
    graph defect g and m_res orbits of sigma tau is nonzero.  Each distinct
    product of two groups (`_group_products`) is pushed once per (g, m_res)
    for every signature and suite (`ring.intern.push_top`)."""
    cache = ring._caches.setdefault("product_groups", {})
    key = (a, b, g, m_res)
    hit = cache.get(key)
    if hit is None:
        top = ring.intern.push_top
        hit = cache[key] = sorted(
            ij
            for prod, ijs in _group_products(ring, a, b)
            if top(prod, g, m_res) is not None
            for ij in ijs
        )
    return hit


def _local_partners(ring: SurfaceRing, a: int, b: int, g: int, m_res: int, side: int) -> dict:
    """{member tuple: its partner tuples by degree} on a joint orbit with a
    orbits of sigma, b of tau, graph defect g and m_res orbits of sigma tau:
    for side 0 the tuples of y's factors there whose local product with the
    key (x's factors) is nonzero, for side 1 those of x's factors against
    the key (y's), as (degree, partner tuples of that degree) pairs,
    ascending by degree.  The members of one factor group share one such
    list, built from the members of their nonzero partner groups
    (`_product_groups`)."""
    cache = ring._caches.setdefault("local_partners", {})
    key = (a, b, g, m_res, side)
    hit = cache.get(key)
    if hit is None:
        groups = (_factor_members(ring, a), _factor_members(ring, b))
        degs = ring.degrees
        found: dict[int, dict] = {}  # group index on the key's side -> {degree: partners}
        for ij in _product_groups(ring, a, b, g, m_res):
            by_degree = found.setdefault(ij[side], {})
            for member in groups[1 - side][ij[1 - side]][1]:
                by_degree.setdefault(sum(degs[v] for v in member), []).append(member)
        hit = cache[key] = {}
        for i, by_degree in found.items():
            levels = sorted(by_degree.items())
            for member in groups[side][i][1]:
                hit[member] = levels
    return hit


def _concat(parts) -> tuple:
    """The tuples in parts, joined."""
    return sum(parts, ())


def _partners(
    ring: SurfaceRing, s: tuple[int, ...], t: tuple[int, ...], side: int, f: tuple,
    low: int, high: float,
):
    """Yield (degree, factors) for every basis element w with low < degree
    <= high and a nonzero product against the one with factors f, ascending
    by degree: x.w != 0 for w over tau and x = (sigma, f) when side is 0,
    w.y != 0 for w over sigma and y = (tau, f) when side is 1.  sigma and
    tau are given by their images and need not be transitive.

    cup(x, y) != 0 exactly when no joint orbit of <sigma, tau> has g >= 2
    and every one has a nonzero local product: its terms are the products
    of one pushed term per joint orbit, placed in disjoint slots, so they
    cannot cancel.  A joint orbit's local product reads each side only
    through its merged product, so the partners are the members of the
    factor groups whose local product with f's group is nonzero
    (`_local_partners`), chosen independently per joint orbit and placed
    into their slots.  Only the choices within the degree bounds are built.
    """
    _, local, _, _, _, vanishes = _cup_plan(s, t)
    if vanishes:
        return
    choices, slots = [], []
    for xg, yg, g, m_res in local:
        mine, theirs = (xg, yg) if side == 0 else (yg, xg)
        levels = _local_partners(ring, len(xg), len(yg), g, m_res, side).get(
            tuple(f[m] for m in mine)
        )
        if levels is None:
            return
        choices.append(levels)
        slots += theirs
    shift = 2 * (len(s) - len(slots))
    by_degree: dict[int, list] = {}  # degree -> per-orbit lists of choices
    for combo in iproduct(*choices):
        d = shift + sum(local_degree for local_degree, _ in combo)
        if low < d <= high:
            by_degree.setdefault(d, []).append([parts for _, parts in combo])
    # a partner's factors read in joint-orbit order, its slot j at position
    # pos[j] of them
    pos = sorted(range(len(slots)), key=slots.__getitem__)
    place = itemgetter(*pos) if pos != list(range(len(pos))) else None
    for d in sorted(by_degree):
        for parts in by_degree[d]:
            flats = parts[0] if len(parts) == 1 else map(_concat, iproduct(*parts))
            for flat in flats if place is None else map(place, flats):
                yield d, flat


def _nonzero_pairs(ring: SurfaceRing, s: tuple[int, ...], t: tuple[int, ...]):
    """(x, y) for every basis pair with x.y != 0 over a transitive pair
    (sigma, tau), given by their images, as (images, factors) pairs.

    On the one joint orbit, `cup` reads each side's factor tuple only through
    its merged product, and x.y = 0 exactly when the local product of the
    two is 0: then it has no component to push to sigma tau, and otherwise
    its one component's terms land on distinct factor tuples.  So the pairs
    are those of members of factor groups with a nonzero local product
    (`_product_groups`), each yielded once.
    """
    ((xg, yg, g, m_res),) = _cup_plan(s, t)[1]
    xs, ys = _factor_members(ring, len(xg)), _factor_members(ring, len(yg))
    for i, j in _product_groups(ring, len(xg), len(yg), g, m_res):
        for fx in xs[i][1]:
            x = (s, fx)
            for fy in ys[j][1]:
                yield x, (t, fy)


def _commutativity_pairs(ring: SurfaceRing, s: tuple[int, ...], t: tuple[int, ...]) -> set:
    """The basis pairs (x, y) over a transitive pair (sigma, tau), given by
    their images, with x.y != 0 or sigma_x(y).x != 0.

    sigma_x(y) is sn_act(sigma, y), a signed bijective slot move from the
    elements over tau onto those over rho = sigma tau sigma^-1; so the pairs
    with sigma_x(y).x != 0 are (v, sigma^-1 u) for the pairs (u, v) over
    (rho, sigma) with u.v != 0.
    """
    inverse = Perm(s).inverse().images
    rho = _act_plan(s, t)[0]
    pairs = set(_nonzero_pairs(ring, s, t))
    pairs.update((v, _transport(inverse, u)[0]) for u, v in _nonzero_pairs(ring, rho, s))
    return pairs


def _lifted_witness(ring: SurfaceRing, n: int, *elements, **more) -> dict:
    """A local violation on points 1..m, its elements given as (images,
    factors) pairs, put on [n] with the identity and units on the other
    points (their local products are units); rendered as x, y and z."""

    def lift(e) -> str:
        images, factors = e
        m = len(images)
        lifted = images + tuple(range(m + 1, n + 1)), factors + (ring.unit,) * (n - m)
        return render_element(ring, lifted)

    return {**dict(zip("xyz", map(lift, elements))), **more, "excess": 1}


# -- verification suites ---------------------------------------------------------


# validate's axioms that together make the cup product S_n-equivariant
_EQUIVARIANCE_AXIOMS = frozenset(
    {
        "graded-commutativity",
        "associativity",
        "diagonal-symmetry",
        "diagonal-coassociativity",
    }
)

# validate's axioms that make the product, e and Delta_2 preserve parity
_PARITY_AXIOMS = frozenset({"degree-additivity", "euler-degree", "diagonal-parity"})


def _failing_axioms(ring: SurfaceRing) -> frozenset[str]:
    """The axioms `validate` reports violated; read once per ring."""
    cache = ring._caches.setdefault("validate", {})
    if "failing" not in cache:
        cache["failing"] = frozenset(w["axiom"] for w in validate(ring).witnesses)
    return cache["failing"]


def _top_degree(ring: SurfaceRing) -> int:
    """The factor degree the associativity cut prices each orbit at; read
    once per ring, at its first call.

    It is the ring's largest degree when the ring is graded: it passes
    `validate` (so the product is degree-additive and e sits in degree 4)
    and every term a (x) b of Delta_2(gamma) has deg a + deg b =
    deg gamma + 4, which `validate` does not check.  Every other ring gets
    4, the largest degree `validate` admits, so its reports do not depend
    on the gate.
    """
    cache = ring._caches.setdefault("validate", {})
    if "top" not in cache:
        degs = ring.degrees
        graded = not _failing_axioms(ring) and all(
            degs[a] + degs[b] == degs[g] + 4
            for g in range(ring.size)
            for a, b in diagonal_push(ring, 2, g)
        )
        cache["top"] = max(degs) if graded else 4
    return cache["top"]


def _require_parity(ring: SurfaceRing, suite: str) -> None:
    """DataError unless the product, e and Delta_2 preserve parity, as the
    move argument of the orbit-local suites needs; even rings always pass."""
    if ring.has_odd:
        broken = _failing_axioms(ring) & _PARITY_AXIOMS
        if broken:
            raise DataError(
                f"ring {ring.name} violates {', '.join(sorted(broken))}; the "
                f"orbit-local {suite} check needs parity-preserving data"
            )


def cup_equivariant(ring: SurfaceRing) -> bool:
    """Whether the ring has what makes its cup product S_n-equivariant.

    Relabelling the points reorders the merged factors of a joint orbit and
    the slots of the diagonal pushforward; graded commutativity and
    associativity of the surface product absorb the first, a Koszul-symmetric
    coassociative Delta_2 the second.
    """
    return not _failing_axioms(ring) & _EQUIVARIANCE_AXIOMS


def _partner_products(
    ring: SurfaceRing, s: tuple[int, ...], t: tuple[int, ...], side: int, f: tuple, bound: int
) -> list:
    """(degree, factors, product) for the partners of f (`_partners`, same
    first arguments) ascending by degree, at least up to degree bound: the
    product is x.w for x = (sigma, f) when side is 0, w.y for y = (tau, f)
    when side is 1; entries past the bound may follow.  The list grows
    lazily, one degree range at a time, to the largest bound asked for, so
    each product is taken once while it is held.  Memoized per ring under
    CUP_MEMO_BOUND.
    """
    memo = ring._caches.setdefault("partners", {})
    key = (s, t, side, f)
    hit = memo.get(key)
    if hit is None:
        hit = [-1, []]  # the degree reached, the products so far
        _memo_put(memo, key, hit)
    reached, done = hit
    if bound > reached:
        for d, g in _partners(ring, s, t, side, f, reached, bound):
            prod = cup(ring, (s, f), (t, g)) if side == 0 else cup(ring, (s, g), (t, f))
            done.append((d, g, prod))
        hit[0] = bound
    return done


def _bracket(ring: SurfaceRing, inner: tuple, outer: tuple, room: int, least: int) -> dict:
    """One bracketing of the basis triples with a fixed middle element y,
    as {(x's factors, z's factors): value}, over the triples whose outer
    elements a and b have deg a + deg b <= room.

    The inner product pairs y with its partners a (`_partner_products` of
    inner = (sigma, tau, side, y's factors)); each term w of it, with its
    coefficient c, meets its own partners b (those of outer = (sigma', tau',
    side'), the pair and side w and b lie on), and c times that outer
    product is added at (a, b).  For (x.y).z, a = x and b = z; for x.(y.z),
    a = z and b = x.  least is the least degree of any b.  Each outer
    product is taken once for all the a whose inner product has the term w.
    """
    made: dict = {}  # term w -> (deg a, a's factors, coefficient of w)
    for da, fa, prod in _partner_products(ring, *inner, room - least):
        if da + least > room:
            break
        for w, c in prod.items():
            made.setdefault(w, []).append((da, fa, c))
    out: dict = {}
    for w, makers in made.items():
        first = makers[0][0]
        for db, fb, prod in _partner_products(ring, *outer, w, room - first):
            if first + db > room:
                break
            for da, fa, c in makers:
                if da + db > room:
                    break
                acc = out.setdefault((fa, fb) if outer[2] == 0 else (fb, fa), {})
                for f, cc in prod.items():
                    add_term(acc, f, c * cc)
    return out


def _violating_triples(
    ring: SurfaceRing, s: tuple[int, ...], t: tuple[int, ...], r: tuple[int, ...]
) -> list[tuple]:
    """Every basis triple over (sigma, tau, rho), given by their images s, t
    and r, with (x.y).z != x.(y.z), as (images, factors) pairs, among the
    triples within the degree capacity `max_degree` of the target
    component, the one of sigma tau rho.

    On a graded ring (`_top_degree`) the cut is exact: the cup product is
    degree-additive, deg(x.y) = deg x + deg y.  On a joint orbit of
    <sigma, tau> with a orbits of sigma, b of tau and m_res of sigma tau,
    the merged product adds the factor degrees, e^g adds 4g and
    Delta_{m_res} adds 4(m_res - 1).  Summed over the joint orbits, with
    2g = m + 2 - a - b - m_res on each, 4g + 4(m_res - 1) comes to
    2(m - k_x) + 2(m - k_y) - 2(m - k_st) for the orbit counts k of sigma,
    tau and sigma tau on all m points: the cycle shifts of x and y less
    that of the product.  So both bracketings of a triple have degree
    deg x + deg y + deg z, and every element on m points with k orbits has
    degree at most top k + 2(m - k), so a triple above that vanishes on
    both sides.  Every other ring prices each orbit at degree 4, the
    capacity its reports have always been taken under.

    Only products that are nonzero are taken.  Where both bracketings vanish
    the identity holds; (x.y).z != 0 needs a term u of x.y with u.z != 0,
    and x.(y.z) != 0 a term v of y.z with x.v != 0.  So for each y the left
    side is summed over the x with x.y != 0, the terms u of x.y and the z
    with u.z != 0, the right side over the z with y.z != 0, the terms v of
    y.z and the x with x.v != 0 (`_partners`, ascending by degree, so the
    capacity cuts each walk short; `_bracket`).  The two sides are compared
    whole, and key by key only when they differ: a triple missing from one
    side is 0 there, and one that cancelled to {} on a side is no
    violation.  One y is held at a time.
    """
    st, tr = _cup_plan(s, t)[0], _cup_plan(t, r)[0]
    cap = max_degree(ring, _cup_plan(st, r)[0])
    min_x = _elements_by_degree(ring, s)[0][0]
    min_z = _elements_by_degree(ring, r)[0][0]
    bad = []
    for dy, fy in _elements_by_degree(ring, t):
        room = cap - dy
        if min_x + min_z > room:
            break
        left = _bracket(ring, (s, t, 1, fy), (st, r, 0), room, min_z)
        right = _bracket(ring, (t, r, 0, fy), (s, tr, 1), room, min_x)
        if left != right:
            for fx, fz in sorted(left.keys() | right.keys()):
                if left.get((fx, fz), {}) != right.get((fx, fz), {}):
                    bad.append(((s, fx), (t, fy), (r, fz)))
    return bad


def check_associativity(ring: SurfaceRing, n: int, seed: int = 0) -> CheckReport:
    """(x.y).z = x.(y.z) over basis triples, one joint orbit at a time.

    Each joint orbit B of <sigma, tau, rho> is an independent transitive
    subproblem, checked exhaustively over the triples within the degree
    capacity of the target component, multiplying only pairs whose product
    is nonzero (`_violating_triples`).  The capacity prices each orbit at
    the ring's largest degree when the ring is graded, which is exact
    because the cup product is then degree-additive, and at degree 4 on
    every other ring (`max_degree`, gated by `_top_degree` once per ring,
    at its first call).  A local violation on m points lifts
    to a global one on n points, with the other points carrying the
    identity and units.  The local pass is exact for every ring, Koszul
    signs included.  In `cup` each bracketing of
    x.y.z is a composite of slot moves, each with its Koszul sign, and of
    even maps (the merged product, e^g, Delta_m), each acting only on the
    slots of one B.  An even map commutes without sign with a move of slots
    it does not touch, and a composite of moves has the sign of the
    composite permutation (`koszul_sign`).  So

        (xy)z = M_out o (tensor over B of (x_B y_B) z_B) o M_in,

    and x(yz) has the same form with the same M_in (x's, y's and z's slots
    to block order) and M_out (block order to the slots of sigma tau rho):
    the associator vanishes iff every local one does.  The argument needs
    the product, e and Delta_2 to preserve parity; `validate` checks that
    (`degree-additivity`, `euler-degree`, `diagonal-parity`), and a ring
    with odd classes that breaks one of them raises DataError.  Even rings
    do no sign work and are not gated.

    Each local problem is a triple (sigma, tau, rho) of S_m, m <= n, whose
    joint orbit is all of [m] (`_transitive_tuples`), and one is solved per
    class of such triples under simultaneous conjugation: the triple that
    is its own least conjugate, generated directly
    (`_least_transitive_tuples`: sigma over the class representatives, tau
    least under the centralizer of sigma, rho least under the stabilizer
    of tau in it).  That is exact when the cup product is S_n-equivariant:
    then t.((xy)z) and t.(x(yz)) carry the same sign against
    ((t x)(t y))(t z) and (t x)((t y)(t z)), so conjugate triples have
    conjugate violating sets, and either both are empty or neither is.
    Equivariance follows from graded commutativity and associativity of the
    surface product and a Koszul-symmetric, coassociative Delta_2
    (`cup_equivariant` reads them from `validate`).
    A ring that lacks one of them may have a non-equivariant cup product,
    whose violating sets differ between conjugate triples, so every
    transitive triple is solved.  Each violation of a solved problem is one
    witness, lifted onto points 1..m (`_lifted_witness`); `local_suites`
    counts the problems solved.

    `seed` is only echoed in the report.  n past ENUMERATE_LIMIT raises
    ResourceError before any work.
    """
    require_enumerable(n)
    _require_parity(ring, "associativity")
    tuples = _least_transitive_tuples if cup_equivariant(ring) else _transitive_tuples
    problems = list(tuples(n, 1, 3))
    found = (
        _lifted_witness(ring, n, *bad)
        for triple in problems
        for bad in _violating_triples(ring, *triple)
    )
    info = {
        "ring": ring.name,
        "n": n,
        "mode": "orbit-local",
        "seed": seed,
        "local_suites": len(problems),
    }
    return run_suite("associativity", info, found)


def _unit_laws_hold_locally(ring: SurfaceRing, n: int) -> bool:
    """Whether 1.x = x = x.1 for x = (c, (f,)) on every m-cycle c of S_m,
    1 <= m <= n, and every basis class f, where 1 is the unit of A{S_m};
    False without a look when the ring's unit has odd degree."""
    if ring.degrees[ring.unit] % 2:
        return False
    for m in range(1, n + 1):
        one = unit_element(ring, m)
        for rest in permutations(range(2, m + 1)):
            c = Perm.from_cycles([(1, *rest)], m).images
            for f in range(ring.size):
                x, expected = (c, (f,)), {(f,): 1}
                if cup(ring, one, x) != expected or cup(ring, x, one) != expected:
                    return False
    return True


def check_unit_laws(ring: SurfaceRing, n: int) -> CheckReport:
    """1.x = x = x.1 on the basis elements x of A{S_n}, decided one cycle
    at a time.

    For x = (sigma, f), the joint orbits of <id, sigma> are sigma's cycles
    B, each with |B| orbits of id, one of sigma and one of id sigma, so
    g = 0.  The pull of 1.x brings the unit slots of B, then f's slot of B,
    together, block by block: f's slots keep their order, so every pair of
    slots it inverts holds a unit slot.  The push takes the one component
    of each B, in joint-orbit order, to the slot of B in sigma: the
    identity.  So with a unit of even degree, 1.x is the tensor over B of
    the local products, with no sign, and so is x.1 (there the unit slots
    follow f's slot of their B).  The local product of B depends on B only
    through its size m and f's factor there, and it is the one of
    1.(c, (f_B,)) in A{S_m} for an m-cycle c.  So if both laws hold on
    every (c, (f,)) of every m <= n (`_unit_laws_hold_locally`), they hold
    on all of A{S_n}, for every ring.  Otherwise, or when the unit is odd,
    the basis is walked and every x at which a law fails is a witness.
    n past ENUMERATE_LIMIT raises ResourceError before any work.
    """
    require_enumerable(n)
    one = unit_element(ring, n)

    def found():
        if _unit_laws_hold_locally(ring, n):
            return
        for x in enumerate_wreath_basis(ring, n):
            expected = {x[1]: 1}
            if cup(ring, one, x) != expected or cup(ring, x, one) != expected:
                yield {"x": render_element(ring, x), "excess": 1}

    return run_suite("unit-laws", {"ring": ring.name, "n": n}, found())


def check_equivariance(
    ring: SurfaceRing, n: int, seed: int = 0, sample_size: int = 0
) -> CheckReport:
    """sn_act(tau, x.y) = sn_act(tau, x) . sn_act(tau, y), one joint orbit at
    a time.

    (i) sn_act is a group action with signs, checked on generators once
    per permutation sigma and parity pattern of its factors, all that it
    reads of them (see composes), and (ii) the identity holds for every
    adjacent transposition g = (i i+1); together they give it for every
    tau.  (ii) is checked on
    every transitive pair (sigma, tau) of S_m, m >= 2 (`_transitive_tuples`),
    under every adjacent transposition of S_m, which is exact by the move
    argument of `check_associativity`.  If i and i+1 lie in one joint orbit
    B of <sigma, tau>, they are adjacent in B, so g restricts to an adjacent
    transposition of B's order-preserving relabelling and fixes the other
    joint orbits.  Otherwise g carries each joint orbit onto one in the same
    relative order: it changes no local problem and only moves slots across
    joint orbits.  Both g.(xy) and (gx)(gy) are composites of Koszul slot
    moves and of even maps that each act on one joint orbit B, so both read
    M_out o (tensor over B of L_B) o M_in with the same M_in and M_out; L_B
    is g_B.(x_B y_B) against (g_B x_B)(g_B y_B) where g acts inside B, and
    x_B y_B on both sides elsewhere.  So the identity holds iff it holds on
    every joint orbit.  Only the local pairs with x.y != 0 are visited
    (`_nonzero_pairs`): x -> gx is an involution of the local basis, so g
    permutes the local pairs.  Where the identity holds and x.y != 0,
    (gx)(gy) != 0; if it holds on every such pair, g maps them into, hence
    onto, themselves, so it maps the pairs with x.y = 0 to pairs with
    (gx)(gy) = 0.  A violation at a pair with x.y = 0 shows at its image
    (gx, gy).  Odd rings are gated by `_require_parity`.  `seed` is only
    echoed; `sample_size` is unread.
    """
    _require_parity(ring, "equivariance")
    perms = list(enumerate_sn(n))
    # generators[m]: the adjacent transpositions of S_m
    generators = [[Perm.from_cycles([(i, i + 1)], m) for i in range(1, m)] for m in range(n + 1)]

    def composes():
        """The signed action law A(t2)A(t1) = A(t2 t1), A(t) = sn_act(t, .).

        Checked are A(id) = 1 and A(g)A(t) = A(g t) for every generator g
        and every t.  That is the full law: write t2 as a word g_k ... g_1
        in the generators.  For k = 0 it is the identity check, and for
        t2 = g w, A(g w)A(t1) = A(g)A(w)A(t1) = A(g)A(w t1) = A(g w t1), by
        the generator check at t = w, induction on the word length and the
        generator check at t = w t1.

        sn_act reads x = (sigma, f) in two ways only: it moves f's slots by
        the move of `_act_plan(t, sigma)` to the orbits of t sigma t^-1, and
        on odd rings it takes `koszul_sign` over the move's inverted slot
        pairs, which reads f only through the parities of its factors.  So
        A(g)A(t)x and A(gt)x are the same element for every f exactly when
        the conjugated images agree and the composite of the moves of
        `_act_plan(t, sigma)` and `_act_plan(g, t sigma t^-1)` is the move
        of `_act_plan(gt, sigma)`, compared as permutations of slots (two
        moves that differ show on any f with distinct factors there); and
        their signs agree for every f exactly when they agree on one f per
        parity pattern, whose moved pattern is the moved f's.  An even ring
        has one pattern per sigma, an odd ring 2^(number of orbits).  The
        signs come from sn_act itself, called on the pattern's
        representative: `ring.unit` in each even slot and the least odd
        basis class in each odd slot, so a wrong `koszul_sign` shows.  The
        identity check is that `_act_plan(id, sigma)` keeps sigma and every
        slot, with sign 1 on each representative.  A witness's x is the
        representative of its pattern.
        """
        identity = unit_element(ring, n)[0]
        images = [t.images for t in perms]
        # per t: (g, g t) for every generator g
        steps = [(t.images, [(g.images, g.compose(t)) for g in generators[n]]) for t in perms]
        odd = [f for f in range(ring.size) if ring.degrees[f] % 2][:1]
        values = (ring.unit, *odd)  # one factor per parity
        rows: dict = {}  # pattern representative -> {t: sign of sn_act(t, .)}

        def signs(x) -> dict:
            row = rows.get(x)
            if row is None:
                row = rows[x] = {t: sn_act(ring, t, x)[0] for t in images}
            return row

        for s in images:
            k = len(_perm_orbit_blocks(s))
            reps = [(s, f) for f in iproduct(values, repeat=k)]
            kept = _act_plan(identity, s)[:2] == (s, tuple(range(k)))
            for x in reps:
                if not kept or signs(x)[identity] != 1:
                    yield {"x": render_element(ring, x), "tau": "id",
                           "detail": "action-identity", "excess": 1}
            for t, gts in steps:
                s1, pos1, _ = _act_plan(t, s)
                moved = [(x, _transport(t, x)[0]) for x in reps]
                for g, gt in gts:
                    s2, pos2, _ = _act_plan(g, s1)
                    s3, pos3, _ = _act_plan(gt.images, s)
                    composite = s2 == s3 and tuple(pos2[p] for p in pos1) == pos3
                    for x, tx in moved:
                        row = signs(x)
                        if not composite or row[t] * signs(tx)[g] != row[gt.images]:
                            yield {"x": render_element(ring, x), "tau": gt.cycle_string(),
                                   "detail": "action-composition", "excess": 1}

    def found():
        yield from composes()
        for s, t in _transitive_tuples(n, 2, 2):
            st = _cup_plan(s, t)[0]
            for x, y in _nonzero_pairs(ring, s, t):
                xy = cup(ring, x, y)
                for g in generators[len(s)]:
                    sx, gx = sn_act(ring, g.images, x)
                    sy, gy = sn_act(ring, g.images, y)
                    gxy: dict = {}  # g.(xy)
                    for f, c in xy.items():
                        sign, (_, gf) = sn_act(ring, g.images, (st, f))
                        add_term(gxy, gf, sign * c)
                    if gxy != {f: sx * sy * c for f, c in cup(ring, gx, gy).items()}:
                        yield _lifted_witness(ring, n, x, y, tau=g.cycle_string())

    info = {"ring": ring.name, "n": n, "mode": "orbit-local", "seed": seed}
    return run_suite("equivariance", info, found())


def check_graded_commutativity(ring: SurfaceRing, n: int, seed: int = 0) -> CheckReport:
    """x.y = (-1)^(|x||y|) sigma_x(y).x on basis pairs, one joint orbit at a
    time.

    A{S_n} is noncommutative (it contains the group algebra); its basis
    elements commute up to this twist, where x lies over sigma and
    sigma_x(y) is sn_act(sigma, y) with its sign.  The twist gives graded
    commutativity on the invariant model: for S_n-invariant homogeneous
    X = sum c_x x and Y, sigma_x(Y) = Y, so X.Y = sum c_x eps sigma_x(Y).x =
    eps Y.X with eps = (-1)^(|X||Y|).  It is checked on every transitive
    pair (sigma, tau) of S_m, m >= 1 (`_transitive_tuples`), which is exact
    by the move argument of `check_associativity`: <sigma, sigma tau
    sigma^-1> = <sigma, tau>, so both sides have the same joint orbits and
    sigma maps each one to itself; the swap of x past y (sign eps) and
    sigma's move of y's slots are Koszul moves, so both sides read
    M_out o (tensor over B of L_B) o M_in with the same M_in and M_out, and
    L_B is x_B y_B against eps_B sigma_B(y_B) x_B.  So the identity holds
    iff it holds on every joint orbit.  Where both sides vanish it holds,
    so only the pairs with x.y != 0 or sigma_x(y).x != 0 are checked, each
    once (`_commutativity_pairs`): the first from `_nonzero_pairs`, the
    second the sigma^-1 preimages of the nonzero pairs over
    (sigma tau sigma^-1, sigma).  Odd rings are gated by `_require_parity`.

    When the cup product is S_n-equivariant (`cup_equivariant`), one pair
    per class under simultaneous conjugation is solved, the least one
    (`_least_transitive_tuples`), as for associativity.  A t of S_m maps
    the identity at (x, y) to the one at (tx, ty), up to the signs of tx
    and ty: t.(x.y) = (tx).(ty) by equivariance, and t.(sigma_x(y).x) =
    (t sigma_x(y)).(tx) with t sigma_x(y) = (t sigma t^-1)(ty) =
    sigma_(tx)(ty) by the action law; the degrees, so eps, do not move.  So
    conjugate pairs have conjugate violating sets, and either both are
    empty or neither is.  Other rings solve every transitive pair.
    Equivariance cannot be reduced this way: it is what the reduction
    assumes.  `seed` is only echoed.  n past ENUMERATE_LIMIT raises
    ResourceError before any work.
    """
    require_enumerable(n)
    _require_parity(ring, "graded-commutativity")
    tuples = _least_transitive_tuples if cup_equivariant(ring) else _transitive_tuples

    def found():
        for s, t in tuples(n, 1, 2):
            for x, y in _commutativity_pairs(ring, s, t):
                sign, moved = sn_act(ring, x[0], y)
                odd = element_degree(ring, x) % 2 and element_degree(ring, y) % 2
                eps = -sign if odd else sign
                if cup(ring, x, y) != {f: eps * c for f, c in cup(ring, moved, x).items()}:
                    yield _lifted_witness(ring, n, x, y)

    info = {"ring": ring.name, "n": n, "mode": "orbit-local", "seed": seed}
    return run_suite("graded-commutativity", info, found())
