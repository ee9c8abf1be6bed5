"""Permutations of [n] = {1, ..., n}, cycle types, orbits and the graph defect.

One breadth-first walk (`_walk`) finds every orbit partition, and
`joint_orbits` is the one joint-orbit decomposition the package reads.
`transitive_signatures` counts the transitive pairs of S_m by the orbit
numbers of sigma, tau and sigma tau from the characters of S_m, without
listing it.

Composition convention, fixed once for the whole package:

    (sigma * tau)(i) = sigma(tau(i))

i.e. `compose(sigma, tau)` applies tau first.  Orbit partitions are always
presented canonically: each block sorted ascending, blocks ordered by their
minimal element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb, factorial
from types import MappingProxyType
from typing import Mapping

from .errors import InternalInvariantError, ResourceError, UsageError
from .linalg import add_term


class Perm:
    """A permutation of {1, ..., n}, stored as its image sequence."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise UsageError(f"not a permutation of [n]: {images}")
        self.images = images
        self._hash = hash(images)

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, cycles, n: int) -> "Perm":
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            cycle = list(cycle)
            for x in cycle:
                if not 1 <= x <= n:
                    raise UsageError(f"cycle entry {x} outside [{n}]")
                if x in seen:
                    raise UsageError(f"cycles are not disjoint at {x}")
                seen.add(x)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return cls(images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        return f"Perm({self.images})"

    def compose(self, other: "Perm") -> "Perm":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if self.n != other.n:
            raise UsageError("composed permutations must act on the same [n]")
        return Perm(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Perm(inv)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles (including fixed points), canonically ordered."""
        seen: set[int] = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_string(self) -> str:
        """Cycle notation with fixed points suppressed; identity renders `id`."""
        parts = [c for c in self.cycles() if len(c) > 1]
        if not parts:
            return "id"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in parts)


def parse_cycles(text: str, n: int) -> Perm:
    """Parse `(1 2)(3 4 5)` or `id` into a permutation of [n]."""
    text = text.strip()
    if text == "id" or text == "":
        return Perm.identity(n)
    if not text.startswith("("):
        raise UsageError(f"cannot parse cycle notation: {text!r}")
    cycles = []
    rest = text
    while rest:
        rest = rest.strip()
        if not rest.startswith("(") or ")" not in rest:
            raise UsageError(f"cannot parse cycle notation: {text!r}")
        body, rest = rest[1:].split(")", 1)
        entries = body.replace(",", " ").split()
        try:
            cycle = [int(x) for x in entries]
        except ValueError as exc:
            raise UsageError(f"cannot parse cycle notation: {text!r}") from exc
        if len(cycle) < 1:
            raise UsageError(f"empty cycle in {text!r}")
        cycles.append(cycle)
    return Perm.from_cycles(cycles, n)


@dataclass(frozen=True)
class Partition:
    """A partition of n stored by multiplicities: mults[i-1] = number of parts i."""

    mults: tuple[int, ...]

    def __post_init__(self):
        if any(a < 0 for a in self.mults):
            raise UsageError("partition multiplicities must be nonnegative")

    @property
    def n(self) -> int:
        return sum(i * a for i, a in enumerate(self.mults, start=1))

    @property
    def length(self) -> int:
        return sum(self.mults)

    def parts(self) -> tuple[int, ...]:
        out = []
        for i, a in enumerate(self.mults, start=1):
            out.extend([i] * a)
        return tuple(reversed(out))

    def render(self) -> str:
        return (
            "".join(f"{i}^{a}" for i, a in enumerate(self.mults, start=1) if a)
            or "()"
        )


@dataclass(frozen=True)
class OrbitPartition:
    """A set partition of a carrier set, canonically ordered."""

    blocks: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.blocks)

    def refines(self, coarser: "OrbitPartition") -> bool:
        """True if every block of self lies inside a block of `coarser`."""
        location = {}
        for idx, block in enumerate(coarser.blocks):
            for x in block:
                location[x] = idx
        for block in self.blocks:
            targets = {location.get(x) for x in block}
            if len(targets) != 1 or None in targets:
                return False
        return True


def _walk(n: int, images, points=None) -> tuple[tuple[int, ...], ...]:
    """Canonical orbit blocks of the group generated by permutations of [n],
    given by their image sequences, on ascending `points` (all of [n] by
    default) that each of them maps into itself."""
    if points is None:
        points = range(1, n + 1)
    seen = [False] * (n + 1)
    blocks = []
    for start in points:
        if seen[start]:
            continue
        # the points reached from start by the generators; on a finite set a
        # set closed under permutations is closed under their inverses too
        seen[start] = True
        block = [start]
        for x in block:  # block grows while it is scanned
            for p in images:
                y = p[x - 1]
                if not seen[y]:
                    seen[y] = True
                    block.append(y)
        block.sort()
        blocks.append(tuple(block))
    # each block starts at its minimum, so the blocks come ordered by it
    return tuple(blocks)


def orbits(n: int, generators, carrier=None) -> OrbitPartition:
    """Orbit partition of the group generated by `generators` on the carrier.

    The carrier defaults to all of [n]; when a proper subset is given, every
    generator must fix it setwise.
    """
    if carrier is None:
        carrier = range(1, n + 1)
    carrier = sorted(set(carrier))
    if any(not 1 <= x <= n for x in carrier):
        raise UsageError(f"carrier must be a subset of [{n}]")
    generators = list(generators)
    if any(g.n != n for g in generators):
        raise UsageError("generators must act on the same [n]")
    carrier_set = set(carrier)
    for g in generators:
        if any(g.images[x - 1] not in carrier_set for x in carrier):
            raise UsageError(f"generator {g.cycle_string()} does not preserve the carrier")
    return OrbitPartition(_walk(n, [g.images for g in generators], carrier))


def cycle_type(sigma: Perm) -> Partition:
    """The partition 1^{a_1} ... n^{a_n} where a_i counts the i-cycles."""
    mults = [0] * sigma.n
    for cycle in sigma.cycles():
        mults[len(cycle) - 1] += 1
    return Partition(tuple(mults))


def partitions(n: int):
    """All partitions of n as multiplicity tuples (a_1, ..., a_n)."""
    if n == 0:
        yield ()
        return

    def rec(remaining: int, max_part: int, mults: list[int]):
        if remaining == 0:
            yield tuple(mults)
            return
        for part in range(min(max_part, remaining), 0, -1):
            for count in range(remaining // part, 0, -1):
                mults[part - 1] = count
                yield from rec(remaining - part * count, part - 1, mults)
                mults[part - 1] = 0

    yield from rec(n, n, [0] * n)


@lru_cache(maxsize=None)
def _perm_orbit_blocks(images: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The canonical orbit blocks of one permutation, cached by its images."""
    return _walk(len(images), (images,))


def is_least_conjugate(images: tuple[tuple[int, ...], ...]) -> bool:
    """Whether permutations are their own least simultaneous conjugate.

    `images` holds the image sequences of permutations of one [m].  False
    at the first t in S_m whose (t p1 t^-1, t p2 t^-1, ...) is
    lexicographically smaller; each conjugate is built only as far as it
    takes to tell.
    """
    m = len(images[0])
    for t in permutations(range(1, m + 1)):
        for p in images:
            # t p t^-1 sends t(i) to t(p(i))
            moved = [0] * m
            for i, j in enumerate(p):
                moved[t[i] - 1] = t[j - 1]
            moved = tuple(moved)
            if moved != p:
                if moved < p:
                    return False
                break
    return True


def joint_orbits(*images: tuple[int, ...]):
    """The joint orbits of permutations and where each one's orbits lie.

    `images` holds the image sequences of permutations of one [n].  Returns
    (blocks, ranks): the canonical orbit blocks of the group they generate,
    and per block one tuple per permutation of the ranks, in its canonical
    orbit order, of that permutation's orbits inside the block.
    """
    n = len(images[0])
    blocks = _walk(n, images)
    where = [0] * (n + 1)
    for k, block in enumerate(blocks):
        for v in block:
            where[v] = k
    ranks = [[[] for _ in images] for _ in blocks]
    for col, p in enumerate(images):
        for m, b in enumerate(_perm_orbit_blocks(p)):
            ranks[where[b[0]]][col].append(m)
    return blocks, [tuple(map(tuple, row)) for row in ranks]


def pair_orbits(sigma_images: tuple[int, ...], tau_images: tuple[int, ...]):
    """sigma tau and the joint orbits of (sigma, tau, sigma tau).

    Returns (st, blocks, ranks): the image sequence of sigma tau, applying
    tau first, and `joint_orbits` of the three permutations.
    """
    st = tuple(sigma_images[j - 1] for j in tau_images)
    return (st, *joint_orbits(sigma_images, tau_images, st))


def joint_signatures(
    sigma: Perm, tau: Perm
) -> tuple[tuple[tuple[int, ...], ...], list[tuple[int, int, int, int]]]:
    """The joint orbits of <sigma, tau> and the signature of each.

    Returns (blocks, signatures): the canonical orbit blocks of the group
    generated by sigma and tau, and per block the tuple (m, a, b, m_res) of
    its size and the numbers of orbits of sigma, tau and sigma tau on it.
    """
    _, blocks, ranks = pair_orbits(sigma.images, tau.images)
    return blocks, [(len(b), *map(len, r)) for b, r in zip(blocks, ranks)]


def signature_defect(m: int, a: int, b: int, m_res: int) -> int:
    """The graph defect g = (m + 2 - a - b - m_res) / 2 of one joint orbit.

    m is the orbit's size and a, b, m_res count the orbits of sigma, tau and
    sigma tau on it.  The value is a nonnegative integer; a half-integer or
    negative value would contradict the underlying combinatorics and aborts.
    """
    twice = m + 2 - a - b - m_res
    if twice < 0 or twice % 2 != 0:
        raise InternalInvariantError(
            f"graph defect {twice}/2 on a joint orbit with signature {(m, a, b, m_res)}"
        )
    return twice // 2


@lru_cache(maxsize=None)
def _pair_counts(m: int) -> dict[tuple[int, int, int], int]:
    """{(a, b, c): number of pairs (sigma, tau) of S_m whose sigma, tau and
    sigma tau have a, b and c cycles}, for m >= 1.

    The class sum of x^(number of cycles) over S_m is the product of the
    x + J_i over the Jucys-Murphy elements J_i, so it acts on the irreducible
    V_lambda as the scalar C_lambda(x), the product of x + content over the
    cells of lambda (Jucys 1974; Okounkov-Vershik, Selecta Math. 2 (1996)).
    The triples with sigma tau rho = id, counted by the cycles of each, are
    the identity coefficient of the product of three such sums, and rho has
    the cycles of (sigma tau)^-1, so by Frobenius

        P_m(x, y, z) = (1/m!) sum over lambda |- m of
                       (f^lambda)^2 C_lambda(x) C_lambda(y) C_lambda(z),

    with f^lambda by the hook-length formula.
    """
    totals: dict[tuple[int, int, int], int] = {}
    for mults in partitions(m):
        rows = Partition(mults).parts()
        cols = [sum(1 for r in rows if r > j) for j in range(rows[0])]
        cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]
        hooks = 1
        content = [1]  # coefficients of C_lambda, lowest degree first
        for i, j in cells:
            hooks *= rows[i] - j + cols[j] - i - 1
            content = [
                (content[d - 1] if d else 0) + (j - i) * (content[d] if d < len(content) else 0)
                for d in range(len(content) + 1)
            ]
        weight = (factorial(m) // hooks) ** 2
        terms = [(d, c) for d, c in enumerate(content) if c]
        for a, ca in terms:
            for b, cb in terms:
                for c, cc in terms:
                    add_term(totals, (a, b, c), weight * ca * cb * cc)
    return {key: total // factorial(m) for key, total in totals.items()}


@lru_cache(maxsize=None)
def transitive_signatures(m: int) -> Mapping[tuple[int, int, int], int]:
    """{(a, b, m_res): number of transitive pairs (sigma, tau) of S_m whose
    sigma, tau and sigma tau have a, b and m_res orbits}, for m >= 1, in
    exact ints; the keys are the orbit signatures (m, a, b, m_res) that
    occur on a joint orbit of m points.

    Cycle numbers add over the joint orbits of a pair, and the joint orbit
    of the point 1 has some size j and C(m - 1, j - 1) choices of its other
    points, so by the exponential formula (Stanley, EC2 Ch. 5) the pair
    counts `_pair_counts` satisfy P_m = sum over j of C(m-1, j-1) T_j P_(m-j),
    which leaves the transitive counts

        T_m = P_m - sum over 1 <= j < m of C(m-1, j-1) T_j P_(m-j).
    """
    if m < 1:
        raise UsageError("a transitive pair needs m >= 1 points")
    counts = dict(_pair_counts(m))
    for j in range(1, m):
        weight = comb(m - 1, j - 1)
        rest = _pair_counts(m - j)
        for (a, b, c), t in transitive_signatures(j).items():
            for (a2, b2, c2), p in rest.items():
                add_term(counts, (a + a2, b + b2, c + c2), -weight * t * p)
    return MappingProxyType(counts)


def graph_defect(sigma: Perm, tau: Perm) -> dict[tuple[int, ...], int]:
    """The graph defect of a pair of permutations, one value per joint orbit.

    For each orbit E of the group generated by sigma and tau,

        g(E) = (|E| + 2 - |<sigma>\\E| - |<tau>\\E| - |<sigma tau>\\E|) / 2

    (signature_defect of the orbit's signature).
    """
    if sigma.n != tau.n:
        raise UsageError("graph defect needs permutations of the same [n]")
    blocks, signatures = joint_signatures(sigma, tau)
    return {block: signature_defect(*sig) for block, sig in zip(blocks, signatures)}


def class_representatives(n: int) -> list[Perm]:
    """One permutation per cycle type, the lexicographically least element of
    its conjugacy class, in increasing order.

    The least permutation of a cycle type has its cycles in ascending length
    on consecutive points, each cycle being (k k+1 ... k+l-1): position by
    position it takes the smallest image the remaining cycles allow.  It is
    built from `partitions(n)`, without listing S_n.
    """
    reps = []
    for mults in partitions(n):
        images: list[int] = []
        for length, count in enumerate(mults, start=1):
            for _ in range(count):
                k = len(images) + 1
                images.extend(range(k + 1, k + length))
                images.append(k)
        reps.append(Perm(images))
    return sorted(reps)


# the largest n whose symmetric group enumerate_sn lists
ENUMERATE_LIMIT = 8


def require_enumerable(n: int) -> None:
    """UsageError for a negative n; ResourceError past ENUMERATE_LIMIT."""
    if n < 0:
        raise UsageError("n must be nonnegative")
    if n > ENUMERATE_LIMIT:
        raise ResourceError(
            f"refusing to enumerate S_{n} (limit {ENUMERATE_LIMIT}); {factorial(n)} elements"
        )


def enumerate_sn(n: int):
    """All n! permutations, lexicographic in image sequences; id comes first."""
    require_enumerable(n)
    for images in permutations(range(1, n + 1)):
        yield Perm(images)
