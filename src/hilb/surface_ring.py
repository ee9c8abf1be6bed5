"""Finite graded-commutative surface algebras with perversity data.

A SurfaceRing is the input datum for everything downstream: a finite basis
with a degree in {0,...,4} and a perversity in {0,1,2} per element, exact
rational structure constants, an Euler class, and either a nondegenerate
Poincare pairing (compact mode) or an explicit table for the Gysin
pushforward along the diagonal (open mode).

Classes of the ring are sparse vectors `dict[int, Fraction]` over basis
indices; classes of m-fold tensor powers are `dict[tuple[int, ...], Fraction]`
over index tuples.  Tensor factors of odd degree obey Koszul signs: a move
of homogeneous factors, the factor in slot i going to slot dst[i], has sign

    (-1) ** #{ i < j : dst[i] > dst[j] and deg_i, deg_j both odd },

read off the move's `inverted_pairs` by `koszul_sign`, the one sign rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Mapping, Sequence

from . import linalg
from .linalg import add_term
from .errors import DataError, ModeError, UsageError
from .report import CheckReport

Vec = dict[int, Fraction]
Tensor = dict[tuple[int, ...], Fraction]

PRESET_NAMES = ("a0", "d4", "e6", "e7", "e8", "k3", "abelian")


def norm_coeff(value):
    """Exact coefficient, as a plain int when integral (much faster arithmetic).

    ints and Fractions mix exactly under +, * and ==, so representing the
    (very common) integer coefficients as machine/long ints keeps every
    computation exact while avoiding Fraction normalization overhead.
    """
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value

_DYNKIN_K = {"d4": 4, "e6": 6, "e7": 7, "e8": 8}


class SurfaceRing:
    """Finite graded-commutative algebra with bigraded basis.

    The constructor performs shape checks only; mathematical axioms
    (graded commutativity, associativity, degree additivity, perversity
    multiplicativity, pairing consistency) are the business of `validate`,
    which reports violations instead of raising, so deliberately broken
    rings can be built for testing.
    """

    def __init__(
        self,
        name: str,
        mode: str,
        names: Iterable[str],
        degrees: Iterable[int],
        perversities: Iterable[int],
        unit: int,
        mul: Mapping[tuple[int, int], Vec],
        pairing: list[list[Fraction]] | None = None,
        euler: Vec | None = None,
        diag2: Mapping[int, Tensor] | None = None,
    ):
        if mode not in ("compact", "open"):
            raise UsageError(f"mode must be compact or open, got {mode!r}")
        # the ring document splits lines at whitespace and `=`, and sums at `+`
        if any(ch.isspace() or ch == "=" for ch in name):
            raise UsageError(f"ring name {name!r} invalid: no whitespace, no '='")
        self.name = name
        self.mode = mode
        self.names = tuple(names)
        self.degrees = tuple(int(d) for d in degrees)
        # decided once: a ring with only even classes has no Koszul signs
        self.has_odd = any(d % 2 for d in self.degrees)
        self.perversities = tuple(int(p) for p in perversities)
        k = len(self.names)
        if len(set(self.names)) != k:
            raise UsageError("basis names must be distinct")
        # basis names are also joined at `x` in diag2 entries, and `hilb mul`'s
        # element spec splits at `,`, `;` and `@`
        for nm in self.names:
            if not nm or any(ch.isspace() or ch in "x+=,;@" for ch in nm):
                raise UsageError(
                    f"basis name {nm!r} invalid: no whitespace, "
                    "no 'x', '+', '=', ',', ';' or '@'"
                )
        if not (len(self.degrees) == len(self.perversities) == k):
            raise UsageError("names/degrees/perversities length mismatch")
        if not 0 <= unit < k:
            raise UsageError("unit index out of range")
        self.unit = unit
        table: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
        for (i, j), vec in mul.items():
            if not (0 <= i < k and 0 <= j < k):
                raise UsageError(f"mul index {(i, j)} out of range")
            entries = tuple(
                sorted((idx, norm_coeff(c)) for idx, c in vec.items() if c)
            )
            if entries:
                table[(i, j)] = entries
        self._mul = table
        if pairing is not None:
            if len(pairing) != k or any(len(row) != k for row in pairing):
                raise UsageError("pairing matrix must be square over the basis")
            self.pairing = [[norm_coeff(x) for x in row] for row in pairing]
        else:
            self.pairing = None
        self.euler: Vec = {i: norm_coeff(c) for i, c in (euler or {}).items() if c}
        if diag2 is not None:
            self.diag2: dict[int, Tensor] | None = {
                g: {pair: norm_coeff(c) for pair, c in tensor.items() if c}
                for g, tensor in diag2.items()
            }
        else:
            self.diag2 = None
        self._diag_cache: dict[tuple[int, int], Tensor] = {}
        self._dual_rows: list[Vec] | None = None
        self._caches: dict[str, dict] = {}
        self.intern = ProductIntern(self)

    # -- basic queries ---------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def is_compact(self) -> bool:
        return self.mode == "compact"

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UsageError(f"unknown basis element {name!r} in ring {self.name}")

    def mul_basis(self, i: int, j: int) -> tuple[tuple[int, Fraction], ...]:
        return self._mul.get((i, j), ())

    def mul_class(self, u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        mul = self._mul
        for i, ci in u.items():
            for j, cj in v.items():
                entries = mul.get((i, j))
                if not entries:
                    continue
                c = ci * cj
                for k, ck in entries:
                    add_term(out, k, c * ck)
        return out

    def top_index(self) -> int:
        """The unique degree-4 basis element of a compact ring."""
        tops = [i for i, d in enumerate(self.degrees) if d == 4]
        if len(tops) != 1:
            raise DataError(
                f"compact ring {self.name} needs exactly one degree-4 class, found {len(tops)}"
            )
        return tops[0]

    def pairing_eval(self, x: Vec, y: Vec) -> Fraction:
        if self.pairing is None:
            raise ModeError(f"ring {self.name} carries no pairing (open mode)")
        total = 0
        for i, ci in x.items():
            row = self.pairing[i]
            for j, cj in y.items():
                total += ci * cj * row[j]
        return Fraction(total)

    def dual_rows(self) -> list[Vec]:
        """Rows alpha_i with <alpha_i, b_j> = delta_ij (Poincare-dual basis)."""
        if self._dual_rows is None:
            if self.pairing is None:
                raise ModeError(f"ring {self.name} carries no pairing (open mode)")
            try:
                inv = linalg.inverse(self.pairing)
            except ValueError:
                raise DataError(
                    f"ring {self.name} fails pairing-nondegenerate: its pairing is singular"
                ) from None
            self._dual_rows = [{j: c for j, c in enumerate(row) if c} for row in inv]
        return self._dual_rows

    def render_class(self, vec: Vec) -> str:
        if not vec:
            return "0"
        parts = []
        for i in sorted(vec):
            c = vec[i]
            parts.append(self.names[i] if c == 1 else f"{c}*{self.names[i]}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SurfaceRing({self.name!r}, mode={self.mode!r}, size={self.size})"


# -- Koszul helpers -------------------------------------------------------


def inverted_pairs(dst: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The slot pairs i < j that the move sending slot i to dst[i] inverts."""
    k = len(dst)
    return tuple((i, j) for i in range(k) for j in range(i + 1, k) if dst[i] > dst[j])


def koszul_sign(degrees: Sequence[int], factors: Sequence[int], inverted) -> int:
    """Koszul sign of a move of the basis factors `factors` (slot i holds one
    of degree degrees[factors[i]]), given the move's inverted slot pairs:
    -1 for each inverted pair of odd factors."""
    sign = 1
    for i, j in inverted:
        if degrees[factors[i]] % 2 and degrees[factors[j]] % 2:
            sign = -sign
    return sign


# -- validation -----------------------------------------------------------


def validate(ring: SurfaceRing) -> CheckReport:
    """Run every SurfaceRing axiom; violations become witnesses, not errors."""
    witnesses: list[dict] = []
    k = ring.size
    names = ring.names

    def w(axiom: str, **kwargs) -> None:
        witnesses.append({"axiom": axiom, **{k2: str(v) for k2, v in kwargs.items()}})

    for i in range(k):
        if not 0 <= ring.degrees[i] <= 4:
            w("degree-range", element=names[i], degree=ring.degrees[i])
        if not 0 <= ring.perversities[i] <= 2:
            w("perversity-range", element=names[i], perversity=ring.perversities[i])

    for i in range(k):
        if dict(ring.mul_basis(ring.unit, i)) != {i: Fraction(1)}:
            w("unit-left", element=names[i])
        if dict(ring.mul_basis(i, ring.unit)) != {i: Fraction(1)}:
            w("unit-right", element=names[i])

    for i in range(k):
        for j in range(k):
            lhs = dict(ring.mul_basis(i, j))
            sign = -1 if (ring.degrees[i] % 2 and ring.degrees[j] % 2) else 1
            rhs = {idx: sign * c for idx, c in ring.mul_basis(j, i)}
            if lhs != rhs:
                w("graded-commutativity", left=names[i], right=names[j])
            for idx, c in lhs.items():
                if ring.degrees[idx] != ring.degrees[i] + ring.degrees[j]:
                    w(
                        "degree-additivity",
                        left=names[i],
                        right=names[j],
                        term=names[idx],
                    )
                if ring.perversities[idx] > ring.perversities[i] + ring.perversities[j]:
                    w(
                        "perversity-multiplicativity",
                        left=names[i],
                        right=names[j],
                        term=names[idx],
                        perversity=ring.perversities[idx],
                        bound=ring.perversities[i] + ring.perversities[j],
                    )

    for i in range(k):
        for j in range(k):
            for l in range(k):
                left = ring.mul_class(dict(ring.mul_basis(i, j)), {l: Fraction(1)})
                right = ring.mul_class({i: Fraction(1)}, dict(ring.mul_basis(j, l)))
                if left != right:
                    w("associativity", triple=f"{names[i]},{names[j]},{names[l]}")

    has_pairing = ring.pairing is not None
    has_diag2 = ring.diag2 is not None
    if ring.is_compact and (not has_pairing or has_diag2):
        w("mode", detail="compact ring must carry a pairing and no diag2 table")
    if not ring.is_compact and (has_pairing or not has_diag2):
        w("mode", detail="open ring must carry a diag2 table and no pairing")
    nondegenerate = has_pairing and linalg.det(ring.pairing) != 0

    # Delta_2 must be Koszul-symmetric and coassociative, so that the iterated
    # pushforward Delta_m is symmetric in its m slots (the cup product's
    # S_n-equivariance rests on this), and must preserve parity (the
    # orbit-local associativity check on odd rings rests on this); skipped
    # where Delta_2 is undefined, which the mode and pairing axioms report
    if nondegenerate if ring.is_compact else has_diag2:
        degs = ring.degrees
        for g in range(k):
            push = _diag_push_basis(ring, 2, g)
            if any((degs[a] + degs[b] - degs[g]) % 2 for a, b in push):
                w("diagonal-parity", element=names[g])
            swapped = {
                (b, a): koszul_sign(degs, (a, b), ((0, 1),)) * c for (a, b), c in push.items()
            }
            if swapped != push:
                w("diagonal-symmetry", element=names[g])
            right: Tensor = {}
            for (a, b), c in push.items():
                for (b1, b2), c2 in _diag_push_basis(ring, 2, b).items():
                    add_term(right, (a, b1, b2), c * c2)
            if _diag_push_basis(ring, 3, g) != right:
                w("diagonal-coassociativity", element=names[g])

    if ring.is_compact and has_pairing:
        tops = [i for i, d in enumerate(ring.degrees) if d == 4]
        if len(tops) != 1:
            w("top-class", count=len(tops))
        else:
            top = tops[0]
            for i in range(k):
                for j in range(k):
                    expected = dict(ring.mul_basis(i, j)).get(top, Fraction(0))
                    if ring.pairing[i][j] != expected:
                        w(
                            "pairing-consistency",
                            left=names[i],
                            right=names[j],
                            pairing=ring.pairing[i][j],
                            product_top_coefficient=expected,
                        )
                    if ring.pairing[i][j] != 0 and ring.degrees[i] + ring.degrees[j] != 4:
                        w("pairing-degree", left=names[i], right=names[j])
        if not nondegenerate:
            w("pairing-nondegenerate", determinant=0)

    for i, c in ring.euler.items():
        if ring.degrees[i] != 4:
            w("euler-degree", term=names[i], degree=ring.degrees[i])

    witnesses.sort(key=lambda d: sorted(d.items()).__repr__())
    return CheckReport(
        suite="ring-validate",
        passed=not witnesses,
        witnesses=witnesses,
        info={"ring": ring.name, "basis_size": k},
    )


# -- presets ---------------------------------------------------------------


def _e8_root_rows() -> list[list[Fraction]]:
    """Simple roots of E8 in the even coordinate model of R^8 (rows).

    The Gram matrix of these eight rational vectors under the standard dot
    product is the E8 Cartan matrix, and they form a Z-basis of the E8
    lattice; inverting the coordinate matrix therefore produces an exact
    rational orthonormalization of the Cartan form.
    """
    half = Fraction(1, 2)
    rows = [
        [half, -half, -half, -half, -half, -half, -half, half],
        [Fraction(x) for x in (1, 1, 0, 0, 0, 0, 0, 0)],
    ]
    for i in range(6):
        row = [Fraction(0)] * 8
        row[i] = Fraction(-1)
        row[i + 1] = Fraction(1)
        rows.append(row)
    return rows


def e8_cartan() -> list[list[Fraction]]:
    b = _e8_root_rows()
    return linalg.matmul(b, linalg.transpose(b))


def _e8_orthonormalizer() -> list[list[Fraction]]:
    """T with T^t C T = I for C the E8 Gram matrix above (columns = new vectors)."""
    b = _e8_root_rows()
    return linalg.inverse(linalg.transpose(b))


def _preset_a0() -> SurfaceRing:
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
        (2, 1): {3: -one},
    }
    return SurfaceRing(
        name="a0",
        mode="open",
        names=("1", "a", "b", "w"),
        degrees=(0, 1, 1, 2),
        perversities=(0, 1, 1, 2),
        unit=0,
        mul=mul,
        diag2={},
        euler={},
    )


def _preset_dynkin(name: str) -> SurfaceRing:
    k = _DYNKIN_K[name]
    one = Fraction(1)
    names = ("1",) + tuple(f"E{i}" for i in range(1, k + 1)) + ("S",)
    size = k + 2
    mul: dict[tuple[int, int], Vec] = {}
    for i in range(size):
        mul[(0, i)] = {i: one}
        mul[(i, 0)] = {i: one}
    mul[(0, 0)] = {0: one}
    diag2 = {0: {(i, i): -one for i in range(1, k + 1)}}
    return SurfaceRing(
        name=name,
        mode="open",
        names=names,
        degrees=(0,) + (2,) * (k + 1),
        perversities=(0,) + (1,) * k + (2,),
        unit=0,
        mul=mul,
        diag2=diag2,
        euler={},
    )


def _preset_k3() -> SurfaceRing:
    one = Fraction(1)
    names = ("1", "f", "s") + tuple(f"m{i}" for i in range(1, 21)) + ("pt",)
    degrees = (0, 2, 2) + (2,) * 20 + (4,)
    perversities = (0, 0, 2) + (1,) * 20 + (2,)
    size = 24
    top = 23
    # Gram matrix of H^2 in basis f, s, m1..m20: the section pairs the fiber,
    # the middle block is two negated E8 Gram matrices plus two hyperbolic planes.
    gram = [[Fraction(0)] * 22 for _ in range(22)]
    gram[0][1] = gram[1][0] = one
    gram[1][1] = Fraction(-2)
    cartan = e8_cartan()
    for copy in range(2):
        base = 2 + 8 * copy
        for i in range(8):
            for j in range(8):
                gram[base + i][base + j] = -cartan[i][j]
    for base in (18, 20):
        gram[base][base + 1] = gram[base + 1][base] = one
    mul: dict[tuple[int, int], Vec] = {}
    for i in range(size):
        mul[(0, i)] = {i: one}
        mul[(i, 0)] = {i: one}
    mul[(0, 0)] = {0: one}
    for i in range(22):
        for j in range(22):
            if gram[i][j]:
                mul[(1 + i, 1 + j)] = {top: gram[i][j]}
    pairing = [[Fraction(0)] * size for _ in range(size)]
    pairing[0][top] = pairing[top][0] = one
    for i in range(22):
        for j in range(22):
            pairing[1 + i][1 + j] = gram[i][j]
    return SurfaceRing(
        name="k3",
        mode="compact",
        names=names,
        degrees=degrees,
        perversities=perversities,
        unit=0,
        mul=mul,
        pairing=pairing,
        euler={top: Fraction(24)},
    )


def _preset_abelian() -> SurfaceRing:
    """Exterior algebra on a1, a2 (perversity 0) and b1, b2 (perversity 1).

    A basis element is a subset of the four odd generators taken in the fixed
    order a1 < a2 < b1 < b2; the product of disjoint subsets carries the
    Koszul sign of merging the two sorted sequences.
    """
    gens = ("a1", "a2", "b1", "b2")
    subsets: list[tuple[int, ...]] = []
    for mask in range(16):
        subsets.append(tuple(i for i in range(4) if mask >> i & 1))
    subsets.sort(key=lambda s: (len(s), s))
    names = tuple("".join(gens[i] for i in s) if s else "1" for s in subsets)
    degrees = tuple(len(s) for s in subsets)
    perversities = tuple(sum(1 for i in s if i >= 2) for s in subsets)
    index_of = {s: i for i, s in enumerate(subsets)}

    def merge_sign(s: tuple[int, ...], t: tuple[int, ...]) -> int:
        # the move of the odd generators of s + t to their sorted order
        return koszul_sign((1,) * 4, s + t, inverted_pairs(s + t))

    one = Fraction(1)
    mul: dict[tuple[int, int], Vec] = {}
    for si, s in enumerate(subsets):
        for ti, t in enumerate(subsets):
            if set(s) & set(t):
                continue
            merged = tuple(sorted(s + t))
            mul[(si, ti)] = {index_of[merged]: Fraction(merge_sign(s, t))}
    size = 16
    top = index_of[(0, 1, 2, 3)]
    pairing = [[Fraction(0)] * size for _ in range(size)]
    for si in range(size):
        for ti in range(size):
            pairing[si][ti] = mul.get((si, ti), {}).get(top, Fraction(0))
    return SurfaceRing(
        name="abelian",
        mode="compact",
        names=names,
        degrees=degrees,
        perversities=perversities,
        unit=0,
        mul=mul,
        pairing=pairing,
        euler={},
    )


_PRESET_BUILDERS = {
    "a0": _preset_a0,
    "d4": lambda: _preset_dynkin("d4"),
    "e6": lambda: _preset_dynkin("e6"),
    "e7": lambda: _preset_dynkin("e7"),
    "e8": lambda: _preset_dynkin("e8"),
    "k3": _preset_k3,
    "abelian": _preset_abelian,
}

_PRESET_CACHE: dict[str, SurfaceRing] = {}


def preset(name: str) -> SurfaceRing:
    """One of the named rings: a0 | d4 | e6 | e7 | e8 | k3 | abelian."""
    if name not in _PRESET_BUILDERS:
        raise UsageError(f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}")
    if name not in _PRESET_CACHE:
        _PRESET_CACHE[name] = _PRESET_BUILDERS[name]()
    return _PRESET_CACHE[name]


# -- serialization ----------------------------------------------------------

# A ring document is one line per datum: `<kind> <names> = <value>`, or
# `<kind> <names> <value>` for the kinds in _NO_EQUALS.  The table gives the
# number of basis names of each kind; `(kind, *names)` keys the line, and no
# key may occur twice.
_LINE_NAMES = {"ring": 0, "basis": 1, "unit": 0, "mul": 2, "pairing": 2, "diag2": 1, "euler": 0}
_NO_EQUALS = ("ring", "basis", "unit")


def _render_terms(terms: Mapping, name_of) -> str:
    return " + ".join(f"{terms[key]}*{name_of(key)}" for key in sorted(terms))


def save_ring(ring: SurfaceRing) -> str:
    lines = [f"ring name={ring.name} mode={ring.mode}"]
    for nm, d, p in zip(ring.names, ring.degrees, ring.perversities):
        lines.append(f"basis {nm} degree={d} perversity={p}")
    lines.append(f"unit {ring.names[ring.unit]}")
    for i in range(ring.size):
        for j in range(ring.size):
            entries = ring.mul_basis(i, j)
            if entries:
                lines.append(
                    f"mul {ring.names[i]} {ring.names[j]} = "
                    + _render_terms(dict(entries), ring.names.__getitem__)
                )
    if ring.pairing is not None:
        for i in range(ring.size):
            for j in range(ring.size):
                if ring.pairing[i][j]:
                    lines.append(
                        f"pairing {ring.names[i]} {ring.names[j]} = {ring.pairing[i][j]}"
                    )
    if ring.diag2 is not None:
        for g in sorted(ring.diag2):
            if ring.diag2[g]:
                lines.append(
                    f"diag2 {ring.names[g]} = "
                    + _render_terms(ring.diag2[g], lambda key: "x".join(ring.names[i] for i in key))
                )
    lines.append(f"euler = {_render_terms(ring.euler, ring.names.__getitem__)}".rstrip())
    return "\n".join(lines) + "\n"


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed rational {text.strip()!r}") from None


def _parse_terms(text: str, key_of) -> dict:
    """`<coeff>*<name> [+ ...]`, empty for zero; `key_of` resolves a name and
    the coefficients of a repeated name add up."""
    out: dict = {}
    for term in text.split("+") if text.strip() else ():
        coeff, star, name = term.partition("*")
        if not star:
            raise UsageError(f"malformed term {term.strip()!r}; expected <coeff>*<name>")
        key = key_of(name.strip())
        out[key] = out.get(key, 0) + _rational(coeff)
    return {key: c for key, c in out.items() if c}


def _fields(text: str, keys: tuple[str, ...]) -> list[str]:
    """The values of `<key>=<value>` tokens that give each key once, in key order."""
    parts = text.split()
    fields = dict(part.split("=", 1) for part in parts if "=" in part)
    if len(fields) != len(parts) or set(fields) != set(keys):
        raise UsageError("expected " + " ".join(f"{key}=..." for key in keys))
    return [fields[key] for key in keys]


def _split_lines(text: str) -> dict[tuple[str, ...], tuple[str, str]]:
    """Map the key `(kind, *names)` of each line to (where, value), where
    `where` names the line for error messages."""
    lines: dict[tuple[str, ...], tuple[str, str]] = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"line {number} {line!r}"
        kind, _, rest = line.partition(" ")
        count = _LINE_NAMES.get(kind)
        if count is None:
            raise UsageError(f"{where}: unknown line kind {kind!r}")
        if kind in _NO_EQUALS:
            parts = rest.split(None, count)
            names, value = parts[:count], "".join(parts[count:])
        else:
            left, equals, value = rest.partition("=")
            names = left.split() if equals else None
        if names is None or len(names) != count:
            form = " <name>" * count + ("" if kind in _NO_EQUALS else " = ...")
            raise UsageError(f"{where}: expected `{kind}{form}`")
        key = (kind, *names)
        if key in lines:
            raise UsageError(f"{where}: a second `{' '.join(key)}` line")
        lines[key] = (where, value)
    return lines


def load_ring(text: str) -> SurfaceRing:
    """Parse and validate a ring document; any axiom violation rejects it.

    The per-element perversities must describe a filtered basis (the span of
    the elements with perversity <= p realizes the p-th filtration step);
    downstream perversity bookkeeping is defined through basis support and no
    change-of-basis search is attempted.
    """
    lines = _split_lines(text)
    names = [key[1] for key in lines if key[0] == "basis"]
    index_of = {nm: i for i, nm in enumerate(names)}

    def index(name: str) -> int:
        if name not in index_of:
            raise UsageError(f"unknown basis element {name!r}")
        return index_of[name]

    def tensor_index(name: str) -> tuple[int, ...]:
        pair = name.split("x")
        if len(pair) != 2:
            raise UsageError(f"tensor term {name!r} is not <a>x<b>")
        return tuple(map(index, pair))

    read_value = {
        "ring": lambda value: _fields(value, ("name", "mode")),
        "basis": lambda value: [int(v) for v in _fields(value, ("degree", "perversity"))],
        "unit": index,
        "mul": lambda value: _parse_terms(value, index),
        "pairing": _rational,
        "diag2": lambda value: _parse_terms(value, tensor_index),
        "euler": lambda value: _parse_terms(value, index),
    }
    data: dict[str, dict] = {kind: {} for kind in _LINE_NAMES}
    for (kind, *key_names), (where, value) in lines.items():
        try:
            data[kind][tuple(map(index, key_names))] = read_value[kind](value)
        except (UsageError, ValueError) as exc:  # int() raises ValueError
            raise UsageError(f"{where}: {exc}") from None
    if not data["ring"]:
        raise UsageError("missing `ring name=... mode=...` header")
    if not data["unit"]:
        raise UsageError("missing `unit <name>` line")
    name, mode = data["ring"][()]
    pairing = None
    if mode == "compact" or data["pairing"]:
        pairing = [[Fraction(0)] * len(names) for _ in names]
        for (i, j), c in data["pairing"].items():
            pairing[i][j] = c
    diag2 = None
    if mode == "open" or data["diag2"]:
        diag2 = {g: tensor for (g,), tensor in data["diag2"].items()}
    ring = SurfaceRing(
        name=name,
        mode=mode,
        names=names,
        degrees=[d for d, _ in data["basis"].values()],
        perversities=[p for _, p in data["basis"].values()],
        unit=data["unit"][()],
        mul=data["mul"],
        pairing=pairing,
        euler=data["euler"].get((), {}),
        diag2=diag2,
    )
    report = validate(ring)
    if not report.passed:
        raise DataError(
            "ring document failed validation:\n" + report.render_text()
        )
    return ring


# -- diagonal pushforward ----------------------------------------------------


def diagonal_push(ring: SurfaceRing, m: int, gamma: Vec | int) -> Tensor:
    """Gysin pushforward of gamma along the small diagonal into m tensor slots.

    m = 1 returns gamma itself.  In compact mode m = 2 is the dual-basis
    formula

        Delta_2(gamma) = sum_i (-1)^deg(b_i) alpha_i (x) (b_i . gamma)

    with {alpha_i} Poincare-dual to the basis {b_i}; the sign makes the
    adjunction  <Delta_2(gamma), x (x) y> = <gamma, x.y>  hold with the Koszul
    convention on the tensor-square pairing.  In open mode m = 2 comes from
    the ring's diag2 table, extended linearly.  Higher m iterates the m = 2
    map on the first tensor slot; the degree shift of Delta_2 is even, so the
    iteration inserts no signs.
    """
    if m < 1:
        raise UsageError("diagonal_push needs m >= 1")
    if isinstance(gamma, int):
        gamma = {gamma: 1}
    gamma = {i: c for i, c in gamma.items() if c}
    if m == 1:
        return dict(((i,), c) for i, c in gamma.items())
    out: Tensor = {}
    for g, coeff in gamma.items():
        for key, c in _diag_push_basis(ring, m, g).items():
            add_term(out, key, coeff * c)
    return out


def _diag_push_basis(ring: SurfaceRing, m: int, g: int) -> Tensor:
    cached = ring._diag_cache.get((m, g))
    if cached is not None:
        return cached
    if m == 2:
        out: Tensor = {}
        if ring.is_compact:
            duals = ring.dual_rows()
            for i in range(ring.size):
                sign = -1 if ring.degrees[i] % 2 else 1
                prod = ring.mul_class({i: 1}, {g: 1})
                if not prod:
                    continue
                for a, ca in duals[i].items():
                    for b, cb in prod.items():
                        add_term(out, (a, b), sign * ca * cb)
        else:
            if ring.diag2 is None:
                raise ModeError(f"open ring {ring.name} carries no diag2 table")
            out = dict(ring.diag2.get(g, {}))
    else:
        out = {}
        for key, c in _diag_push_basis(ring, m - 1, g).items():
            head = _diag_push_basis(ring, 2, key[0])
            for (a, b), c2 in head.items():
                add_term(out, (a, b) + key[1:], c * c2)
    ring._diag_cache[(m, g)] = out
    return out


def euler_vanishes(g: int) -> bool:
    """e^g = 0 for g >= 2: e sits in top degree."""
    return g >= 2


def local_push(ring: SurfaceRing, prod: Vec, g: int, m: int) -> Tensor:
    """prod times e^g, for the graph defect g of one joint orbit, pushed
    along the small diagonal into the m orbits of sigma tau on it."""
    if euler_vanishes(g):
        return {}
    if g == 1:
        prod = ring.mul_class(prod, ring.euler)
    if not prod:
        return {}
    return diagonal_push(ring, m, prod)


class ProductIntern:
    """The nonzero classes of one ring under int ids, with their products
    and pushes memoized by id.

    `id_of` gives each distinct nonzero vector an id, keyed by its items:
    the one place a class is keyed so, exact because no vector stores a zero
    (`linalg.add_term`).  `mul` memoizes the product of two ids, and
    `push_top` the top perversity of `local_push` of an id per (g, m), so
    every local search that meets the same merged product shares them.
    """

    __slots__ = ("ring", "vecs", "_ids", "_products", "_tops")

    def __init__(self, ring: SurfaceRing):
        self.ring = ring
        self.vecs: list[Vec] = []  # id -> its vector
        self._ids: dict[frozenset, int] = {}
        self._products: dict[tuple[int, int], int | None] = {}
        self._tops: dict[tuple[int, int, int], int | None] = {}

    def id_of(self, vec: Vec) -> int | None:
        """The id of vec, or None when it is zero."""
        if not vec:
            return None
        key = frozenset(vec.items())
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.vecs)
            self.vecs.append(vec)
        return i

    def mul(self, i: int, j: int) -> int | None:
        """The id of the product of classes i and j, None when it is zero."""
        key = (i, j)
        if key in self._products:
            return self._products[key]
        prod = self._products[key] = self.id_of(self.ring.mul_class(self.vecs[i], self.vecs[j]))
        return prod

    def push_top(self, i: int, g: int, m: int) -> int | None:
        """The largest perversity sum of a term of local_push of class i with
        graph defect g into m slots, None when that push is zero."""
        key = (i, g, m)
        if key in self._tops:
            return self._tops[key]
        perv = self.ring.perversities
        split = local_push(self.ring, self.vecs[i], g, m)
        top = self._tops[key] = max((sum(perv[f] for f in k) for k in split), default=None)
        return top


# -- filtered basis (signed orthonormal) --------------------------------------


@dataclass(frozen=True)
class FilteredBasisEntry:
    perversity: int
    degree: int
    vector: tuple[tuple[int, Fraction], ...]

    def as_vec(self) -> Vec:
        return dict(self.vector)


@dataclass(frozen=True)
class FilteredBasis:
    """Basis adapted to the perverse filtration, signed orthonormal.

    Entries are grouped by (perversity, degree) blocks in lexicographic
    order.  For complementary blocks A before B (deg_A + deg_B = 4 and
    perv_A + perv_B = 2) the pairing of matched entries, evaluated in the
    order (A, B), is +1; the middle block (perversity 1, degree 2) pairs
    diagonally with signs recorded in middle_signs; every other pairing
    vanishes.  For odd-degree pairs the reversed evaluation order flips the
    sign, which is forced by graded commutativity of the product.
    """

    ring_name: str
    entries: tuple[FilteredBasisEntry, ...]
    middle_signs: tuple[int, ...]

    def blocks(self) -> dict[tuple[int, int], list[FilteredBasisEntry]]:
        out: dict[tuple[int, int], list[FilteredBasisEntry]] = {}
        for e in self.entries:
            out.setdefault((e.perversity, e.degree), []).append(e)
        return out


def _gram(ring: SurfaceRing, rows: list[Vec], cols: list[Vec]) -> list[list[Fraction]]:
    return [[ring.pairing_eval(r, c) for c in cols] for r in rows]


def _perfect_sqrt(n: int) -> int | None:
    r = isqrt(n)
    return r if r * r == n else None


def _is_pm_square(c: Fraction) -> tuple[bool, Fraction, int]:
    """c = sign * r^2 with r rational?  Returns (ok, r, sign)."""
    if c == 0:
        return (False, Fraction(0), 0)
    sign = 1 if c > 0 else -1
    a = abs(c)
    rn = _perfect_sqrt(a.numerator)
    rd = _perfect_sqrt(a.denominator)
    if rn is None or rd is None:
        return (False, Fraction(0), 0)
    return (True, Fraction(rn, rd), sign)


def _add_scaled(u: Vec, terms) -> Vec:
    """u + sum of c * v over the pairs (c, v) in terms, zero entries dropped."""
    out = dict(u)
    for c, v in terms:
        if not c:
            continue
        for i, x in v.items():
            add_term(out, i, c * x)
    return out


def diagonalize_pm1(
    ring: SurfaceRing, vectors: list[Vec]
) -> tuple[list[Vec], list[int]]:
    """Rewrite the span of `vectors` with a basis whose Gram matrix is
    diagonal with entries +-1 under the ring pairing.

    Strategy: peel off vectors whose self-pairing is +- a rational square;
    split hyperbolic planes off at isotropic basis vectors; finally match
    residual connected blocks against the E8 Gram matrix (whose rational
    orthonormalization is explicit via the coordinate model).  A block this
    procedure cannot reduce raises DataError: not every rational form is
    +-1-diagonalizable, and this implementation does not attempt general
    quadratic-form classification.
    """
    work = [dict(v) for v in vectors]
    done: list[Vec] = []
    signs: list[int] = []

    def g(u: Vec, v: Vec) -> Fraction:
        return ring.pairing_eval(u, v)

    progress = True
    while work and progress:
        progress = False
        # square-norm pivots
        i = 0
        while i < len(work):
            ok, r, sign = _is_pm_square(g(work[i], work[i]))
            if ok:
                v = work.pop(i)
                c = g(v, v)
                unit = {k: x / r for k, x in v.items()}
                done.append(unit)
                signs.append(sign)
                work = [_add_scaled(w, [(-g(w, v) / c, v)]) for w in work]
                progress = True
            else:
                i += 1
        # hyperbolic planes at isotropic vectors
        i = 0
        while i < len(work):
            if g(work[i], work[i]) != 0:
                i += 1
                continue
            j = next(
                (j for j in range(len(work)) if j != i and g(work[i], work[j]) != 0),
                None,
            )
            if j is None:
                i += 1
                continue
            e = work[i]
            f = work[j]
            c = g(e, f)
            f = _add_scaled(f, [(-g(f, f) / (2 * c), e)])
            f = {k: x / c for k, x in f.items()}
            half = Fraction(1, 2)
            done.extend([_add_scaled(e, [(half, f)]), _add_scaled(e, [(-half, f)])])
            signs.extend([1, -1])
            rest = [w for idx, w in enumerate(work) if idx not in (i, j)]
            work = [_add_scaled(w, [(-g(w, f), e), (-g(w, e), f)]) for w in rest]
            progress = True
            i = 0

    if work:
        # residual definite blocks: match connected components against E8
        gram = _gram(ring, work, work)
        n = len(work)
        seen: set[int] = set()
        cartan = e8_cartan()
        t8 = _e8_orthonormalizer()
        for start in range(n):
            if start in seen:
                continue
            component = [start]
            seen.add(start)
            queue = [start]
            while queue:
                cur = queue.pop()
                for other in range(n):
                    if other not in seen and gram[cur][other] != 0:
                        seen.add(other)
                        component.append(other)
                        queue.append(other)
            component.sort()
            sub = [[gram[a][b] for b in component] for a in component]
            for block_sign in (1, -1):
                if sub == [[block_sign * c for c in row] for row in cartan]:
                    for col in range(8):
                        rows = [(t8[row][col], work[component[row]]) for row in range(8)]
                        done.append(_add_scaled({}, rows))
                        signs.append(block_sign)
                    break
            else:
                raise DataError(
                    "cannot rationally +-1-diagonalize the middle pairing block; "
                    f"residual Gram component of size {len(component)} is neither "
                    "square-normalizable, hyperbolic, nor an E8 block"
                )

    # exact verification of the produced diagonalization
    for i, u in enumerate(done):
        for j, v in enumerate(done):
            expected = Fraction(signs[i]) if i == j else Fraction(0)
            if g(u, v) != expected:
                raise DataError("middle-block diagonalization verification failed")
    return done, signs


def filtered_basis(ring: SurfaceRing) -> FilteredBasis:
    """Signed-orthonormal basis adapted to the filtration (compact rings only).

    Blocks (p, d) are processed in lexicographic order.  A block whose
    complementary block (2-p, 4-d) comes later is taken raw; the middle block
    (1, 2) is +-1-diagonalized; a block whose complement is already built is
    dual-normalized against it and then corrected, by adding same-degree
    elements of strictly lower perversity, until it pairs to zero with every
    non-complementary block.  A final pass evaluates every pairing of the
    output and raises DataError if the signed-orthonormality pattern fails,
    which happens exactly when the input's graded pairing is degenerate or
    not rationally normalizable.
    """
    if not ring.is_compact:
        raise ModeError(f"filtered basis requires a compact ring, {ring.name} is open")
    blocks_raw: dict[tuple[int, int], list[int]] = {}
    for i in range(ring.size):
        blocks_raw.setdefault((ring.perversities[i], ring.degrees[i]), []).append(i)
    order = sorted(blocks_raw)
    out: dict[tuple[int, int], list[Vec]] = {}
    middle_signs: tuple[int, ...] = ()
    for (p, d) in order:
        q, e = 2 - p, 4 - d
        raw: list[Vec] = [{i: Fraction(1)} for i in blocks_raw[(p, d)]]
        if (p, d) == (q, e):
            vecs, signs = diagonalize_pm1(ring, raw)
            out[(p, d)] = vecs
            middle_signs = tuple(signs)
            continue
        if (p, d) < (q, e):
            out[(p, d)] = raw
            continue
        partner = out.get((q, e))
        if partner is None or len(partner) != len(raw):
            raise DataError(
                f"graded pairing degenerate: block (p={p}, d={d}) has no matching "
                f"complement (p={q}, d={e})"
            )
        # dual-normalize: pairing(partner_l, new_i) = delta_li
        pmat = _gram(ring, partner, raw)
        try:
            pinv = linalg.transpose(linalg.inverse(pmat))
        except ValueError:
            raise DataError(
                f"graded pairing degenerate on blocks (p={p}, d={d}) x (p={q}, d={e})"
            )
        vecs = [_add_scaled({}, zip(pinv[i], raw)) for i in range(len(raw))]
        # kill pairings against other same-degree-e blocks with j > q
        for j in range(q + 1, 3):
            if (j, e) not in out or (j, e) == (p, d):
                continue
            target = out[(j, e)]
            killer = out[(2 - j, d)]
            kmat = _gram(ring, killer, target)
            rmat = _gram(ring, vecs, target)
            try:
                kinv = linalg.inverse(kmat)
            except ValueError:
                raise DataError(
                    f"graded pairing degenerate on blocks (p={2-j}, d={d}) x (p={j}, d={e})"
                )
            coeffs = linalg.matmul(rmat, kinv)
            vecs = [
                _add_scaled(v, [(-c, k) for c, k in zip(coeffs[i], killer)])
                for i, v in enumerate(vecs)
            ]
        # self-orthogonality inside degree 2 for the top block (p=2, d=2)
        if d == e and (p, d) != (q, e):
            smat = _gram(ring, vecs, vecs)
            half = Fraction(1, 2)
            vecs = [
                _add_scaled(v, [(-half * c, w) for c, w in zip(smat[i], partner)])
                for i, v in enumerate(vecs)
            ]
        out[(p, d)] = vecs

    entries: list[FilteredBasisEntry] = []
    for (p, d) in order:
        for vec in out[(p, d)]:
            entries.append(
                FilteredBasisEntry(
                    perversity=p,
                    degree=d,
                    vector=tuple(sorted(vec.items())),
                )
            )
    basis = FilteredBasis(
        ring_name=ring.name, entries=tuple(entries), middle_signs=middle_signs
    )
    _verify_filtered_basis(ring, basis)
    return basis


def _verify_filtered_basis(ring: SurfaceRing, basis: FilteredBasis) -> None:
    blocks = basis.blocks()
    keys = sorted(blocks)
    for ka in keys:
        for kb in keys:
            if kb < ka:
                continue
            pa, da = ka
            pb, db = kb
            complementary = pa + pb == 2 and da + db == 4
            for i, ea in enumerate(blocks[ka]):
                for j, eb in enumerate(blocks[kb]):
                    value = ring.pairing_eval(ea.as_vec(), eb.as_vec())
                    if not complementary:
                        expected = Fraction(0)
                    elif ka == kb:
                        expected = (
                            Fraction(basis.middle_signs[i]) if i == j else Fraction(0)
                        )
                    else:
                        expected = Fraction(1) if i == j else Fraction(0)
                    if value != expected:
                        raise DataError(
                            "filtered basis verification failed at "
                            f"blocks {ka} x {kb}, entries {i}, {j}: "
                            f"pairing {value}, expected {expected}"
                        )
