"""Perverse Poincare polynomials and their generating series.

For a surface ring with bigraded dimensions dims(p, d) the refined product
series is

    prod_{m>=1} prod_{(p,d)} (1 - (-1)^d s^m q^{p+m-1} t^{d+2m-2})^(-(-1)^d dims(p,d)),

whose s^n coefficient is the perverse Poincare polynomial of the n-th
Hilbert-scheme model.  Three independent routes compute that coefficient:
the closed-form product for the five named families, the partition sum with
super-symmetric multiplicity counts per cycle length, and a brute-force count
of S_n-orbits of wreath basis elements; their agreement is the package's
acceptance backbone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .errors import ResourceError, UsageError
from .exact_poly import TruncatedSeries, euler_product, multichoose
from .linalg import add_term
from .surface_ring import SurfaceRing
from .symmetric_groups import ENUMERATE_LIMIT, partitions
from .wreath_ring import element_degree, iter_orbit_reps
from .perverse_filtration import perversity

DEFAULT_LIMIT = 10**8

BigradedDims = dict[tuple[int, int], int]
QTPoly = dict[tuple[int, int], Fraction]
# a q,t polynomial with int coefficients: the oracles count in these
QTCounts = dict[tuple[int, int], int]

CASE_NAMES = ("a0", "dynkin4", "dynkin6", "dynkin7", "dynkin8")


@dataclass(frozen=True)
class SeriesSpec:
    """Which closed-form family to expand, and how far in s."""

    case: str
    k: int | None
    s_bound: int

    def __post_init__(self):
        if self.case not in ("a0", "dynkin"):
            raise UsageError(f"unknown series case {self.case!r}")
        if self.case == "dynkin" and self.k not in (4, 6, 7, 8):
            raise UsageError(f"dynkin case needs k in 4, 6, 7, 8; got {self.k}")
        if self.s_bound < 0:
            raise UsageError("s_bound must be nonnegative")

    @classmethod
    def parse(cls, label: str, s_bound: int) -> "SeriesSpec":
        if label == "a0":
            return cls("a0", None, s_bound)
        if label.startswith("dynkin"):
            try:
                return cls("dynkin", int(label[len("dynkin") :]), s_bound)
            except ValueError:
                pass
        raise UsageError(f"unknown series case {label!r}; choose one of {', '.join(CASE_NAMES)}")


def closed_form(spec: SeriesSpec) -> TruncatedSeries:
    """Exact truncated expansion of the named generating series."""
    bound = spec.s_bound
    factors = []
    for m in range(1, bound + 1):
        if spec.case == "a0":
            factors += [
                (1, m, m, 2 * m - 1, +1, +2),
                (1, m, m - 1, 2 * m - 2, -1, -1),
                (1, m, m + 1, 2 * m, -1, -1),
            ]
        else:
            factors += [
                (1, m, m - 1, 2 * m - 2, -1, -1),
                (1, m, m, 2 * m, -1, -spec.k),
                (1, m, m + 1, 2 * m, -1, -1),
            ]
    return euler_product(factors, bound)


def ring_dims(ring: SurfaceRing) -> BigradedDims:
    dims: BigradedDims = {}
    for p, d in zip(ring.perversities, ring.degrees):
        dims[(p, d)] = dims.get((p, d), 0) + 1
    return dims


def ring_betti(ring: SurfaceRing) -> dict[int, int]:
    betti: dict[int, int] = {}
    for d in ring.degrees:
        betti[d] = betti.get(d, 0) + 1
    return betti


def _goettsche_factor(m: int, e_q: int, d: int, count: int):
    """The factor (1 - (-1)^d s^m q^e_q t^(d+2m-2))^(-(-1)^d count)."""
    if d % 2 == 0:
        return (1, m, e_q, d + 2 * m - 2, -1, -count)
    return (1, m, e_q, d + 2 * m - 2, +1, count)


def refined_goettsche(dims: BigradedDims, s_bound: int) -> TruncatedSeries:
    """The refined product series for arbitrary bigraded dimension data."""
    return euler_product(
        (
            _goettsche_factor(m, p + m - 1, d, count)
            for m in range(1, s_bound + 1)
            for (p, d), count in sorted(dims.items())
            if count
        ),
        s_bound,
    )


def betti_goettsche(betti: dict[int, int], s_bound: int) -> TruncatedSeries:
    """Classical Poincare product from Betti numbers alone (no q refinement)."""
    return euler_product(
        (
            _goettsche_factor(m, 0, d, count)
            for m in range(1, s_bound + 1)
            for d, count in sorted(betti.items())
            if count
        ),
        s_bound,
    )


# -- partition sum ---------------------------------------------------------------


def _to_fractions(counts: QTCounts) -> QTPoly:
    return {key: Fraction(c) for key, c in counts.items()}


def _poly_mul(a: QTCounts, b: QTCounts) -> QTCounts:
    out: QTCounts = {}
    for (qa, ta), ca in a.items():
        for (qb, tb), cb in b.items():
            add_term(out, (qa + qb, ta + tb), ca * cb)
    return out


def _cycle_slot_counts(dims: BigradedDims, i: int, a_max: int) -> list[QTCounts]:
    """G_i(a) for a = 0..a_max: the weighted count of unordered assignments of
    a surface classes to a cycles of length i, symmetric in even degrees and
    exterior in odd degrees, each class from piece (p, d) weighing
    q^(p+i-1) t^(d+2i-2)."""
    series: list[QTCounts] = [{(0, 0): 1}] + [dict() for _ in range(a_max)]
    for (p, d), count in sorted(dims.items()):
        if not count:
            continue
        weight = (p + i - 1, d + 2 * i - 2)
        piece: list[QTCounts] = []
        for j in range(a_max + 1):
            if d % 2 == 0:
                coeff = multichoose(count, j)
            else:
                coeff = comb(count, j)
            piece.append(
                {(weight[0] * j, weight[1] * j): coeff} if coeff else {}
            )
        new: list[QTCounts] = [dict() for _ in range(a_max + 1)]
        for a in range(a_max + 1):
            for j in range(a + 1):
                if not piece[j] or not series[a - j]:
                    continue
                for key, c in _poly_mul(series[a - j], piece[j]).items():
                    add_term(new[a], key, c)
        series = new
    return series


def partition_sum(dims: BigradedDims, n: int) -> QTPoly:
    """The s^n coefficient by explicit summation over partitions of n.

    Every count is an int; the coefficients become `Fraction`s once, at the
    return.
    """
    if n == 0:
        return {(0, 0): Fraction(1)}
    slot_counts = {
        i: _cycle_slot_counts(dims, i, n // i) for i in range(1, n + 1)
    }
    total: QTCounts = {}
    for mults in partitions(n):
        term: QTCounts = {(0, 0): 1}
        for i, a in enumerate(mults, start=1):
            if a:
                term = _poly_mul(term, slot_counts[i][a])
        for key, c in term.items():
            add_term(total, key, c)
    return _to_fractions(total)


def orbit_scan_cost(ring: SurfaceRing, n: int) -> int:
    """The steps `iter_orbit_reps` takes at most on A{S_n}: the factor tuples
    it generates, plus its sign tests on rings with odd classes.

    For a cycle type with a_i cycles of length i it generates the tuples
    sorted along each group of equal-length cycles, prod_i C(size + a_i - 1,
    a_i) of them.  On a group of a slots, the sorted tuples with equal values
    at one adjacent pair of slots are the sorted tuples on a - 1 slots, so
    the group's a - 1 pairs take at most (a - 1) C(size + a - 2, a - 1) sign
    tests against the tuples of the other groups.  Summed over partitions,
    so S_n is not enumerated.
    """
    size, total = ring.size, 0
    for mults in partitions(n):
        groups = [(a, multichoose(size, a)) for a in mults if a]
        tuples = prod(count for _, count in groups)
        total += tuples
        if ring.has_odd:
            # tuples // count: the tuples of the other groups
            total += sum((a - 1) * multichoose(size, a - 1) * (tuples // count)
                         for a, count in groups)
    return total


def check_resource(ring: SurfaceRing, n: int, limit: int) -> None:
    """ResourceError when the orbit count at n costs more than limit steps
    (`orbit_scan_cost`), or when n is past ENUMERATE_LIMIT, the largest S_n
    whose conjugacy classes `iter_orbit_reps` lists: the gate of
    `brute_force_poincare`.  The count is exact for the tuples and an upper
    bound for the sign tests, which stop at the first -1."""
    if n > ENUMERATE_LIMIT:
        raise ResourceError(
            f"n={n} on ring {ring.name}: the orbit count lists S_n only up to "
            f"n={ENUMERATE_LIMIT}"
        )
    cost = orbit_scan_cost(ring, n)
    if cost > limit:
        raise ResourceError(
            f"n={n} on ring {ring.name} needs ~{cost} orbit-scan steps, limit {limit}"
        )


def brute_force_poincare(
    ring: SurfaceRing, n: int, limit: int = DEFAULT_LIMIT
) -> QTPoly:
    """Count S_n-orbits of wreath basis elements by (perversity, degree).

    An orbit contributes q^perversity t^degree unless some stabilizer element
    acts by -1 on the factor tensor, in which case its symmetrization
    vanishes and it is excluded.  This is the independent oracle for the
    product formulas: it only uses the S_n action and the abstract perversity.
    The orbits come from `iter_orbit_reps`, which generates, per cycle type,
    the factor tuples sorted within each group of equal-length cycles and
    tests stabilizer generators for the sign.  The resource gate
    `check_resource` counts those tuples and sign tests from the partitions
    of n (`orbit_scan_cost`).  The orbits are counted in ints, made
    `Fraction`s once, at the return.
    """
    if n < 0:
        raise UsageError(f"n must be nonnegative, got {n}")
    check_resource(ring, n, limit)
    if n == 0:
        return {(0, 0): Fraction(1)}
    counts: QTCounts = {}
    for rep, survives in iter_orbit_reps(ring, n):
        if not survives:
            continue
        key = (perversity(ring, rep), element_degree(ring, rep))
        counts[key] = counts.get(key, 0) + 1
    return _to_fractions(counts)


def poly_render(poly: QTPoly) -> str:
    if not poly:
        return "0"
    pieces = []
    for (eq, et), c in sorted(poly.items()):
        mono = (f"q^{eq}" if eq else "") + (f"t^{et}" if et else "")
        if not mono:
            pieces.append(str(c))
        elif c == 1:
            pieces.append(mono)
        else:
            pieces.append(f"{c}*{mono}")
    return " + ".join(pieces)


def poly_to_series(poly: QTPoly, n: int, s_bound: int) -> TruncatedSeries:
    """Embed a q,t polynomial as the s^n slice of a truncated series."""
    return TruncatedSeries(
        {(n, eq, et): c for (eq, et), c in poly.items()}, s_bound
    )


# -- comparison -------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    equal: bool
    up_to_s: int
    first_diff: tuple[int, int, int] | None
    coeff_a: Fraction | None
    coeff_b: Fraction | None

    def render_text(self) -> str:
        if self.equal:
            return f"equal through s^{self.up_to_s}"
        e_s, e_q, e_t = self.first_diff
        return (
            f"unequal: first difference at s^{e_s} q^{e_q} t^{e_t}: "
            f"{self.coeff_a} vs {self.coeff_b}"
        )

    def to_json_dict(self) -> dict:
        out: dict = {"equal": self.equal, "up_to_s": self.up_to_s}
        if not self.equal:
            out["first_diff"] = list(self.first_diff)
            out["coeff_a"] = str(self.coeff_a)
            out["coeff_b"] = str(self.coeff_b)
        return out


def compare_series(
    a: TruncatedSeries, b: TruncatedSeries, up_to_s: int
) -> ComparisonReport:
    """Equality of truncations; reports the lexicographically first difference."""
    if up_to_s < 0:
        raise UsageError(f"up_to_s must be non-negative, got {up_to_s}")
    if a.s_bound < up_to_s or b.s_bound < up_to_s:
        raise UsageError(
            f"both series must be truncated at s_bound >= {up_to_s} "
            f"(got {a.s_bound}, {b.s_bound})"
        )
    keys = {k for k in a.terms if k[0] <= up_to_s}
    keys |= {k for k in b.terms if k[0] <= up_to_s}
    for key in sorted(keys):
        ca = a.terms.get(key, Fraction(0))
        cb = b.terms.get(key, Fraction(0))
        if ca != cb:
            return ComparisonReport(False, up_to_s, key, ca, cb)
    return ComparisonReport(True, up_to_s, None, None, None)
