"""The abstract perversity on A{S_n} and the checkable filtration theorems.

The perversity of a basis element a.sigma with factors alpha_1, ..., alpha_k
on the orbits of sigma of type 1^{a_1} ... n^{a_n} is

    p(a.sigma) = sum_i p(alpha_i) + sum_i (i - 1) a_i
               = sum_i p(alpha_i) + (n - number of orbits),

the zero class has perversity bottom (-infinity), and the perversity of a
class is the maximum over its support.  The multiplicativity checker verifies
p(x.y) <= p(x) + p(y) over every pair of basis elements.  Both the product
and the perversity bookkeeping decompose over the joint orbits of the two
permutations, and the worst excess on one joint orbit depends only on its
signature (m, a, b, m_res): its size and the numbers of orbits of sigma,
tau and sigma tau on it (_local_mult_stats, whose search runs over groups
of factor tuples with equal merged product and perversity sum, and takes
each distinct product and its push once, by id in `ring.intern`).  So the
worst excess of a pair is the sum over its signature multiset, and since
every multiset of transitive signatures with sizes summing to n is realized
by a pair placed on disjoint blocks, the worst over all n!^2 pairs is a
knapsack over the transitive signatures with m <= n
(_worst_pair_total), exact for every ring.  Which signatures occur on m
points is counted from the characters of S_m (Jucys 1974; Okounkov-Vershik,
Selecta Math. 2 (1996)) and the exponential formula (Stanley, EC2 Ch. 5):
`symmetric_groups.transitive_signatures`.  Only a failing ring walks one
sigma per cycle type against every tau, through `pair_orbits`, to list
its witnesses; a local witness lifts back to the pair through the ranks of
sigma's and tau's orbits in each joint orbit.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable

from .errors import UsageError
from .report import CheckReport, run_suite
from .surface_ring import SurfaceRing, diagonal_push
from .symmetric_groups import (
    Perm,
    _perm_orbit_blocks,
    class_representatives,
    enumerate_sn,
    pair_orbits,
    require_enumerable,
    signature_defect,
    transitive_signatures,
)
from .wreath_ring import (
    Element,
    WreathClass,
    cup,
    render_element,
)


# The perversity of the zero class, below every integer.  It is an order
# bound only, compared and never added or multiplied into a coefficient, so
# exact arithmetic never meets a float.
BOTTOM = float("-inf")


def perversity(ring: SurfaceRing, x: Element) -> int:
    """Sum of factor perversities plus the cycle-type shift n - #orbits."""
    s, factors = x
    return sum(ring.perversities[f] for f in factors) + (len(s) - len(factors))


def perversity_class(ring: SurfaceRing, cls: WreathClass) -> int | float:
    if not cls.terms:
        return BOTTOM
    return max(perversity(ring, el) for el in cls.terms)


# -- multiplicativity ----------------------------------------------------------


def _factor_groups(ring: SurfaceRing, k: int) -> list[tuple[tuple[int, ...], int, int]]:
    """Factor tuples of length k grouped by merged product and perversity sum.

    Returns (representative, id of the merged product in `ring.intern`,
    perversity sum) per group whose merged product (the left fold from the
    unit, as in _mul_sequence) is nonzero.  The representative is the
    lexicographically first tuple of its group and the list is in the order
    of the representatives.  Level k is built from level k - 1 with one
    more factor, since the lexicographically first tuple of a group extends
    the representative of its prefix's group.
    """
    cache = ring._caches.setdefault("mult_groups", {})
    hit = cache.get(k)
    if hit is not None:
        return hit
    intern = ring.intern
    if k == 0:
        groups = [((), intern.id_of({ring.unit: 1}), 0)]
    else:
        groups = []
        seen = set()
        perv = ring.perversities
        basis = [intern.id_of({f: 1}) for f in range(ring.size)]
        for rep, vec, psum in _factor_groups(ring, k - 1):
            for f, fid in enumerate(basis):
                key = (intern.mul(vec, fid), psum + perv[f])
                if key[0] is not None and key not in seen:
                    seen.add(key)
                    groups.append((rep + (f,), *key))
    cache[k] = groups
    return groups


def _product_table(ring: SurfaceRing, a: int, b: int) -> list[tuple[int, int, tuple]]:
    """The pairs of factor groups of lengths a and b, one entry per distinct
    nonzero product mx.my.

    An entry is (id of the product, least perversity sum px + py over the
    pairs with that product, the factor tuples of the first such pair in the
    search's loop order: x's groups outer, y's inner).  Entries are in the
    loop order of those pairs.  The table does not depend on the defect or
    on m_res, so it is built once per (a, b) and shared by every signature
    with those counts.
    """
    cache = ring._caches.setdefault("mult_products", {})
    hit = cache.get((a, b))
    if hit is not None:
        return hit
    least: dict[int, tuple] = {}
    mul = ring.intern.mul
    ys = _factor_groups(ring, b)
    order = 0
    for fx, mx, px in _factor_groups(ring, a):
        for fy, my, py in ys:
            prod = mul(mx, my)
            if prod is None:
                continue
            entry = least.get(prod)
            if entry is None or px + py < entry[1]:
                least[prod] = (order, px + py, (fx, fy))
            order += 1
    ordered = sorted(least.items(), key=lambda item: item[1][0])
    table = cache[(a, b)] = [(prod, psum, pair) for prod, (_, psum, pair) in ordered]
    return table


def _local_mult_stats(ring: SurfaceRing, m: int, a: int, b: int, m_res: int):
    """Worst perversity excess on one transitive joint orbit.

    The joint orbit has m points, and sigma, tau and sigma tau have a, b and
    m_res orbits on it.  The local product reads the two permutations only
    through these counts (the graph defect is 2g = m + 2 - a - b - m_res,
    checked by signature_defect once per key), so they key the memo.  The
    search runs over pairs of factor groups (_factor_groups): the excess
    depends only on the two merged products and perversity sums, and the
    lexicographically first maximizing pair of factor tuples is a pair of
    representatives.  Pairs with the same product mx.my share the pushed
    split and its top perversity (`ring.intern.push_top`, shared with every
    other signature and suite), so the search charges each distinct product
    (_product_table) the least perversity sum among its pairs; scanning the
    products in the loop order of their least pairs keeps the first
    maximizing pair.

    Returns (best_excess, argmax factor tuples) over all local factor
    assignments; both are None when every local product vanishes, in which
    case no global pair through this orbit can violate.
    """
    cache = ring._caches.setdefault("mult_local", {})
    key = (m, a, b, m_res)
    hit = cache.get(key)
    if hit is not None:
        return hit
    g = signature_defect(m, a, b, m_res)
    best = None
    arg = None
    push_top = ring.intern.push_top
    shift = a + b - m - m_res  # the three cycle-type shifts
    for prod, psum, pair in _product_table(ring, a, b):
        top = push_top(prod, g, m_res)
        if top is None:
            continue
        excess = top - psum + shift
        if best is None or excess > best:
            best = excess
            arg = pair
    result = cache[key] = (best, arg)
    return result


def _worst_pair_total(ring: SurfaceRing, n: int) -> int | None:
    """The largest total excess of a pair (sigma, tau) of S_n: the sum over
    its joint orbits of their local worst excesses (_local_mult_stats),
    nonpositive totals included; None when every pair has an orbit whose
    products all vanish.

    A knapsack over the transitive signatures of S_m, m <= n
    (`transitive_signatures`), with sizes summing to n: worst[k] is the
    largest best_s + worst[k - m_s] over the signatures s whose best is not
    None and for which worst[k - m_s] is not None.  Every multiset of
    transitive signatures with sizes summing to n is the signature multiset
    of a pair, one transitive pair placed on each of disjoint blocks, so
    worst[n] is the maximum over all pairs, for any ring.  Each signature is
    solved once.
    """
    bests = [
        (m, best)
        for m in range(1, n + 1)
        for a, b, m_res in transitive_signatures(m)
        if (best := _local_mult_stats(ring, m, a, b, m_res)[0]) is not None
    ]
    worst: list[int | None] = [0]
    for k in range(1, n + 1):
        worst.append(max(
            (best + worst[k - m] for m, best in bests if m <= k and worst[k - m] is not None),
            default=None,
        ))
    return worst[n]


def _mult_witness(ring: SurfaceRing, x: Element, y: Element, excess: int) -> dict:
    """The witness for the pair (x, y), whose local search predicts `excess`.

    The witness is built whatever the product turns out to be, so a
    factorization error shows up in the report instead of being filtered out.
    """
    px = perversity(ring, x)
    py = perversity(ring, y)
    st = pair_orbits(x[0], y[0])[0]
    terms = cup(ring, x, y)
    actual = max((perversity(ring, (st, f)) for f in terms), default=None)
    return {
        "x": render_element(ring, x),
        "y": render_element(ring, y),
        "perversity_x": px,
        "perversity_y": py,
        "bound": px + py,
        "actual": actual,
        "excess": excess,
    }


def lift_element(ring: SurfaceRing, sigma: Perm, rank_lists, local_factors) -> Element:
    """Lift per-joint-orbit local factor tuples back onto sigma's orbits.

    local_factors[k] holds the factors of the orbits of sigma whose ranks
    (joint_orbits) are rank_lists[k]; every other orbit gets the unit.
    """
    factors = [ring.unit] * len(_perm_orbit_blocks(sigma.images))
    for ranks, local in zip(rank_lists, local_factors):
        for m, f in zip(ranks, local):
            factors[m] = f
    return sigma.images, tuple(factors)


def _mult_pair_check(ring: SurfaceRing, sigma: Perm, tau: Perm) -> dict | None:
    """Worst violation witness among pairs with the given permutations, or None."""
    _, blocks, ranks = pair_orbits(sigma.images, tau.images)
    total = 0
    args_x: list[tuple[int, ...]] = []
    args_y: list[tuple[int, ...]] = []
    for block, (rx, ry, rd) in zip(blocks, ranks):
        best, arg = _local_mult_stats(ring, len(block), len(rx), len(ry), len(rd))
        if best is None:
            return None  # every product through this orbit vanishes
        total += best
        args_x.append(arg[0])
        args_y.append(arg[1])
    if total <= 0:
        return None
    x = lift_element(ring, sigma, [r[0] for r in ranks], args_x)
    y = lift_element(ring, tau, [r[1] for r in ranks], args_y)
    return _mult_witness(ring, x, y, total)


def check_multiplicativity(
    ring: SurfaceRing, n: int, seed: int = 0, sample_size: int = 0
) -> CheckReport:
    """perversity(x.y) <= perversity(x) + perversity(y) over all basis pairs.

    The verdict is the knapsack `_worst_pair_total`: a pair (sigma, tau) is
    read only through the multiset of its joint-orbit signatures
    (m, a, b, m_res), its worst excess is the sum of the local worst
    excesses, and every multiset of transitive signatures with sizes summing
    to n occurs, so the knapsack's worst total is that of all n!^2 pairs,
    for any ring, validated or not.  `transitive_signatures` counts which
    signatures exist on m points from the characters of S_m, without
    listing S_m.  `checked` counts the p(n).n! pairs (one sigma per cycle
    type, every tau) the verdict covers.

    Only a failing ring walks those pairs, to list its witnesses: sigma over
    one representative per cycle type (class_representatives) and tau over
    all of S_n.  That covers every pair up to simultaneous conjugation
    (sigma, tau) -> (c sigma c^-1, c tau c^-1), which keeps the signature
    multiset: a pair (c rho c^-1, tau') with rho a representative is the
    conjugate by c of (rho, c^-1 tau' c), which the walk checks.

    The run is always exhaustive, and refuses n > ENUMERATE_LIMIT with
    ResourceError before any pair is checked, since the witness walk lists
    S_n.  `seed` is only echoed; `sample_size` is unread.
    """
    require_enumerable(n)
    reps = class_representatives(n)
    info = {
        "ring": ring.name,
        "n": n,
        "mode": "exhaustive",
        "seed": seed,
        "checked": len(reps) * factorial(n),
    }
    found: Iterable[dict | None] = ()
    worst = _worst_pair_total(ring, n)
    if worst is not None and worst > 0:
        perms = list(enumerate_sn(n))
        found = (_mult_pair_check(ring, s, t) for s in reps for t in perms)
    return run_suite("multiplicativity", info, found)


# -- diagonal bound -------------------------------------------------------------


def check_diagonal_bound(ring: SurfaceRing, n_max: int = 4) -> CheckReport:
    """Every term of the m-fold diagonal pushforward of a basis class gamma has
    componentwise perversity sum <= p(gamma) + 2(m-1), for 2 <= m <= n_max."""
    witnesses = []
    for g in range(ring.size):
        pg = ring.perversities[g]
        for m in range(2, n_max + 1):
            pushed = diagonal_push(ring, m, g)
            bound = pg + 2 * (m - 1)
            for key, coeff in pushed.items():
                total = sum(ring.perversities[i] for i in key)
                if total > bound:
                    witnesses.append(
                        {
                            "gamma": ring.names[g],
                            "m": m,
                            "term": "(x)".join(ring.names[i] for i in key),
                            "coefficient": str(coeff),
                            "perversity_sum": total,
                            "bound": bound,
                            "excess": total - bound,
                        }
                    )
    witnesses.sort(key=lambda w: (-w["excess"], w["gamma"], w["m"]))
    return CheckReport(
        "diagonal-bound",
        not witnesses,
        witnesses,
        {"ring": ring.name, "n_max": n_max},
    )


# -- weight-filtration transport -------------------------------------------------


def pw_transport(perverse_dims: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """Transport perverse graded dimensions to weight graded dimensions.

    The packaged identification W_{2k} = W_{2k+1} = cumulative P_k turns the
    graded pieces into Gr^W_{2k} = Gr^P_k with every odd weight graded piece
    zero, so the table simply doubles the filtration index.
    """
    out: dict[int, dict[int, int]] = {}
    for p, row in perverse_dims.items():
        for d, dim in row.items():
            if dim:
                out.setdefault(2 * p, {})[d] = dim
    return out


# -- small exact matrix checks ----------------------------------------------------


MONODROMY_MATRICES: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = (
    ((-1, 0), (0, -1)),
    ((0, -1), (1, -1)),
    ((0, -1), (1, 0)),
    ((0, -1), (1, 1)),
)

TRIANGLE_MATRIX: tuple[tuple[int, int, int], ...] = (
    (-1, 1, 1),
    (1, -1, 1),
    (1, 1, -1),
)


def _int_det(m) -> int:
    from . import linalg

    rows = [[Fraction(x) for x in row] for row in m]
    bad = next((x for row in rows for x in row if x.denominator != 1), None)
    if bad is not None:
        raise UsageError(f"determinant check expects an integer matrix, found entry {bad}")
    return linalg.det(rows)


def check_monodromy_vanishing(matrix) -> CheckReport:
    """No invariants or coinvariants of the rank-2 monodromy: det(M - I) != 0."""
    rows = [list(r) for r in matrix]
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise UsageError("monodromy check expects a 2x2 integer matrix")
    shifted = [
        [rows[i][j] - (1 if i == j else 0) for j in range(2)] for i in range(2)
    ]
    d = _int_det(shifted)
    witnesses = [] if d != 0 else [{"matrix": str(rows), "det_m_minus_i": 0, "excess": 1}]
    return CheckReport(
        "monodromy-vanishing",
        d != 0,
        witnesses,
        {"matrix": str(rows), "det_m_minus_i": d},
    )


def check_intersection_nondegenerate(matrix) -> CheckReport:
    """Pass iff the intersection matrix has nonzero determinant."""
    rows = [list(r) for r in matrix]
    if any(len(r) != len(rows) for r in rows):
        raise UsageError("intersection check expects a square matrix")
    d = _int_det(rows)
    witnesses = [] if d != 0 else [{"matrix": str(rows), "determinant": 0, "excess": 1}]
    return CheckReport(
        "intersection-nondegenerate",
        d != 0,
        witnesses,
        {"matrix": str(rows), "determinant": d},
    )


def check_monodromy_suite() -> CheckReport:
    """The four rank-2 monodromy matrices plus the triangle intersection matrix."""
    reports = [check_monodromy_vanishing(m) for m in MONODROMY_MATRICES]
    reports.append(check_intersection_nondegenerate(TRIANGLE_MATRIX))
    witnesses = [w for r in reports for w in r.witnesses]
    info = {
        "monodromy_determinants": [r.info["det_m_minus_i"] for r in reports[:-1]],
        "triangle_determinant": reports[-1].info["determinant"],
    }
    return CheckReport(
        "monodromy", all(r.passed for r in reports), witnesses, info
    )
