"""Exact truncated power series in the formal variables s, q, t.

A series is a finite map from exponent triples (e_s, e_q, e_t) to rational
coefficients together with a truncation bound on the s-degree.  Coefficients
are `fractions.Fraction`, exponents are nonnegative machine integers, zero
coefficients are never stored, and every product discards the terms whose
s-exponent exceeds the bound.  There is no floating point anywhere.

Products run on plain term dicts through one kernel, `_mul_terms`.  Its
arithmetic is generic, so a product of factors whose coefficients are all
integral (every factor of the Goettsche products) runs on Python ints, and
`Fraction`s are made once per term of the result, when `euler_product`
wraps it in a `TruncatedSeries`.

`euler_product` folds its factors by descending s-exponent.  A factor in
s^e has about s_bound / e terms, all on multiples of e, so the factors in
large e barely fill the accumulator, and the dense m = 1 factors come last,
when only a few multiplications are left to pay for a dense accumulator.

Canonical term order is lexicographic in (e_s, e_q, e_t); serialization and
rendering always follow it, so identical series produce identical bytes.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Mapping

from .errors import DivergenceError, UsageError
from .linalg import add_term

Exponent = tuple[int, int, int]
# a coefficient inside the product kernel: int while every operand is integral
Coeff = int | Fraction
# (coeff, e_s, e_q, e_t, sign, exponent) of one `geometric_factor`
Factor = tuple[object, int, int, int, int, int]

_ZERO = Fraction(0)


class TruncatedSeries:
    """Sparse polynomial in s, q, t truncated at a fixed s-degree."""

    __slots__ = ("terms", "s_bound")

    def __init__(self, terms: Mapping[Exponent, Fraction], s_bound: int):
        if s_bound < 0:
            raise UsageError(f"s_bound must be nonnegative, got {s_bound}")
        clean: dict[Exponent, Fraction] = {}
        for exp, coeff in terms.items():
            e_s, e_q, e_t = exp
            if e_s < 0 or e_q < 0 or e_t < 0:
                raise UsageError(f"negative exponent in term {exp}")
            if e_s > s_bound:
                continue
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[(e_s, e_q, e_t)] = coeff
        self.terms = clean
        self.s_bound = s_bound

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, s_bound: int) -> "TruncatedSeries":
        return cls({}, s_bound)

    @classmethod
    def one(cls, s_bound: int) -> "TruncatedSeries":
        return cls({(0, 0, 0): Fraction(1)}, s_bound)

    # -- basic protocol -----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.s_bound == other.s_bound
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.render()!r}, s_bound={self.s_bound})"

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (e_s, e_q, e_t), coeff in sorted(self.terms.items()):
            mono = "".join(
                f"{var}^{e}" for var, e in (("s", e_s), ("q", e_q), ("t", e_t)) if e
            )
            if not mono:
                pieces.append(str(coeff))
            elif coeff == 1:
                pieces.append(mono)
            elif coeff == -1:
                pieces.append(f"-{mono}")
            else:
                pieces.append(f"{coeff}*{mono}")
        return " + ".join(pieces)

    # -- arithmetic ----------------------------------------------------

    def _check_bound(self, other: "TruncatedSeries") -> None:
        if self.s_bound != other.s_bound:
            raise UsageError(
                f"mismatched s_bound: {self.s_bound} vs {other.s_bound}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_bound(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            add_term(out, exp, coeff)
        return TruncatedSeries(out, self.s_bound)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries({e: -c for e, c in self.terms.items()}, self.s_bound)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_bound(other)
        return TruncatedSeries(
            _mul_terms(self.terms, other.terms, self.s_bound), self.s_bound
        )

    # -- queries ---------------------------------------------------------

    def coefficient(self, e_s: int, e_q: int, e_t: int) -> Fraction:
        return self.terms.get((e_s, e_q, e_t), _ZERO)

    def coefficient_of_s(self, n: int) -> dict[tuple[int, int], Fraction]:
        """The coefficient of s^n, as a polynomial in q, t."""
        return {
            (e_q, e_t): c for (e_s, e_q, e_t), c in self.terms.items() if e_s == n
        }

    def specialize(self, q_value=None, t_value=None) -> "TruncatedSeries":
        """Substitute exact values for q and/or t, re-collecting terms."""
        out: dict[Exponent, Fraction] = {}
        for (e_s, e_q, e_t), coeff in self.terms.items():
            if q_value is not None:
                coeff = coeff * Fraction(q_value) ** e_q
                e_q = 0
            if t_value is not None:
                coeff = coeff * Fraction(t_value) ** e_t
                e_t = 0
            add_term(out, (e_s, e_q, e_t), coeff)
        return TruncatedSeries(out, self.s_bound)


def multichoose(n: int, k: int) -> int:
    """Number of k-multisets from n symbols: C(n+k-1, k)."""
    return comb(n + k - 1, k)


def _mul_terms(
    a: Mapping[Exponent, Coeff], b: Mapping[Exponent, Coeff], s_bound: int
) -> dict[Exponent, Coeff]:
    """Schoolbook product of two term dicts, truncated above s-degree `s_bound`.

    The smaller operand is the outer loop.  Coefficients are combined with
    plain `+` and `*`, so int operands give int results and `Fraction`
    operands stay exact; zero sums are dropped once, at the end.
    """
    if len(a) > len(b):
        a, b = b, a
    out: dict[Exponent, Coeff] = {}
    get = out.get
    for (s1, q1, t1), c1 in a.items():
        room = s_bound - s1
        for (s2, q2, t2), c2 in b.items():
            if s2 > room:
                continue
            exp = (s1 + s2, q1 + q2, t1 + t2)
            out[exp] = get(exp, 0) + c1 * c2
    return {exp: c for exp, c in out.items() if c}


def _factor_terms(
    coeff, e_s: int, e_q: int, e_t: int, sign: int, exponent: int, s_bound: int
) -> dict[Exponent, Coeff]:
    """Terms of (1 + sign*coeff*s^e_s q^e_q t^e_t)^exponent through s^s_bound.

    An int `coeff` gives int terms; any other is read as a `Fraction`.
    """
    if sign not in (1, -1):
        raise UsageError(f"sign must be +1 or -1, got {sign}")
    if e_s < 1:
        if exponent < 0:
            raise DivergenceError(
                "factor with e_s = 0 and negative exponent has no finite truncation"
            )
        raise UsageError("each factor must raise the s-degree (e_s >= 1)")
    if not isinstance(coeff, int):
        coeff = Fraction(coeff)
    u_coeff = sign * coeff
    terms: dict[Exponent, Coeff] = {(0, 0, 0): 1}
    for j in range(1, s_bound // e_s + 1):
        if exponent >= 0:
            if j > exponent:
                break
            binomial = comb(exponent, j)
        else:
            binomial = (-1) ** j * multichoose(-exponent, j)
        c = binomial * u_coeff**j
        if c:
            terms[(j * e_s, j * e_q, j * e_t)] = c
    return terms


def geometric_factor(
    coeff,
    e_s: int,
    e_q: int,
    e_t: int,
    sign: int,
    exponent: int,
    s_bound: int,
) -> TruncatedSeries:
    """Exact truncated expansion of (1 + sign*coeff*s^e_s q^e_q t^e_t)^exponent.

    Negative exponents expand as geometric series:

        (1 - u)^(-k) = sum_j multichoose(k, j) u^j,
        (1 + u)^(-k) = sum_j (-1)^j multichoose(k, j) u^j,

    which is finite after truncation because each power of u raises the
    s-degree by e_s >= 1.
    """
    return TruncatedSeries(
        _factor_terms(coeff, e_s, e_q, e_t, sign, exponent, s_bound), s_bound
    )


def euler_product(factors: Iterable[Factor], s_bound: int) -> TruncatedSeries:
    """The product of `geometric_factor(*factor, s_bound)` over `factors`.

    Each factor is a tuple `(coeff, e_s, e_q, e_t, sign, exponent)`.  Every
    factor is expanded first, in the order given, so an invalid one raises
    before any product is taken.  The expansions are then folded with
    `_mul_terms` on plain term dicts by descending e_s (a stable sort): the
    accumulator stays sparse until the last, low-e_s factors, and since the
    product is commutative and exact the result does not depend on the
    order.  Integral factors multiply as ints, and the product is wrapped in
    one `TruncatedSeries` at the end: `Fraction`s are made once per term of
    the result.
    """
    expanded = sorted(
        ((factor[1], _factor_terms(*factor, s_bound)) for factor in factors),
        key=lambda pair: pair[0],
        reverse=True,
    )
    terms: dict[Exponent, Coeff] = {(0, 0, 0): 1}
    for _, factor_terms in expanded:
        terms = _mul_terms(terms, factor_terms, s_bound)
    return TruncatedSeries(terms, s_bound)


# -- serialization ------------------------------------------------------
#
# One term per line, `<coeff_numer>/<coeff_denom> <e_s> <e_q> <e_t>`, terms
# in canonical order, preceded by the header `series s_bound=<N>`.


def to_text(series: TruncatedSeries) -> str:
    lines = [f"series s_bound={series.s_bound}"]
    for (e_s, e_q, e_t), coeff in sorted(series.terms.items()):
        num, den = coeff.as_integer_ratio()
        lines.append(f"{num}/{den} {e_s} {e_q} {e_t}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> TruncatedSeries:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("series "):
        raise UsageError("series document must start with a `series s_bound=<N>` header")
    header = lines[0].split()
    if len(header) != 2 or not header[1].startswith("s_bound="):
        raise UsageError(f"malformed series header: {lines[0]!r}")
    try:
        s_bound = int(header[1].split("=", 1)[1])
    except ValueError as exc:
        raise UsageError(f"malformed series header: {lines[0]!r}") from exc
    terms: dict[Exponent, Fraction] = {}
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != 4:
            raise UsageError(f"malformed series term: {line!r}")
        frac, *exps = fields
        if "/" not in frac:
            raise UsageError(f"coefficient must be <numer>/<denom>: {line!r}")
        try:
            numer, denom = (int(x) for x in frac.split("/", 1))
            e_s, e_q, e_t = (int(x) for x in exps)
        except ValueError as exc:
            raise UsageError(f"malformed series term: {line!r}") from exc
        if min(e_s, e_q, e_t) < 0:
            raise UsageError(f"series exponents must be nonnegative integers: {line!r}")
        exp = (e_s, e_q, e_t)
        if exp in terms:
            raise UsageError(f"duplicate series term {exp}")
        if denom == 0:
            raise UsageError(f"zero denominator in series term: {line!r}")
        terms[exp] = Fraction(numer, denom)
    return TruncatedSeries(terms, s_bound)
