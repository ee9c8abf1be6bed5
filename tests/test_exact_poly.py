"""Truncated-series arithmetic: exactness, truncation, serialization."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilb import exact_poly
from hilb.errors import DivergenceError, UsageError
from hilb.exact_poly import (
    TruncatedSeries,
    _mul_terms,
    _shift_add,
    euler_product,
    from_text,
    geometric_factor,
    multichoose,
    to_text,
)
from hilb.generating_series import (
    CASE_NAMES,
    SeriesSpec,
    betti_goettsche,
    closed_form,
    refined_goettsche,
    ring_betti,
    ring_dims,
)
from hilb.surface_ring import PRESET_NAMES, preset


def S(terms, bound):
    return TruncatedSeries({k: Fraction(v) for k, v in terms.items()}, bound)


def test_add_examples():
    one = S({(0, 0, 0): 1}, 4)
    sq = S({(1, 1, 0): 1}, 4)
    assert one + sq + sq == S({(0, 0, 0): 1, (1, 1, 0): 2}, 4)
    x = S({(2, 1, 3): Fraction(5, 7)}, 4)
    assert x + TruncatedSeries.zero(4) == x
    # cancellation removes the stored term
    a = S({(0, 0, 0): 1, (1, 1, 2): -1}, 4)
    b = S({(1, 1, 2): 1}, 4)
    assert a + b == one
    assert (1, 1, 2) not in (a + b).terms


def test_mul_examples():
    one_plus_s = S({(0, 0, 0): 1, (1, 0, 0): 1}, 1)
    assert one_plus_s * one_plus_s == S({(0, 0, 0): 1, (1, 0, 0): 2}, 1)
    x = S({(1, 2, 1): Fraction(3, 2)}, 3)
    assert x * TruncatedSeries.one(3) == x
    sqt = S({(0, 0, 0): 1, (1, 1, 1): 1}, 2)
    assert sqt * sqt == S({(0, 0, 0): 1, (1, 1, 1): 2, (2, 2, 2): 1}, 2)


def test_bound_mismatch_rejected():
    with pytest.raises(UsageError):
        TruncatedSeries.one(2) + TruncatedSeries.one(3)
    with pytest.raises(UsageError):
        TruncatedSeries.one(2) * TruncatedSeries.one(3)


def test_geometric_factor_geometric_series():
    assert geometric_factor(1, 1, 0, 0, -1, -1, 3) == S(
        {(0, 0, 0): 1, (1, 0, 0): 1, (2, 0, 0): 1, (3, 0, 0): 1}, 3
    )


def test_geometric_factor_binomial():
    assert geometric_factor(1, 1, 1, 1, +1, 2, 2) == S(
        {(0, 0, 0): 1, (1, 1, 1): 2, (2, 2, 2): 1}, 2
    )


def test_geometric_factor_negative_exponent_against_convolution_oracle():
    # (1 - s q t^2)^(-4) up to s^2, computed independently by multiplying four
    # copies of the plain geometric series
    factor = geometric_factor(1, 1, 1, 2, -1, -4, 2)
    single = geometric_factor(1, 1, 1, 2, -1, -1, 2)
    oracle = single * single * single * single
    assert factor == oracle
    assert factor.coefficient(2, 2, 4) == multichoose(4, 2) == 10


def test_geometric_factor_divergence():
    with pytest.raises(DivergenceError):
        geometric_factor(1, 0, 1, 1, -1, -1, 3)
    with pytest.raises(UsageError):
        geometric_factor(1, 0, 1, 1, -1, 2, 3)


def test_specialize():
    x = S({(0, 0, 0): 1, (1, 1, 2): 4, (1, 2, 2): 1}, 2)
    assert x.specialize(q_value=1) == S({(0, 0, 0): 1, (1, 0, 2): 5}, 2)
    assert x.specialize() == x
    y = S({(0, 0, 0): 1, (1, 1, 1): 2, (1, 2, 2): 1}, 2)
    assert y.specialize(q_value=1, t_value=-1) == S({(0, 0, 0): 1, (1, 0, 0): -1}, 2)


def test_factor_times_inverse_is_one():
    for exponent in (1, 2, 3):
        a = geometric_factor(Fraction(2, 3), 1, 1, 2, -1, exponent, 5)
        b = geometric_factor(Fraction(2, 3), 1, 1, 2, -1, -exponent, 5)
        assert a * b == TruncatedSeries.one(5)


def test_serialization_round_trip():
    x = S({(0, 0, 0): 1, (2, 1, 4): Fraction(-7, 3)}, 4)
    assert from_text(to_text(x)) == x
    text = to_text(x)
    assert text.splitlines()[0] == "series s_bound=4"
    assert "-7/3 2 1 4" in text


def test_serialization_rejects_bad_input():
    with pytest.raises(UsageError):
        from_text("no header\n")
    with pytest.raises(UsageError):
        from_text("series s_bound=2\n1/1 0 0\n")
    with pytest.raises(UsageError):
        from_text("series s_bound=2\n1/2/3 0 0 0\n")
    with pytest.raises(UsageError):
        # half-integer exponents are rejected, not guessed at
        from_text("series s_bound=2\n1/1 0 0.5 0\n")
    with pytest.raises(UsageError):
        from_text("series s_bound=2\n1/1 0 0 0\n2/1 0 0 0\n")


def test_from_text_rejects_zero_denominator():
    with pytest.raises(UsageError, match="zero denominator"):
        from_text("series s_bound=1\n1/0 0 0 0\n")


_coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
_exponents = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)
_series = st.dictionaries(_exponents, _coeffs, max_size=5).map(
    lambda d: TruncatedSeries(d, 3)
)


@settings(max_examples=80, deadline=None)
@given(_series, _series, _series)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=30, deadline=None)
@given(_series, _series, _series)
def test_expansion_order_is_immaterial(a, b, c):
    assert a * b * c == c * (a * b) == (c * a) * b


def test_truncation_drops_high_s_terms():
    x = S({(5, 0, 0): 1}, 3)
    assert not x.terms
    y = S({(2, 0, 0): 1}, 3) * S({(2, 0, 0): 1}, 3)
    assert not y.terms


# -- the product kernel against an independent reference ----------------------


def _naive_mul(a, b, bound):
    """The pre-kernel `TruncatedSeries.__mul__` loop over `Fraction` dicts."""
    out = {}
    for (s1, q1, t1), c1 in a.items():
        for (s2, q2, t2), c2 in b.items():
            e_s = s1 + s2
            if e_s > bound:
                continue
            exp = (e_s, q1 + q2, t1 + t2)
            acc = out.get(exp, Fraction(0)) + c1 * c2
            if acc:
                out[exp] = acc
            else:
                out.pop(exp, None)
    return out


# (a + b)(a - b) = a^2 - b^2: every cross term cancels to zero
_cancelling_pairs = st.tuples(_series, _series).map(
    lambda ab: (ab[0] + ab[1], ab[0] - ab[1])
)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.tuples(_series, _series), _cancelling_pairs))
def test_mul_matches_naive_reference(pair):
    a, b = pair
    assert a * b == TruncatedSeries(_naive_mul(a.terms, b.terms, 3), 3)


_int_terms = st.dictionaries(_exponents, st.integers(-5, 5), max_size=6)


@settings(max_examples=80, deadline=None)
@given(_int_terms, _int_terms)
def test_mul_terms_keeps_integers(a, b):
    product = _mul_terms(a, b, 3)
    assert all(type(c) is int and c for c in product.values())

    def as_fractions(terms):
        return {e: Fraction(c) for e, c in terms.items() if c}

    assert product == _naive_mul(as_fractions(a), as_fractions(b), 3)


def test_stored_coefficients_are_nonzero_fractions():
    a = geometric_factor(1, 1, 1, 2, +1, 3, 4)
    b = geometric_factor(1, 1, 1, 2, -1, 3, 4)
    for series in (a * b, a * a, refined_goettsche(ring_dims(preset("abelian")), 6)):
        assert series.terms
        assert all(type(c) is Fraction and c for c in series.terms.values())


def _naive_fold(factors, bound):
    out = {(0, 0, 0): Fraction(1)}
    for factor in factors:
        out = _naive_mul(out, geometric_factor(*factor, bound).terms, bound)
    return TruncatedSeries(out, bound)


def _goettsche_factors(pieces, bound, refined=True):
    # (1 - (-1)^d s^m q^(p+m-1) t^(d+2m-2))^(-(-1)^d count); no q when not refined
    return [
        (1, m, p + m - 1 if refined else 0, d + 2 * m - 2, -(-1) ** d, -(-1) ** d * count)
        for m in range(1, bound + 1)
        for (p, d), count in pieces
        if count
    ]


def _family_factors(case, m):
    if case == "a0":
        return [
            (1, m, m, 2 * m - 1, +1, +2),
            (1, m, m - 1, 2 * m - 2, -1, -1),
            (1, m, m + 1, 2 * m, -1, -1),
        ]
    k = int(case[len("dynkin"):])
    return [
        (1, m, m - 1, 2 * m - 2, -1, -1),
        (1, m, m, 2 * m, -1, -k),
        (1, m, m + 1, 2 * m, -1, -1),
    ]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_refined_and_betti_match_naive_fold(name):
    ring = preset(name)
    dims = sorted(ring_dims(ring).items())
    betti = sorted(((0, d), c) for d, c in ring_betti(ring).items())
    assert refined_goettsche(ring_dims(ring), 8) == _naive_fold(
        _goettsche_factors(dims, 8), 8
    )
    assert betti_goettsche(ring_betti(ring), 8) == _naive_fold(
        _goettsche_factors(betti, 8, refined=False), 8
    )


@pytest.mark.parametrize("case", CASE_NAMES)
def test_closed_form_matches_naive_fold(case):
    factors = [f for m in range(1, 9) for f in _family_factors(case, m)]
    assert closed_form(SeriesSpec.parse(case, 8)) == _naive_fold(factors, 8)


def test_euler_product_of_nothing_is_one():
    assert euler_product([], 3) == TruncatedSeries.one(3)
    with pytest.raises(DivergenceError):
        euler_product([(1, 0, 1, 1, -1, -1)], 3)


def _k3_factors(bound):
    return _goettsche_factors(sorted(ring_dims(preset("k3")).items()), bound)


def test_euler_product_is_independent_of_factor_order():
    factors = _k3_factors(8)
    random.Random(20).shuffle(factors)
    assert euler_product(factors, 8) == refined_goettsche(ring_dims(preset("k3")), 8)


_DIVERGENT = (1, 0, 1, 1, -1, -1)  # e_s = 0 with a negative exponent
_BAD_SIGN = (1, 1, 0, 0, 2, 1)


def test_euler_product_raises_on_the_first_invalid_factor():
    valid = _k3_factors(4)
    with pytest.raises(DivergenceError):
        euler_product(valid + [_DIVERGENT], 4)
    with pytest.raises(UsageError):
        euler_product(valid + [_BAD_SIGN], 4)
    # invalid factors raise in input order, whatever the fold order
    with pytest.raises(DivergenceError):
        euler_product(valid + [_DIVERGENT, _BAD_SIGN], 4)
    with pytest.raises(UsageError):
        euler_product(valid + [_BAD_SIGN, _DIVERGENT], 4)


def test_euler_product_keeps_the_accumulator_sparse(monkeypatch):
    # multiply-adds of the level fold (the source sizes of its _shift_add
    # calls): 12,463 for the k3 factors at s <= 12 in descending e_s; the
    # schoolbook fold it replaced visited 63,572 operand pairs
    work = []

    def counting(target, source, d_q, d_t, c):
        work.append(len(source))
        _shift_add(target, source, d_q, d_t, c)

    monkeypatch.setattr(exact_poly, "_shift_add", counting)
    refined_goettsche(ring_dims(preset("k3")), 12)
    assert 0 < sum(work) <= 13_000


_fold_coeffs = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)
_fold_factors = st.lists(
    st.tuples(
        _fold_coeffs,
        st.integers(1, 5),
        st.integers(0, 2),
        st.integers(0, 2),
        st.sampled_from((1, -1)),
        st.integers(-3, 3),
    ),
    max_size=5,
)


@settings(max_examples=120, deadline=None)
@given(_fold_factors, st.integers(0, 4), st.data())
def test_euler_product_matches_naive_fold(factors, bound, data):
    # mixed lists (repeats, e_s above the bound, exponents of either sign)
    # would show a level read after it was already multiplied
    repeats = data.draw(st.lists(st.sampled_from(factors), max_size=3)) if factors else []
    factors = factors + repeats
    assert euler_product(factors, bound) == _naive_fold(factors, bound)


# sha256 of to_text(refined_goettsche(ring_dims(preset(name)), 12)), pinned
# from the per-factor `Fraction` product that preceded the integer kernel
_REFINED_S12_SHA256 = {
    "abelian": "595dc76a18c0869dd27d80e6863eb22ad05828a595aa6fc7f768b6e0e631e85c",
    "e8": "00b8f5b6fec643b4f8d904b6648533d6c0fda5190d0b08f9920b9daaefabbb71",
}


@pytest.mark.parametrize("name", sorted(_REFINED_S12_SHA256))
def test_refined_s12_golden(name):
    text = to_text(refined_goettsche(ring_dims(preset(name)), 12))
    assert hashlib.sha256(text.encode()).hexdigest() == _REFINED_S12_SHA256[name]
