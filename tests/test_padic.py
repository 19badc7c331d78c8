import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import fraction_oracle as oracle
from schottky.errors import InvalidArgument, NotASquare, OddValuation, UnsupportedPrime
from schottky.padic import (
    NEG_INF,
    POS_INF,
    PadicApprox,
    PrimeContext,
    abs_exponent,
    approx_from_rational,
    hensel_sqrt,
    is_prime,
    unit_residue,
    valuation,
)

rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**6
)


def test_valuation_examples():
    assert valuation(25, 5) == 2
    assert valuation(Fraction(1, 25), 5) == -2
    assert valuation(0, 5) == POS_INF


def test_abs_exponent_examples():
    assert abs_exponent(Fraction(1, 5), 5) == 1
    assert abs_exponent(6, 5) == 0
    assert abs_exponent(0, 5) == NEG_INF


def test_prime_context_validation():
    with pytest.raises(ValueError):
        PrimeContext(6)
    with pytest.raises(ValueError):
        PrimeContext(5, 0)
    PrimeContext(2)  # p = 2 is fine outside hensel_sqrt


def test_is_prime_matches_a_sieve():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, n, i))
    assert [is_prime(k) for k in range(n)] == sieve


@pytest.mark.parametrize(
    "n", (3215031751, 3825123056546413051, 318665857834031151167461)
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    assert not is_prime(n)


def test_large_prime_is_certified_fast_up_to_the_bound():
    start = time.perf_counter()
    PrimeContext(2**61 - 1)
    assert time.perf_counter() - start < 0.5
    # from here on the 13 bases no longer certify a prime
    with pytest.raises(InvalidArgument, match="too large to certify"):
        PrimeContext(3317044064679887385961981)


@given(x=rationals, y=rationals)
def test_valuation_is_additive(x, y):
    p = 5
    if x == 0 or y == 0:
        assert valuation(x * y, p) == POS_INF
        return
    assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


@given(x=rationals, y=rationals)
def test_valuation_ultrametric(x, y):
    p = 5
    vx, vy = valuation(x, p), valuation(y, p)
    vs = valuation(x + y, p)
    assert vs >= min(vx, vy)
    if vx != vy:
        assert vs == min(vx, vy)


@given(x=rationals.filter(bool), p=st.sampled_from([2, 3, 5, 7]), k=st.integers(1, 8))
def test_unit_residue_matches_the_fraction_reference(x, p, k):
    assert unit_residue(x, p, k) == oracle.unit_residue(x, p, k)
    assert unit_residue(x.numerator, p, k) == oracle.unit_residue(x.numerator, p, k)


def test_unit_residue_of_zero_raises():
    with pytest.raises(ValueError):
        unit_residue(0, 5)


def test_hensel_sqrt_of_6_matches_exhaustive_search():
    ctx = PrimeContext(5, 2)
    root = hensel_sqrt(6, ctx)
    # oracle: all square roots of 6 modulo 25 by exhaustion
    oracle = sorted(x for x in range(25) if (x * x - 6) % 25 == 0)
    assert root.unit in oracle
    assert root.unit == 16  # the root with leading digit in {1, 2}
    assert root.valuation == 0


def test_hensel_sqrt_rational_square():
    root = hensel_sqrt(4, PrimeContext(5, 8))
    assert root.valuation == 0
    assert root.unit == 2


def test_hensel_sqrt_errors():
    with pytest.raises(OddValuation):
        hensel_sqrt(5, PrimeContext(5, 4))
    with pytest.raises(NotASquare):
        hensel_sqrt(2, PrimeContext(5, 4))  # 2 is a non-residue mod 5
    with pytest.raises(UnsupportedPrime):
        hensel_sqrt(9, PrimeContext(2, 4))
    with pytest.raises(ValueError):
        hensel_sqrt(0, PrimeContext(5, 4))


@pytest.mark.parametrize("a", [Fraction(6), Fraction(11), Fraction(150), Fraction(6, 49)])
def test_hensel_sqrt_squares_back(a):
    ctx = PrimeContext(5, 10)
    root = hensel_sqrt(a, ctx)
    v = valuation(a, 5)
    modulus = 5 ** (v + ctx.precision)
    # (unit * 5^(v/2))^2 == a modulo p^(v + N)
    lhs = root.unit**2 * 5 ** (2 * root.valuation)
    rhs_unit = unit_residue(a, 5, ctx.precision)
    assert (lhs - rhs_unit * 5**v) % modulus == 0


@pytest.mark.parametrize("a", [6, 11, 31, Fraction(14, 9)])
def test_hensel_sqrt_refinement(a):
    # the N-digit root is the truncation of the (N+1)-digit root
    for n in (2, 5, 9):
        lo = hensel_sqrt(a, PrimeContext(5, n))
        hi = hensel_sqrt(a, PrimeContext(5, n + 1))
        assert hi.unit % 5**n == lo.unit


def test_approx_add_rational_tracks_cancellation():
    ctx = PrimeContext(5, 6)
    x = approx_from_rational(Fraction(7), ctx)
    y = x.add_rational(-7 + 125)
    assert y.valuation == 3
    assert y.residue(4) == 125


def test_approx_mul_rational():
    ctx = PrimeContext(5, 6)
    x = approx_from_rational(2, ctx).mul_rational(Fraction(3, 7))
    want = approx_from_rational(Fraction(6, 7), ctx)
    assert (x.valuation, x.unit) == (want.valuation, want.unit)


def test_approx_rejects_bad_units():
    ctx = PrimeContext(5, 3)
    with pytest.raises(ValueError):
        PadicApprox(0, 10, ctx)  # divisible by 5
    with pytest.raises(ValueError):
        PadicApprox(0, 125, ctx)  # out of range
