import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import event, example, given, strategies as st

import fraction_oracle as oracle
from conftest import child_env
from hensel_oracle import OddValuation, PadicApprox, PrecisionExhausted, hensel_sqrt, quotient
from schottky.errors import InvalidArgument, NotASquare, UnsupportedPrime
from schottky.padic import (
    NEG_INF,
    POS_INF,
    PrimeContext,
    abs_exponent,
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
    PrimeContext(2)  # p = 2 is fine outside square roots


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


@given(
    p=st.sampled_from([2, 3, 5, 7, 11]),
    v=st.integers(0, 400),
    unit=st.integers(1, 10**40),
    sign=st.sampled_from([1, -1]),
)
def test_valuation_matches_repeated_division(p, v, unit, sign):
    # past the window p**W, the largest power of p below 2**30, the
    # valuation divides p**W out in a loop
    x = sign * unit * p**v
    assert valuation(x, p) == oracle._int_valuation(x, p)


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


# p = 1 (or True) gave a window of powers that never grew, so these calls
# never returned; a composite or negative p missed the window's table
@pytest.mark.parametrize(
    "call, p",
    [
        ("valuation(10, 1)", 1),
        ("valuation(10, True)", True),
        ("abs_exponent(10, 1)", 1),
        ("Disk.open_disk(0, 0, 1)", 1),
        ("valuation(8, 4)", 4),
        ("valuation(10, -5)", -5),
    ],
)
def test_a_p_that_is_not_prime_is_refused(call, p):
    """Run in a child with 512 MB of address space and 5 s, so a call that
    loops ends the test quickly."""
    code = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from schottky.disks import Disk
from schottky.errors import InvalidArgument
from schottky.padic import abs_exponent, valuation
try:
    {call}
except InvalidArgument as exc:
    print(exc)
"""
    result = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=5
    )
    assert (result.returncode, result.stdout) == (0, f"p = {p} is not prime\n"), result.stderr


@given(x=rationals.filter(bool), p=st.sampled_from([2, 3, 5, 7]), k=st.integers(1, 8))
def test_unit_residue_matches_the_fraction_reference(x, p, k):
    assert unit_residue(x, p, k) == oracle.unit_residue(x, p, k)
    assert unit_residue(x.numerator, p, k) == oracle.unit_residue(x.numerator, p, k)


def test_unit_residue_of_zero_raises():
    with pytest.raises(ValueError):
        unit_residue(0, 5)


# The Hensel root and the quotient below are the reference for exact
# quadratic fixed points (tests/hensel_oracle.py); they are tested here.


def test_hensel_sqrt_of_6_matches_exhaustive_search():
    root = hensel_sqrt(6, 5, 2)
    # oracle: all square roots of 6 modulo 25 by exhaustion
    oracle = sorted(x for x in range(25) if (x * x - 6) % 25 == 0)
    assert root.unit in oracle
    assert root.unit == 16  # the root with leading digit in {1, 2}
    assert root.valuation == 0


def test_hensel_sqrt_rational_square():
    root = hensel_sqrt(4, 5, 8)
    assert root.valuation == 0
    assert root.unit == 2


def test_hensel_sqrt_errors():
    with pytest.raises(OddValuation):
        hensel_sqrt(5, 5, 4)
    with pytest.raises(NotASquare):
        hensel_sqrt(2, 5, 4)  # 2 is a non-residue mod 5
    with pytest.raises(UnsupportedPrime):
        hensel_sqrt(9, 2, 4)
    with pytest.raises(ValueError):
        hensel_sqrt(0, 5, 4)


@pytest.mark.parametrize("a", [Fraction(6), Fraction(11), Fraction(150), Fraction(6, 49)])
def test_hensel_sqrt_squares_back(a):
    n = 10
    root = hensel_sqrt(a, 5, n)
    v = valuation(a, 5)
    modulus = 5 ** (v + n)
    # (unit * 5^(v/2))^2 == a modulo p^(v + N)
    lhs = root.unit**2 * 5 ** (2 * root.valuation)
    rhs_unit = unit_residue(a, 5, n)
    assert (lhs - rhs_unit * 5**v) % modulus == 0


@pytest.mark.parametrize("a", [6, 11, 31, Fraction(14, 9)])
def test_hensel_sqrt_refinement(a):
    # the N-digit root is the truncation of the (N+1)-digit root
    for n in (2, 5, 9):
        lo = hensel_sqrt(a, 5, n)
        hi = hensel_sqrt(a, 5, n + 1)
        assert hi.unit % 5**n == lo.unit


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    k=st.integers(1, 6),
    u=st.integers(-50, 50),
    j=st.integers(0, 8),
    q=st.integers(-3, 3),
    den=st.integers(-(10**4), 10**4).filter(bool),
    e=st.integers(0, 3),
)
@example(p=5, k=3, u=0, j=0, q=1, den=1, e=0)  # num = 5**3, known to be 0
@example(p=5, k=3, u=1, j=2, q=-2, den=2, e=0)  # num = 25 - 250
def test_quotient_matches_its_fraction_definition(p, k, u, j, q, den, e):
    """num = t + q * p**k is known modulo p**k through t = u * p**j, so
    num / den is known modulo p**(k - v(den)); the quotient has exactly
    the digits from its valuation up to there, and none when t = 0
    modulo p**k."""
    num, den = u * p**j + q * p**k, den * p**e
    if num % p**k == 0:
        event("no digit known")
        with pytest.raises(PrecisionExhausted):
            quotient(num, den, p, k)
        return
    z = quotient(num, den, p, k)
    event(f"precision {z.precision}")
    assert z.valuation == valuation(num % p**k, p) - valuation(den, p)
    assert z.precision == k - valuation(num % p**k, p)
    assert z.modulus_exponent == k - valuation(den, p)
    assert 0 < z.unit < p**z.precision and z.unit % p != 0
    error = Fraction(num, den) - z.unit * Fraction(p) ** z.valuation
    assert valuation(error, p) >= z.modulus_exponent


def test_approx_rejects_bad_units():
    with pytest.raises(ValueError):
        PadicApprox(0, 10, 5, 3)  # divisible by 5
    with pytest.raises(ValueError):
        PadicApprox(0, 125, 5, 3)  # out of range
