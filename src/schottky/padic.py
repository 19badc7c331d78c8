"""Exact p-adic valuation arithmetic on rationals.

Absolute values are carried as exact base-p exponents: the exponent e
stands for the real number p**e.  Exponents are ``Fraction``/``int``
values with ``float('-inf')`` for |0| and ``float('+inf')`` for v(0),
so ordinary comparisons and ``max``/``min`` do the right thing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

from ._record import record
from .errors import InvalidArgument, NotASquare

POS_INF = float("inf")
NEG_INF = float("-inf")

#: exact exponent of a p-adic absolute value (or +-inf sentinels)
Exponent = Union[int, Fraction, float]

Rational = Union[int, Fraction]


# Miller-Rabin to the first 13 prime bases is exact below _MR_BOUND
# (Sorenson & Webster, Math. Comp. 2017, arXiv:1509.00864).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; InvalidArgument at or above _MR_BOUND,
    where these bases no longer certify a prime."""
    if n >= _MR_BOUND:
        raise InvalidArgument(f"p = {n} is too large to certify as prime")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@record
class PrimeContext:
    """A certified prime p."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidArgument(f"p = {self.p} is not prime")


def valuation(x: Rational, p: int) -> Exponent:
    """p-adic valuation of an exact rational; +inf for 0.

    An integer prime to p costs one ``x % p``.  Otherwise one gcd with the
    window p**W, the largest power of p below 2**30 (one digit of a Python
    int), gives p**min(v, W), and a table reads off its exponent; while
    p**W divides x, a loop divides it out and takes the gcd again.
    """
    if type(x) is not int:
        x = Fraction(x)
        if x == 0:
            return POS_INF
        return valuation(x.numerator, p) - valuation(x.denominator, p)
    if x % p:
        return 0
    if x == 0:
        return POS_INF
    window, width, exponents = _WINDOWS.get(p) or _window(p)
    v = 0
    g = gcd(x, window)
    while g == window:
        x //= window
        v += width
        g = gcd(x, window)
    return v + exponents[g]


_WINDOWS = {}


def _window(p: int):
    """(p**W, W, {p**j: j for j <= W}) for the largest W >= 1 with p**W
    below 2**30, cached for p at first use; InvalidArgument unless p is
    prime (for p = 1 the powers never grow, and a composite's gcds miss
    the table)."""
    if not is_prime(p):
        raise InvalidArgument(f"p = {p} is not prime")
    powers = [1, p]
    while powers[-1] * p < 1 << 30:
        powers.append(powers[-1] * p)
    entry = _WINDOWS[p] = (powers[-1], len(powers) - 1, {q: j for j, q in enumerate(powers)})
    return entry


def abs_exponent(x: Rational, p: int) -> Exponent:
    """Base-p exponent of |x|_p, i.e. -v_p(x); -inf for 0."""
    v = valuation(x, p)
    return NEG_INF if v == POS_INF else -v


def unit_residue(x: Rational, p: int, k: int = 1) -> int:
    """The residue of the unit part x / p**v_p(x) modulo p**k (x != 0)."""
    num, den = x.numerator, x.denominator
    if num == 0:
        raise ValueError("zero has no unit part")
    m = p**k
    return num // p ** valuation(num, p) * pow(den // p ** valuation(den, p), -1, m) % m


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise NotASquare(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, sq = 0, t
        while sq != 1:
            sq = sq * sq % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        t = t * b * b % p
        c = b * b % p
        m = i
    return x
