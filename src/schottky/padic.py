"""Exact p-adic valuation arithmetic on rationals.

Absolute values are carried as exact base-p exponents: the exponent e
stands for the real number p**e.  Exponents are ``Fraction``/``int``
values with ``float('-inf')`` for |0| and ``float('+inf')`` for v(0),
so ordinary comparisons and ``max``/``min`` do the right thing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InvalidArgument, NotASquare, OddValuation, PrecisionExhausted, UnsupportedPrime

POS_INF = float("inf")
NEG_INF = float("-inf")

#: exact exponent of a p-adic absolute value (or +-inf sentinels)
Exponent = Union[int, Fraction, float]

DEFAULT_PRECISION = 64

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


@dataclass(frozen=True)
class PrimeContext:
    """A prime p together with the digit precision N used by approximations."""

    p: int
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidArgument(f"p = {self.p} is not prime")
        if self.precision < 1:
            raise InvalidArgument("precision must be >= 1")


def valuation(x: Rational, p: int) -> Exponent:
    """p-adic valuation of an exact rational; +inf for 0."""
    if type(x) is not int:
        x = Fraction(x)
        if x == 0:
            return POS_INF
        return valuation(x.numerator, p) - valuation(x.denominator, p)
    if x == 0:
        return POS_INF
    v = 0
    while x % p == 0:
        x //= p
        v += 1
        if v == _PLAIN_STEPS:
            return v + _deep_valuation(x, p)
    return v


# Most valuations are small; past this many factors of p, dividing one at a
# time costs O(v) divisions of a long x, so the rest is stripped by squares.
_PLAIN_STEPS = 16


def _deep_valuation(x: int, p: int) -> int:
    """v_p(x) for x != 0: strip p, p^2, p^4, ... while they divide x, then
    the same powers in decreasing order, which strips the remainder's
    valuation (below the first power that failed) bit by bit."""
    powers = [p]
    v = 0
    while True:
        q, r = divmod(x, powers[-1])
        if r:
            break
        x = q
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for i in range(len(powers) - 2, -1, -1):
        q, r = divmod(x, powers[i])
        if not r:
            x = q
            v += 1 << i
    return v


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


@dataclass(frozen=True)
class PadicApprox:
    """A nonzero p-adic number known modulo p**(valuation + precision).

    Represents unit * p**valuation with 0 < unit < p**precision and p not
    dividing unit.  ``precision`` is the number of known base-p digits and
    may be smaller than the context default when digits were lost to
    cancellation.
    """

    valuation: int
    unit: int
    context: PrimeContext

    def __post_init__(self):
        p, n = self.context.p, self.context.precision
        if not (0 < self.unit < p**n):
            raise ValueError("unit out of range for the stated precision")
        if self.unit % p == 0:
            raise ValueError("unit must be prime to p")

    @property
    def precision(self) -> int:
        return self.context.precision

    @property
    def modulus_exponent(self) -> int:
        """The power of p modulo which the value is known."""
        return self.valuation + self.precision

    def abs_exponent(self) -> Exponent:
        return -self.valuation

    def residue(self, k: int) -> int:
        """The value modulo p**k, for k <= valuation + precision."""
        if k > self.modulus_exponent:
            raise PrecisionExhausted(f"only {self.precision} digits known")
        p = self.context.p
        if k <= self.valuation:
            return 0
        return self.unit * p**self.valuation % p**k

    def __str__(self):
        p = self.context.p
        return f"{self.unit}*{p}^{self.valuation} + O({p}^{self.modulus_exponent})"


def quotient(num: int, den: int, p: int, k: int) -> PadicApprox:
    """num / den for an integer num known modulo p**k and an exact nonzero
    integer den.

    The digits of num below p**k are its residue r; the quotient has
    valuation v(r) - v(den) and the k - v(r) digits that r determines.
    PrecisionExhausted when r = 0, where no digit is known.
    """
    r = num % p**k
    if r == 0:
        raise PrecisionExhausted(f"the numerator is 0 modulo {p}^{k}; no digit is known")
    v, w = valuation(r, p), valuation(den, p)
    m = p ** (k - v)
    unit = r // p**v * pow(den // p**w, -1, m) % m
    return PadicApprox(v - w, unit, PrimeContext(p, k - v))


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


def hensel_sqrt(a: Rational, ctx: PrimeContext) -> PadicApprox:
    """Square root of a nonzero rational in Q_p, to N digits.

    Requires p odd and v_p(a) even, with the unit part a quadratic
    residue mod p.  Of the two roots the one whose leading digit lies
    in {1, ..., (p-1)/2} is returned, so refining the precision only
    appends digits.
    """
    p, n = ctx.p, ctx.precision
    if p == 2:
        raise UnsupportedPrime("p = 2 square roots are not supported")
    a = Fraction(a)
    if a == 0:
        raise ValueError("square root of zero: use the zero approximation directly")
    v = valuation(a, p)
    if v % 2 != 0:
        raise OddValuation(f"v_{p}({a}) = {v} is odd")
    u = unit_residue(a, p, n)
    r = sqrt_mod_prime(u, p)  # raises NotASquare
    # Newton lifting of the unit square root, doubling digits each pass.
    k = 1
    while k < n:
        k = min(2 * k, n)
        m = p**k
        r = (r + u % m * pow(r, -1, m)) * pow(2, -1, m) % m
    if r % p > (p - 1) // 2:
        r = p**n - r
    return PadicApprox(v // 2, r, ctx)
