"""Irrational fixed points by Hensel lifting: the reference for QuadPoint.

Before fixed points were exact, a fixed point whose discriminant is a
p-adic square but no rational one was a ``PadicApprox``: a Hensel square
root s of the discriminant, known to N digits, and the quotients
(a - d +- s) / (2c) of numerators known modulo p**k.  That code is kept
here, with the digit count a plain argument, at ``PRECISION`` digits by
default; ``digits`` expands an exact ``QuadPoint`` to the same modulus so
the two can be compared digit for digit.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from schottky.errors import NotASquare, NotASquareInQp, UnsupportedPrime
from schottky.padic import PrimeContext, sqrt_mod_prime, unit_residue, valuation
from schottky.proj import FixedPointPair, QuadPoint, classify

PRECISION = 200


class OddValuation(ValueError):
    """Square root requested for an element of odd valuation."""


class PrecisionExhausted(ArithmeticError):
    """A p-adic approximation lost all significant digits."""


@dataclass(frozen=True)
class PadicApprox:
    """A nonzero p-adic number known modulo p**(valuation + precision).

    Represents unit * p**valuation with 0 < unit < p**precision and p not
    dividing unit.  ``precision`` is the number of known base-p digits.
    """

    valuation: int
    unit: int
    p: int
    precision: int

    def __post_init__(self):
        if not (0 < self.unit < self.p**self.precision):
            raise ValueError("unit out of range for the stated precision")
        if self.unit % self.p == 0:
            raise ValueError("unit must be prime to p")

    @property
    def modulus_exponent(self) -> int:
        """The power of p modulo which the value is known."""
        return self.valuation + self.precision

    def residue(self, k: int) -> int:
        """The value modulo p**k, for k <= valuation + precision."""
        if k > self.modulus_exponent:
            raise PrecisionExhausted(f"only {self.precision} digits known")
        if k <= self.valuation:
            return 0
        return self.unit * self.p**self.valuation % self.p**k


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
    return PadicApprox(v - w, unit, p, k - v)


def hensel_sqrt(a, p: int, n: int = PRECISION) -> PadicApprox:
    """Square root of a nonzero rational in Q_p, to n digits.

    Requires p odd and v_p(a) even, with the unit part a quadratic
    residue mod p.  Of the two roots the one whose leading digit lies
    in {1, ..., (p-1)/2} is returned, so refining the precision only
    appends digits.
    """
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
    return PadicApprox(v // 2, r, p, n)


def fixed_points(g, p: int, n: int = PRECISION) -> FixedPointPair:
    """The fixed points of a non-identity g with a discriminant that is no
    rational square, as approximations: z+- = (a - d +- s) / (2c) for the
    n-digit Hensel root s.  z+ attracts iff v(tr + s) < v(tr - s); the
    integer representative of s decides as s does, being known past
    v(tr)."""
    a, b, c, d = g.entries
    disc = (d - a) ** 2 + 4 * b * c
    if c == 0 or isqrt(max(disc, 0)) ** 2 == disc:
        raise ValueError("the discriminant is a rational square")
    cls = classify(g, PrimeContext(p))
    try:
        root = hensel_sqrt(disc, p, n)
    except (OddValuation, NotASquare) as exc:
        raise NotASquareInQp(f"discriminant {disc} is not a square in Q_{p}") from exc
    s, k = root.unit * p**root.valuation, root.modulus_exponent
    z_plus = quotient(a - d + s, 2 * c, p, k)
    z_minus = quotient(a - d - s, 2 * c, p, k)
    if not cls.is_hyperbolic:
        return FixedPointPair((z_plus, z_minus), cls)
    if valuation(a + d + s, p) < valuation(a + d - s, p):
        return FixedPointPair((z_plus, z_minus), cls, z_plus, z_minus)
    return FixedPointPair((z_minus, z_plus), cls, z_minus, z_plus)


def digits(z: QuadPoint, modulus_exponent: int) -> PadicApprox:
    """x + w modulo p**modulus_exponent, w lifted from w**2 = D by Hensel
    steps and picked by its leading digit r; PrecisionExhausted when
    x + w is 0 there."""
    p = z.p
    t = valuation(z.D, p) // 2
    root = hensel_sqrt(z.D, p, max(modulus_exponent - t, 1))
    unit = root.unit if root.unit % p == z.r else p**root.precision - root.unit
    total = z.x + unit * Fraction(p) ** t
    v = valuation(total, p)
    if v >= modulus_exponent:
        raise PrecisionExhausted(f"x + w is 0 modulo {p}^{modulus_exponent}")
    precision = modulus_exponent - v
    return PadicApprox(v, unit_residue(total, p, precision), p, precision)

