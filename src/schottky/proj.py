"""Points of P^1(Q), homographies, classification and the chordal metric.

A homography is stored as a content-1 integer matrix whose first nonzero
entry (row-major) is positive, so equality of PGL(2, Q) classes is plain
equality of the entry tuples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional, Union

from . import padic
from .errors import NotASquare, NotASquareInQp, OddValuation
from .padic import Exponent, PadicApprox, PrimeContext, valuation


class ProjPoint:
    """A point of P^1 as a primitive integer vector (num : den), den >= 0.

    Finite points x = num/den have den > 0 and gcd(num, den) = 1; infinity
    is (1 : 0).  Two equal points always have identical representations.
    ``x``, ``y`` and ``value`` give the normalized rational coordinates
    (value : 1) or (1 : 0).
    """

    __slots__ = ("num", "den")

    def __init__(self, x, y=1):
        if not (type(x) is int and type(y) is int):
            x, y = Fraction(x), Fraction(y)
            x, y = x.numerator * y.denominator, y.numerator * x.denominator
        if x == 0 and y == 0:
            raise ValueError("(0 : 0) is not a projective point")
        _set_primitive(self, x, y)

    @staticmethod
    def infinity() -> "ProjPoint":
        return ProjPoint(1, 0)

    @property
    def is_infinity(self) -> bool:
        return self.den == 0

    @property
    def x(self) -> Fraction:
        return Fraction(1) if self.den == 0 else Fraction(self.num, self.den)

    @property
    def y(self) -> Fraction:
        return Fraction(0) if self.den == 0 else Fraction(1)

    @property
    def value(self) -> Fraction:
        if self.den == 0:
            raise ValueError("the point at infinity has no affine value")
        return Fraction(self.num, self.den)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "ProjPoint(inf)" if self.is_infinity else f"ProjPoint({self.value})"

    def __str__(self):
        if self.den == 0:
            return "inf"
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"


def _set_primitive(point: ProjPoint, num: int, den: int) -> ProjPoint:
    """Store (num : den), not both zero, as its primitive representative."""
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    if den < 0 or (den == 0 and num < 0):
        num, den = -num, -den
    point.num = num
    point.den = den
    return point


_new_point = object.__new__

INFINITY = ProjPoint.infinity()


@dataclass(frozen=True)
class Homography:
    """A PGL(2, Q) class in canonical integer form."""

    entries: tuple  # (a, b, c, d)

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "entries", _canonical_entries(a, b, c, d))

    @staticmethod
    def identity() -> "Homography":
        return Homography(1, 0, 0, 1)

    @property
    def a(self):
        return self.entries[0]

    @property
    def b(self):
        return self.entries[1]

    @property
    def c(self):
        return self.entries[2]

    @property
    def d(self):
        return self.entries[3]

    @property
    def det(self) -> int:
        a, b, c, d = self.entries
        return a * d - b * c

    @property
    def trace(self) -> int:
        return self.entries[0] + self.entries[3]

    @property
    def is_identity(self) -> bool:
        return self.entries == (1, 0, 0, 1)

    def compose(self, other: "Homography") -> "Homography":
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return Homography(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    __mul__ = compose

    def inverse(self) -> "Homography":
        a, b, c, d = self.entries
        return Homography(d, -b, -c, a)

    def apply(self, point: ProjPoint) -> ProjPoint:
        a, b, c, d = self.entries
        x, y = point.num, point.den
        return _set_primitive(_new_point(ProjPoint), a * x + b * y, c * x + d * y)

    def __repr__(self):
        a, b, c, d = self.entries
        return f"Homography({a}, {b}, {c}, {d})"


def _canonical_entries(a, b, c, d) -> tuple:
    if not (type(a) is int and type(b) is int and type(c) is int and type(d) is int):
        a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
        m = lcm(a.denominator, b.denominator, c.denominator, d.denominator)
        a, b, c, d = int(a * m), int(b * m), int(c * m), int(d * m)
    if a * d - b * c == 0:
        raise ValueError("matrix is singular")
    content = gcd(a, b, c, d)
    if content != 1:
        a, b, c, d = a // content, b // content, c // content, d // content
    # a nonsingular matrix with a = 0 has b != 0
    if a < 0 or (a == 0 and b < 0):
        return (-a, -b, -c, -d)
    return (a, b, c, d)


class ElementClass(enum.Enum):
    """Dynamical type of a homography over Q_p.

    Hyperbolic means the two eigenvalues have distinct p-adic absolute
    values; everything else is non-hyperbolic, subdivided by whether the
    characteristic polynomial has a double root.
    """

    HYPERBOLIC = "hyperbolic"
    IDENTITY = "identity"
    PARABOLIC = "parabolic"
    ELLIPTIC_OR_OTHER = "elliptic_or_other"

    @property
    def is_hyperbolic(self) -> bool:
        return self is ElementClass.HYPERBOLIC


def classify(g: Homography, ctx: PrimeContext) -> ElementClass:
    """Hyperbolic iff |tr(g)^2| > |det(g)| p-adically."""
    tr2, det = g.trace**2, g.det
    if valuation(tr2, ctx.p) < valuation(det, ctx.p):
        return ElementClass.HYPERBOLIC
    if g.is_identity:
        return ElementClass.IDENTITY
    if tr2 == 4 * det:
        return ElementClass.PARABOLIC
    return ElementClass.ELLIPTIC_OR_OTHER


def delta(x: ProjPoint, y: ProjPoint, ctx: PrimeContext) -> Exponent:
    """Base-p exponent of the chordal distance

        delta(x, y) = |x - y| / (max(1, |x|) * max(1, |y|)),

    extended to infinity by delta(x, inf) = 1 / max(1, |x|).  Equal
    points give the exponent -inf.
    """
    # For primitive integer vectors the chordal distance is |x1 y2 - x2 y1|:
    # max(1, |num/den|) = 1/|den| cancels the denominators.
    return -valuation(x.num * y.den - y.num * x.den, ctx.p)


def lipschitz_exponent(g: Homography, ctx: PrimeContext) -> Exponent:
    """Exponent of an exact Lipschitz constant for g in the chordal metric.

    For a content-1 integer matrix, delta(gx, gy) <= p**v(det) * delta(x, y):
    the sup-norm of a primitive vector drops by at most |det| under g.
    """
    return valuation(g.det, ctx.p)


#: a fixed point is exact when rational, approximate otherwise
FixedPoint = Union[ProjPoint, PadicApprox]


@dataclass(frozen=True)
class FixedPointPair:
    """The two fixed points of a non-identity homography.

    For hyperbolic elements ``attracting``/``repelling`` are tagged by
    the multiplier's absolute value; otherwise both tags are ``None``.
    Parabolic elements report their unique fixed point twice.
    """

    points: tuple
    element_class: ElementClass
    attracting: Optional[FixedPoint] = None
    repelling: Optional[FixedPoint] = None


def fixed_points(g: Homography, ctx: PrimeContext) -> FixedPointPair:
    """Solve c z^2 + (d - a) z - b = 0 in P^1.

    Returns exact points when the discriminant is a rational square and
    Hensel approximations when it is only a p-adic square; raises
    NotASquareInQp otherwise (the fixed points then live in a quadratic
    extension, which only happens for non-hyperbolic elements).
    """
    if g.is_identity:
        raise ValueError("every point is fixed by the identity")
    a, b, c, d = g.entries
    cls = classify(g, ctx)
    p = ctx.p

    if c == 0:
        if a == d:
            return FixedPointPair((INFINITY, INFINITY), cls)
        finite = ProjPoint(b, d - a)
        # eigenvalue a belongs to infinity, eigenvalue d to the finite point
        if cls.is_hyperbolic:
            if valuation(a, p) < valuation(d, p):
                return FixedPointPair((INFINITY, finite), cls, INFINITY, finite)
            return FixedPointPair((finite, INFINITY), cls, finite, INFINITY)
        return FixedPointPair((INFINITY, finite), cls)

    disc = (d - a) ** 2 + 4 * b * c  # = tr^2 - 4 det
    if disc == 0:
        z = ProjPoint(a - d, 2 * c)
        return FixedPointPair((z, z), cls)

    s = isqrt(max(disc, 0))
    if s * s == disc:
        z_plus = ProjPoint(a - d + s, 2 * c)
        z_minus = ProjPoint(a - d - s, 2 * c)
        if not cls.is_hyperbolic:
            return FixedPointPair((z_plus, z_minus), cls)
        # the eigenvalues are (tr +- s) / 2; the common /2 cancels
        if valuation(a + d + s, p) < valuation(a + d - s, p):
            return FixedPointPair((z_plus, z_minus), cls, z_plus, z_minus)
        return FixedPointPair((z_minus, z_plus), cls, z_minus, z_plus)

    try:
        s_approx = padic.hensel_sqrt(disc, ctx)
    except (OddValuation, NotASquare) as exc:
        raise NotASquareInQp(f"discriminant {disc} is not a square in Q_{p}") from exc

    half_c = Fraction(1, 2 * c)
    z_plus = s_approx.add_rational(a - d).mul_rational(half_c)
    z_minus = s_approx.mul_rational(-1).add_rational(a - d).mul_rational(half_c)
    if not cls.is_hyperbolic:
        return FixedPointPair((z_plus, z_minus), cls)
    # Hyperbolic: v(s) = v(tr) and the dominant eigenvalue (tr +- s)/2 is
    # the branch where the leading digits add instead of cancelling.
    plus_dominant = (padic.unit_residue(a + d, p) + s_approx.unit) % p != 0
    if plus_dominant:
        return FixedPointPair((z_plus, z_minus), cls, z_plus, z_minus)
    return FixedPointPair((z_minus, z_plus), cls, z_minus, z_plus)
