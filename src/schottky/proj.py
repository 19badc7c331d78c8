"""Points of P^1(Q), homographies, classification and the chordal metric.

A homography is stored as a content-1 integer matrix whose first nonzero
entry (row-major) is positive, so equality of PGL(2, Q) classes is plain
equality of the entry tuples.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional, Union

from ._record import record
from .errors import NotASquare, NotASquareInQp, UnsupportedPrime
from .padic import Exponent, PrimeContext, sqrt_mod_prime, unit_residue, valuation


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


@record
class Homography:
    """A PGL(2, Q) class in canonical integer form."""

    __slots__ = ("entries",)  # (a, b, c, d)

    def __init__(self, a, b, c, d):
        _set_entries(self, _canonical_entries(a, b, c, d))

    @staticmethod
    def identity() -> "Homography":
        return _IDENTITY

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
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        # The rule of _primitive in one pass: a product of nonsingular
        # matrices is nonsingular, so a = 0 leaves b != 0, and dividing by
        # the content with the sign of the first nonzero entry leaves that
        # entry positive.
        content = gcd(a, b, c, d)
        if a < 0 or (a == 0 and b < 0):
            content = -content
        if content != 1:
            a, b, c, d = a // content, b // content, c // content, d // content
        product = _new_homography(Homography)
        _set_entries(product, (a, b, c, d))
        return product

    __mul__ = compose

    def inverse(self) -> "Homography":
        a, b, c, d = self.entries
        # the adjugate of a content-1 matrix has content 1
        return _trusted(_signed(d, -b, -c, a))

    def apply(self, point: ProjPoint) -> ProjPoint:
        a, b, c, d = self.entries
        x, y = point.num, point.den
        return _set_primitive(_new_point(ProjPoint), a * x + b * y, c * x + d * y)

    # == and hash are those of the entries tuple, written out because
    # products are hashed in the coset search
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash((self.entries,))

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
    return _primitive(a, b, c, d)


def _primitive(a: int, b: int, c: int, d: int) -> tuple:
    """Canonical entries of a nonsingular integer matrix: content 1 and a
    positive first nonzero entry."""
    content = gcd(a, b, c, d)
    if content != 1:
        a, b, c, d = a // content, b // content, c // content, d // content
    return _signed(a, b, c, d)


def _signed(a: int, b: int, c: int, d: int) -> tuple:
    """Canonical entries of a nonsingular content-1 integer matrix."""
    # a nonsingular matrix with a = 0 has b != 0
    if a < 0 or (a == 0 and b < 0):
        return (-a, -b, -c, -d)
    return (a, b, c, d)


_new_homography = object.__new__
# The slot's own setter, which the frozen __setattr__ does not guard.
_set_entries = vars(Homography)["entries"].__set__


def _trusted(entries: tuple) -> Homography:
    """A Homography over entries that are already canonical, without the
    type and determinant checks of ``Homography(...)``."""
    g = _new_homography(Homography)
    _set_entries(g, entries)
    return g


# Homographies are immutable, so one identity serves every caller.
_IDENTITY = _trusted((1, 0, 0, 1))


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


@record
class QuadPoint:
    """The point x + w of Q_p, for p odd, where w**2 = D is rational and a
    p-adic square but no rational square, and r (0 < r < p) is the unit
    part of w modulo p, which tells w from -w.

    Such a point has one representation, so equality and the hash are
    those of the fields.
    """

    x: Fraction
    D: Fraction
    r: int
    p: int


#: a fixed point is exact: rational, or rational plus a quadratic irrationality
FixedPoint = Union[ProjPoint, QuadPoint]


@record
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

    The roots are z+- = (a - d +- s : 2c), s**2 = disc = tr^2 - 4 det, with
    s = a - d when c = 0, which puts infinity first.  Where that vector is
    (0 : 0), which needs c = 0, z+- is (-2b : a - d -+ s), the same point
    as (a - d + s)(a - d - s) = -4bc; one of the two is nonzero unless g
    is the identity.  The roots are ``ProjPoint``s when disc is a rational
    square, as it is when c = 0, and otherwise ``QuadPoint(x, D, r, p)``
    with x = (a - d) / 2c and D = disc / 4c^2 when disc is a p-adic square
    (NotASquareInQp when it is not: the fixed points then lie in a
    quadratic extension, which only happens for non-hyperbolic elements).
    Write rho for the unit part modulo p, which is multiplicative.  The
    root s is the one with rho(s) in 1..(p-1)/2, and z+- = x +- s/2c carry
    the digits r = +-rho(s) / rho(2c) mod p.

    z+ attracts iff v(tr + s) < v(tr - s), the eigenvalues being
    (tr +- s) / 2.  For hyperbolic g, v(tr^2) < v(det), so v(s) = v(tr) = t,
    and exactly one of tr +- s has valuation t: their sum 2 tr has
    valuation t, their product 4 det more than 2t.  The difference of two
    numbers of valuation t has valuation more than t iff their unit parts
    agree modulo p, so v(tr - s) > t iff rho(s) = rho(tr) mod p: z+
    attracts exactly then.  A rational s is tagged by its valuations,
    which is the same rule for p odd and also serves p = 2.
    """
    if g.is_identity:
        raise ValueError("every point is fixed by the identity")
    a, b, c, d = g.entries
    cls = classify(g, ctx)
    p = ctx.p

    disc = (d - a) ** 2 + 4 * b * c  # = tr^2 - 4 det
    s = a - d if c == 0 else isqrt(max(disc, 0))
    if s * s == disc:
        z_plus, z_minus = (
            ProjPoint(a - d + e, 2 * c) if a - d + e or c else ProjPoint(-2 * b, a - d - e)
            for e in (s, -s)
        )
        plus_attracts = cls.is_hyperbolic and valuation(a + d + s, p) < valuation(a + d - s, p)
    else:
        if p == 2:
            raise UnsupportedPrime("p = 2 square roots are not supported")
        try:
            if valuation(disc, p) % 2:
                raise NotASquare(f"v_{p}({disc}) is odd")
            rho = sqrt_mod_prime(unit_residue(disc, p), p)
        except NotASquare as exc:
            raise NotASquareInQp(f"discriminant {disc} is not a square in Q_{p}") from exc
        rho = min(rho, p - rho)
        x, D = Fraction(a - d, 2 * c), Fraction(disc, 4 * c * c)
        r = unit_residue(Fraction(rho, 2 * c), p)
        z_plus, z_minus = QuadPoint(x, D, r, p), QuadPoint(x, D, p - r, p)
        plus_attracts = cls.is_hyperbolic and rho == unit_residue(a + d, p)
    if not cls.is_hyperbolic:
        return FixedPointPair((z_plus, z_minus), cls)
    if plus_attracts:
        return FixedPointPair((z_plus, z_minus), cls, z_plus, z_minus)
    return FixedPointPair((z_minus, z_plus), cls, z_minus, z_plus)
