"""Reference fixed points, by the branches that ``proj.fixed_points``
took before one root formula served every rational pair.

An upper-triangular g (c = 0) was solved as an affine map: a double root
at infinity when a = d, and otherwise infinity and (b : d - a), ordered
by v(a) < v(d) when g is hyperbolic.  A zero discriminant gave the
double root (a - d : 2c), and the rest took the root formula that the
library keeps.  ``test_proj.py`` compares the library with this body,
results and raised errors alike.
"""

from fractions import Fraction
from math import isqrt

from schottky.errors import NotASquare, NotASquareInQp, UnsupportedPrime
from schottky.padic import PrimeContext, sqrt_mod_prime, unit_residue, valuation
from schottky.proj import INFINITY, FixedPointPair, Homography, ProjPoint, QuadPoint, classify


def fixed_points(g: Homography, ctx: PrimeContext) -> FixedPointPair:
    """The fixed points of g, tagged as the library tags them."""
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
