"""Reference implementations of the point and disk kernel in Fraction arithmetic.

These are the straightforward rational versions that the integer kernel
in ``schottky.proj`` and ``schottky.disks`` replaced: points normalized
to (value : 1) or (1 : 0), homographies applied to rational coordinates,
disks canonicalized through ``Fraction`` and imaged by composing
translations, scalings and the inversion, each with its own canonical
intermediate disk.  The text formatters are the ones that ``str()``
replaced in ``schottky.serialize`` and ``schottky.cli``.  Element
classification, fixed points and the least-squares envelope fit are the
Fraction versions that integer arithmetic replaced in ``schottky.proj``
and ``schottky.groups``.  They import nothing from the library (the
p-adic square root of a fixed-point discriminant is passed in), so the
property tests in ``test_kernel_oracle.py`` compare two independent
computations.

Points are pairs ``(x, y)`` of ``Fraction``; homographies are integer
4-tuples ``(a, b, c, d)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

POS_INF = float("inf")
NEG_INF = float("-inf")


class Inside(Exception):
    """The point lies in the disk, so it has no positive distance to it."""


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x, p: int):
    x = Fraction(x)
    if x == 0:
        return POS_INF
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def abs_exponent(x, p: int):
    v = valuation(x, p)
    return NEG_INF if v == POS_INF else -v


def unit_residue(x, p: int, k: int) -> int:
    x = Fraction(x)
    u = x / Fraction(p) ** valuation(x, p)
    m = p**k
    return u.numerator * pow(u.denominator, -1, m) % m


# -- text ----------------------------------------------------------------------


def rational_str(x) -> str:
    """"a" or "a/b" in lowest terms."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def exp_str(e) -> str:
    """An exponent: a rational, or "inf"/"-inf" for the sentinels."""
    if e == NEG_INF:
        return "-inf"
    if e == POS_INF:
        return "inf"
    return rational_str(e)


def point_str(pt) -> str:
    return "inf" if pt[1] == 0 else rational_str(pt[0])


# -- points and homographies ---------------------------------------------------


def point(x, y=Fraction(1)):
    """Normalized homogeneous coordinates: (value, 1) or (1, 0)."""
    x, y = Fraction(x), Fraction(y)
    if x == 0 and y == 0:
        raise ValueError("(0 : 0) is not a projective point")
    if y == 0:
        return Fraction(1), Fraction(0)
    return x / y, Fraction(1)


INFINITY = point(1, 0)


def canonical_entries(a, b, c, d) -> tuple:
    """Content-1 integer matrix whose first nonzero entry is positive."""
    a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
    lcm = 1
    for x in (a, b, c, d):
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    a, b, c, d = int(a * lcm), int(b * lcm), int(c * lcm), int(d * lcm)
    if a * d - b * c == 0:
        raise ValueError("matrix is singular")
    content = gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d)))
    a, b, c, d = a // content, b // content, c // content, d // content
    for x in (a, b, c, d):
        if x != 0:
            if x < 0:
                return (-a, -b, -c, -d)
            break
    return (a, b, c, d)


def apply(entries, pt):
    a, b, c, d = entries
    x, y = pt
    return point(a * x + b * y, c * x + d * y)


def delta(x, y, p: int):
    """Exponent of |x - y| / (max(1, |x|) max(1, |y|)), with infinity."""
    if x == y:
        return NEG_INF
    if x[1] == 0:
        return -max(0, abs_exponent(y[0], p))
    if y[1] == 0:
        return -max(0, abs_exponent(x[0], p))
    return (
        abs_exponent(x[0] - y[0], p)
        - max(0, abs_exponent(x[0], p))
        - max(0, abs_exponent(y[0], p))
    )


# -- disks -------------------------------------------------------------------


def _canonical_center(center: Fraction, min_valuation, p: int) -> Fraction:
    w = valuation(center, p)
    if w >= min_valuation:
        return Fraction(0)
    k = int(min_valuation - w)
    r = unit_residue(center, p, k)
    m = p**k
    rep = r if r <= m - r else r - m
    return Fraction(rep) * Fraction(p) ** w


@dataclass(frozen=True)
class Disk:
    """A bounded disk, or for ``bounded=False`` the complement of the
    bounded disk with the opposite openness."""

    bounded: bool
    is_open: bool
    center: Fraction
    radius_exp: Fraction
    p: int

    def __init__(self, bounded, is_open, center, radius_exp, p):
        object.__setattr__(self, "bounded", bool(bounded))
        object.__setattr__(self, "is_open", bool(is_open))
        object.__setattr__(self, "radius_exp", Fraction(radius_exp))
        object.__setattr__(self, "p", int(p))
        object.__setattr__(
            self, "center", _canonical_center(Fraction(center), self.min_valuation(), p)
        )

    def min_valuation(self):
        open_boundary = self.is_open if self.bounded else not self.is_open
        e = self.radius_exp
        if open_boundary:
            return math.floor(-e) + 1
        return math.ceil(-e)

    def fields(self) -> tuple:
        return (self.bounded, self.is_open, self.center, self.radius_exp, self.p)

    def complement(self) -> "Disk":
        return Disk(not self.bounded, not self.is_open, self.center, self.radius_exp, self.p)

    def contains(self, pt) -> bool:
        if not self.bounded:
            return pt[1] == 0 or not self.complement().contains(pt)
        if pt[1] == 0:
            return False
        d = abs_exponent(pt[0] - self.center, self.p)
        return d < self.radius_exp if self.is_open else d <= self.radius_exp

    def sup_abs_exponent(self):
        return max(abs_exponent(self.center, self.p), self.radius_exp)


def _translate(D: Disk, t: Fraction) -> Disk:
    return Disk(D.bounded, D.is_open, D.center + t, D.radius_exp, D.p)


def _scale(D: Disk, s: Fraction) -> Disk:
    return Disk(D.bounded, D.is_open, D.center * s, D.radius_exp + abs_exponent(s, D.p), D.p)


def _invert(D: Disk) -> Disk:
    if not D.bounded:
        return _invert(D.complement()).complement()
    e, al, p = D.radius_exp, D.center, D.p
    ea = abs_exponent(al, p)
    if (D.is_open and ea >= e) or (not D.is_open and ea > e):
        return Disk(True, D.is_open, 1 / al, e - 2 * ea, p)
    return Disk(False, D.is_open, Fraction(0), -e, p)


def image(entries, D: Disk) -> Disk:
    a, b, c, d = entries
    if c == 0:
        return _translate(_scale(D, Fraction(a, d)), Fraction(b, d))
    out = _translate(D, Fraction(d, c))
    out = _invert(out)
    out = _scale(out, Fraction(-(a * d - b * c), c * c))
    return _translate(out, Fraction(a, c))


def closure(D: Disk) -> Disk:
    """The closed disk with the same radius; P^1 - E(a, r) closes to P^1 - B(a, r)."""
    if not D.is_open:
        return D
    return Disk(D.bounded, False, D.center, D.radius_exp, D.p)


def contains_disk(D1: Disk, D2: Disk) -> bool:
    """D2 is a subset of D1."""
    if D1.bounded and not D2.bounded:
        return False
    if not D1.bounded and not D2.bounded:
        return contains_disk(D2.complement(), D1.complement())
    if not D1.bounded and D2.bounded:
        return disjoint(D2, D1.complement())
    if not D1.contains(point(D2.center)):
        return False
    e1, e2 = D1.radius_exp, D2.radius_exp
    if e2 != e1:
        return e2 < e1
    return D1.is_open == D2.is_open or D1.is_open is False


def disjoint(D1: Disk, D2: Disk) -> bool:
    """Two disks are nested or disjoint; two unbounded ones share infinity."""
    if not D1.bounded and not D2.bounded:
        return False
    if not D1.bounded:
        return contains_disk(D1.complement(), D2)
    if not D2.bounded:
        return contains_disk(D2.complement(), D1)
    return not (D1.contains(point(D2.center)) or D2.contains(point(D1.center)))


def min_delta_disjoint_disks(D1: Disk, D2: Disk, p: int):
    """Exponent of inf delta(x, y) over x in D1, y in D2; ValueError if they meet."""
    if not disjoint(D1, D2):
        raise ValueError("disks intersect")
    if not D2.bounded:
        D1, D2 = D2, D1
    s2 = max(0, D2.sup_abs_exponent())
    if D1.bounded:
        return abs_exponent(D1.center - D2.center, p) - max(0, D1.sup_abs_exponent()) - s2
    h = D1.radius_exp
    return h - max(0, abs_exponent(D1.center, p), h) - s2


def point_to_disk_delta(pt, D: Disk, p: int):
    """Exponent of inf over y in D of delta(x, y); raises Inside for x in D."""
    if D.contains(pt):
        raise Inside
    if D.bounded:
        s = max(0, D.sup_abs_exponent())
        if pt[1] == 0:
            return -s
        return abs_exponent(pt[0] - D.center, p) - max(0, abs_exponent(pt[0], p)) - s
    h = D.radius_exp
    return h - max(0, abs_exponent(D.center, p), h) - max(0, abs_exponent(pt[0], p))


# -- classification, fixed points and the envelope fit ---------------------------


def classify(entries, p: int) -> str:
    """The ``ElementClass`` value of a canonical integer matrix: hyperbolic
    iff |tr^2| > |det| p-adically."""
    a, b, c, d = entries
    tr2 = Fraction(a + d) ** 2
    det = Fraction(a * d - b * c)
    if valuation(tr2, p) < valuation(det, p):
        return "hyperbolic"
    if tuple(entries) == (1, 0, 0, 1):
        return "identity"
    if tr2 == 4 * det:
        return "parabolic"
    return "elliptic_or_other"


def _rational_isqrt(n: Fraction):
    if n < 0:
        return None
    rn, rd = math.isqrt(n.numerator), math.isqrt(n.denominator)
    if rn * rn != n.numerator or rd * rd != n.denominator:
        return None
    return Fraction(rn, rd)


def fixed_points(entries, p: int, hensel_sqrt):
    """(points, class, attracting, repelling) for a non-identity canonical
    matrix, solving c z^2 + (d - a) z - b = 0 over Fraction coefficients.

    Rational points are oracle pairs.  ``hensel_sqrt(disc)`` supplies the
    p-adic square root of a discriminant that is no rational square, as a
    value with ``add_rational``, ``mul_rational`` and ``unit``; the fixed
    points are then built from it as such values.
    """
    a, b, c, d = (Fraction(e) for e in entries)
    cls = classify(entries, p)
    hyperbolic = cls == "hyperbolic"
    if c == 0:
        if a == d:
            return (INFINITY, INFINITY), cls, None, None
        finite = point(b / (d - a))
        # eigenvalue a belongs to infinity, eigenvalue d to the finite point
        if not hyperbolic:
            return (INFINITY, finite), cls, None, None
        if valuation(a, p) < valuation(d, p):
            return (INFINITY, finite), cls, INFINITY, finite
        return (finite, INFINITY), cls, finite, INFINITY
    disc = (d - a) ** 2 + 4 * b * c
    if disc == 0:
        z = point((a - d) / (2 * c))
        return (z, z), cls, None, None
    s = _rational_isqrt(disc)
    if s is not None:
        z_plus, z_minus = point((a - d + s) / (2 * c)), point((a - d - s) / (2 * c))
        if not hyperbolic:
            return (z_plus, z_minus), cls, None, None
        if valuation((a + d + s) / 2, p) < valuation((a + d - s) / 2, p):
            return (z_plus, z_minus), cls, z_plus, z_minus
        return (z_minus, z_plus), cls, z_minus, z_plus
    root = hensel_sqrt(disc)
    z_plus = root.add_rational(a - d).mul_rational(Fraction(1, 2) / c)
    z_minus = root.mul_rational(-1).add_rational(a - d).mul_rational(Fraction(1, 2) / c)
    if not hyperbolic:
        return (z_plus, z_minus), cls, None, None
    # the dominant eigenvalue (tr +- s)/2 is where the leading digits add
    if (unit_residue(a + d, p, 1) + root.unit) % p != 0:
        return (z_plus, z_minus), cls, z_plus, z_minus
    return (z_minus, z_plus), cls, z_minus, z_plus


def proper_fit(samples):
    """The envelope constants (a, b) over (length, t) samples: b is the
    least-squares slope of length against t, clamped at 0, and a is the
    maximum of length - b * t."""
    n = len(samples)
    st = sum(Fraction(t) for _, t in samples)
    sl = sum(Fraction(l) for l, _ in samples)
    stt = sum(Fraction(t) * t for _, t in samples)
    stl = sum(Fraction(t) * l for l, t in samples)
    denom = n * stt - st * st
    b = Fraction(0) if denom == 0 else (n * stl - st * sl) / denom
    if b < 0:
        b = Fraction(0)
    return max(Fraction(l) - b * t for l, t in samples), b
