"""Exact ultrametric disk calculus on P^1.

Disks are analytic objects: a bounded disk is the set of points x with
|x - a| < p**e (open) or <= p**e (closed), and an unbounded disk is the
complement of the bounded disk with the *opposite* openness.  Radii are
exact p-powers, so every predicate here is decided exactly.

Centers are canonicalized to the smallest-height rational in the disk
with a p-power denominator; ultrametric disks have no distinguished
center, and this makes semantic disk equality plain ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import CoefficientTooLarge, ConstantPolynomial, PointInsideDisk
from .padic import Exponent, PrimeContext, abs_exponent, valuation
from .proj import Homography, ProjPoint


def _admitted_valuation(e: Fraction, open_boundary: bool) -> int:
    """Smallest valuation of x - center admitted by a bounded disk of
    radius p**e: v > -e when open, v >= -e when closed."""
    n, d = e.numerator, e.denominator
    if open_boundary or d != 1:
        return -n // d + 1
    return -n


def _canonical_center(center: Fraction, min_valuation: int, p: int) -> Tuple[int, int]:
    """Smallest-|.|-representative cn / p**k of center modulo {v >= min_valuation}."""
    num, den = center.numerator, center.denominator
    if num == 0:
        return 0, 0
    vn, vd = valuation(num, p), valuation(den, p)
    w = vn - vd
    if w >= min_valuation:
        return 0, 0
    m = p ** (min_valuation - w)
    r = num // p**vn * pow(den // p**vd, -1, m) % m
    rep = r if r <= m - r else r - m
    if w >= 0:
        return rep * p**w, 0
    return rep, -w


@dataclass(frozen=True, slots=True)
class Disk:
    """An ultrametric disk in P^1 with exact p-power radius p**radius_exp.

    For ``bounded=False`` the (center, radius_exp, openness) describe the
    *complementary* bounded disk, which has the opposite openness.

    Beside the public ``Fraction`` fields a disk keeps its canonical center
    as integers ``_cn / _pk`` with ``_pk = p**_k``, the smallest valuation
    ``_m`` of x - center admitted by the (complementary) bounded disk, and
    ``_s = max(0, |center|, radius)``, the exponent of sup max(1, |y|) over
    the bounded disk.  Since ``_cn`` is prime to p when ``_k > 0``,
    ``_s = max(_k, radius_exp)``.
    """

    bounded: bool
    is_open: bool
    center: Fraction
    radius_exp: Fraction
    p: int
    _m: int = field(init=False, repr=False, compare=False)
    _cn: int = field(init=False, repr=False, compare=False)
    _k: int = field(init=False, repr=False, compare=False)
    _pk: int = field(init=False, repr=False, compare=False)
    _s: Fraction = field(init=False, repr=False, compare=False)

    def __init__(self, bounded, is_open, center, radius_exp, p):
        bounded, is_open, p = bool(bounded), bool(is_open), int(p)
        e = radius_exp if type(radius_exp) is Fraction else Fraction(radius_exp)
        center = center if type(center) is Fraction else Fraction(center)
        # Complement openness flips, but the admitted valuations of the
        # complementary bounded disk are what the canonical center uses.
        m = _admitted_valuation(e, is_open if bounded else not is_open)
        cn, k = _canonical_center(center, m, p)
        pk = p**k
        if cn != center.numerator or pk != center.denominator:
            center = Fraction(cn, pk)
        set_ = object.__setattr__
        set_(self, "bounded", bounded)
        set_(self, "is_open", is_open)
        set_(self, "center", center)
        set_(self, "radius_exp", e)
        set_(self, "p", p)
        set_(self, "_m", m)
        set_(self, "_cn", cn)
        set_(self, "_k", k)
        set_(self, "_pk", pk)
        set_(self, "_s", k if k * e.denominator > e.numerator else e)

    def _min_valuation(self) -> int:
        """Smallest valuation of x - center admitted by the boundary rule."""
        return self._m

    @staticmethod
    def open_disk(center, radius_exp, p: int) -> "Disk":
        return Disk(True, True, center, radius_exp, p)

    @staticmethod
    def closed_disk(center, radius_exp, p: int) -> "Disk":
        return Disk(True, False, center, radius_exp, p)

    def complement(self) -> "Disk":
        return Disk(not self.bounded, not self.is_open, self.center, self.radius_exp, self.p)

    def closure(self) -> "Disk":
        """The closed disk with the same points plus its boundary sphere;
        the closure of P^1 - E(a, r) is P^1 - B(a, r)."""
        if not self.is_open:
            return self
        return Disk(self.bounded, False, self.center, self.radius_exp, self.p)

    def contains(self, x: ProjPoint) -> bool:
        y = x.den
        if y == 0:
            return not self.bounded
        # x - center = (num * p^k - den * cn) / (den * p^k) has valuation
        # >= m iff the numerator vanishes modulo p^(m + v(den) + k).
        t = self._m + self._k + valuation(y, self.p)
        inside = t <= 0 or (x.num * self._pk - y * self._cn) % self.p**t == 0
        return inside if self.bounded else not inside

    def center_point(self) -> ProjPoint:
        return ProjPoint(self.center)

    def sup_abs_exponent(self) -> Exponent:
        """sup of |y| over the disk (bounded disks only)."""
        if not self.bounded:
            raise ValueError("unbounded disks have unbounded |y|")
        return max(abs_exponent(self.center, self.p), self.radius_exp)

    def __str__(self):
        kind = "B" if self.is_open else "E"
        body = f"{kind}({self.center}, {self.p}^{self.radius_exp})"
        return body if self.bounded else f"P1-{body}"


def contains_disk(D1: Disk, D2: Disk) -> bool:
    """Exact test for D2 a subset of D1."""
    if D1.bounded and not D2.bounded:
        return False
    if not D1.bounded and not D2.bounded:
        return contains_disk(D2.complement(), D1.complement())
    if not D1.bounded and D2.bounded:
        return disjoint(D2, D1.complement())
    if not D1.contains(D2.center_point()):
        return False
    e1, e2 = D1.radius_exp, D2.radius_exp
    if e2 != e1:
        return e2 < e1
    return D1.is_open == D2.is_open or D1.is_open is False


def disjoint(D1: Disk, D2: Disk) -> bool:
    """Exact emptiness of the intersection; two disks are nested or disjoint."""
    if not D1.bounded and not D2.bounded:
        return False  # both contain infinity
    if not D1.bounded:
        return contains_disk(D1.complement(), D2)
    if not D2.bounded:
        return contains_disk(D2.complement(), D1)
    return not (D1.contains(D2.center_point()) or D2.contains(D1.center_point()))


def image(g: Homography, D: Disk) -> Disk:
    """The exact image disk g(D).

    g factors as affine maps and the inversion z -> 1/z; each piece sends
    disks to disks, preserving openness and strictness.  Any point of a
    disk is a valid center, so the pieces carry a raw (center, radius)
    pair and only the final disk is canonicalized.
    """
    a, b, c, d = g.entries
    p = D.p
    bounded, center, e = D.bounded, D.center, D.radius_exp
    if c == 0:
        scale_exp = valuation(d, p) - valuation(a, p)
        return Disk(bounded, D.is_open, center * Fraction(a, d) + Fraction(b, d), e + scale_exp, p)
    # (az + b)/(cz + d) = a/c - (det/c^2) / (z + d/c)
    center += Fraction(d, c)
    # Invert the bounded disk, or the complementary hole of an unbounded one.
    hole_open = D.is_open if bounded else not D.is_open
    ea = abs_exponent(center, p)
    if ea > e or (hole_open and ea == e):
        # 0 is outside the hole and |z| = |center| on it: an isometry up to
        # the factor |center|^-2.
        center, e = 1 / center, e - 2 * ea
    else:
        # The hole is centered at 0; inversion swaps it with an unbounded disk.
        bounded, center, e = not bounded, Fraction(0), -e
    det = a * d - b * c
    scale_exp = 2 * valuation(c, p) - valuation(det, p)
    return Disk(
        bounded, D.is_open, center * Fraction(-det, c * c) + Fraction(a, c), e + scale_exp, p
    )


def point_to_disk_delta(x: ProjPoint, D: Disk, ctx: PrimeContext) -> Exponent:
    """Exponent of inf over y in D of delta(x, y), for x outside D.

    For x outside a disk, |x - y| is the constant |x - center|, so the
    infimum is reached by maximizing max(1, |y|) over the disk.  On the
    primitive vector x = num/den, max(1, |x|) = p**v(den) and
    |x - center| = p**(v(den) + k - v(num * p^k - den * cn)).
    """
    p = ctx.p
    y = x.den
    if y == 0:
        if not D.bounded:
            raise PointInsideDisk(f"{x} lies in {D}")
        return -D._s
    vy = valuation(y, p)
    vn = valuation(x.num * D._pk - y * D._cn, p)
    if (vn - vy - D._k >= D._m) == D.bounded:
        raise PointInsideDisk(f"{x} lies in {D}")
    if D.bounded:
        return D._k - vn - D._s
    # x lies in the complementary bounded disk.
    return D.radius_exp - D._s - vy


def min_delta_disjoint_disks(D1: Disk, D2: Disk, ctx: PrimeContext) -> Exponent:
    """Exponent of inf delta(x, y) over x in D1, y in D2, for disjoint disks.

    Supports the two shapes needed by translate scans: two disjoint
    bounded disks, and an unbounded disk against a bounded disk inside
    its complementary hole.
    """
    if not disjoint(D1, D2):
        raise ValueError("disks intersect; the distance is zero")
    if not D2.bounded:
        D1, D2 = D2, D1
    s2 = max(0, D2.sup_abs_exponent())
    p = ctx.p
    if D1.bounded:
        return abs_exponent(D1.center - D2.center, p) - max(0, D1.sup_abs_exponent()) - s2
    h = D1.radius_exp
    return h - max(0, abs_exponent(D1.center, p), h) - s2


def poly_distance_exponent(
    coefficients: Sequence[Fraction], ctx: PrimeContext
) -> Tuple[int, Exponent]:
    """Vanishing order m at 0 and the exponent of c = |m * c_m| for a
    polynomial f with all |coefficients| <= 1.

    These are the constants in the inequality
    delta(f(x), L2) >= c * delta(x, L1)**m that holds for x near 0 when
    f(0) lies in L2 and f^{-1}(L2) is contained in L1; the caller picks
    the sampling radius.
    """
    coeffs = [Fraction(c) for c in coefficients]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise ConstantPolynomial("need a nonconstant polynomial")
    for c in coeffs:
        if abs_exponent(c, ctx.p) > 0:
            raise CoefficientTooLarge(f"|{c}| > 1 p-adically")
    m = next(i for i in range(1, len(coeffs)) if coeffs[i] != 0)
    return m, abs_exponent(m * coeffs[m], ctx.p)


@dataclass(frozen=True)
class Affinoid:
    """A closed disk (or all of P^1) minus finitely many open disks.

    Emptiness and intersection are decided over C_p: a closed disk is
    never covered by finitely many proper open subdisks, so the region
    is empty exactly when a single hole swallows the outer disk.
    """

    outer: Optional[Disk]
    holes: Tuple[Disk, ...]

    def __init__(self, outer, holes):
        if outer is not None and outer.is_open:
            raise ValueError("outer disk must be closed")
        holes = tuple(holes)
        for h in holes:
            if not h.is_open:
                raise ValueError("holes must be open disks")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "holes", holes)

    def transform(self, g: Homography) -> "Affinoid":
        outer = None if self.outer is None else image(g, self.outer)
        return Affinoid(outer, tuple(image(g, h) for h in self.holes))

    def contains(self, x: ProjPoint) -> bool:
        if self.outer is not None and not self.outer.contains(x):
            return False
        return not any(h.contains(x) for h in self.holes)

    def _normalized(self):
        """(bounded closed constraints, bounded open holes) with the same
        point set: unbounded closed constraints become extra holes and
        unbounded open holes become extra constraints."""
        constraints, holes = [], []
        outers = [] if self.outer is None else [self.outer]
        for K in outers:
            if K.bounded:
                constraints.append(K)
            else:
                holes.append(K.complement())
        for h in self.holes:
            if h.bounded:
                holes.append(h)
            else:
                constraints.append(h.complement())
        return constraints, holes

    def is_empty(self) -> bool:
        return _region_empty(*self._normalized())

    def intersects(self, other: "Affinoid") -> bool:
        c1, h1 = self._normalized()
        c2, h2 = other._normalized()
        return not _region_empty(c1 + c2, h1 + h2)


def _region_empty(constraints, holes) -> bool:
    """Emptiness of (intersection of bounded closed disks) minus open holes;
    an empty constraint list means all of P^1."""
    if not constraints:
        return False  # infinity survives every bounded hole
    K = constraints[0]
    for K2 in constraints[1:]:
        if contains_disk(K2, K):
            continue
        if contains_disk(K, K2):
            K = K2
        else:
            return True  # two disjoint constraints
    return any(contains_disk(h, K) for h in holes)
