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

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from ._record import record
from .errors import CoefficientTooLarge, ConstantPolynomial
from .padic import NEG_INF, Exponent, PrimeContext, abs_exponent, valuation
from .proj import Homography, ProjPoint, _new_point


def _canonical_center(
    num: int, den: int, vd: int, min_valuation: int, p: int
) -> Tuple[int, int]:
    """Smallest-|.|-representative cn / p**k of num / den (den != 0) modulo
    {v >= min_valuation}.  vd = v(den) comes from the caller, which has it
    from valuations it takes anyway, so only v(num) is taken here."""
    if num == 0:
        return 0, 0
    vn = valuation(num, p)
    w = vn - vd
    if w >= min_valuation:
        return 0, 0
    m = p ** (min_valuation - w)
    r = num // p**vn * pow(den // p**vd, -1, m) % m
    rep = r if r <= m - r else r - m
    if w >= 0:
        return rep * p**w, 0
    return rep, -w


@record(hidden=("_m", "_pk", "_s"))
class Disk:
    """An ultrametric disk in P^1 with exact p-power radius p**radius_exp;
    ``radius_exp`` is an ``int`` when integral, a ``Fraction`` otherwise.

    For ``bounded=False`` the (center, radius_exp, openness) describe the
    *complementary* bounded disk, which has the opposite openness.

    The canonical center is stored only as integers ``_cn / p**_k``, with
    ``_cn`` prime to p when ``_k > 0``; ``center`` derives the ``Fraction``
    for I/O.  Derived fields: ``_pk = p**_k``, the smallest valuation ``_m``
    of x - center admitted by the (complementary) bounded disk, and
    ``_s = max(0, |center|, radius) = max(_k, radius_exp)``, the exponent
    of sup max(1, |y|) over the bounded disk.
    """

    __slots__ = ("bounded", "is_open", "_cn", "_k", "radius_exp", "p", "_m", "_pk", "_s")

    def __init__(self, bounded, is_open, center, radius_exp, p):
        # ints are kept as they are; anything else goes through Fraction
        num, den = (center, 1) if type(center) is int else Fraction(center).as_integer_ratio()
        e = radius_exp
        if type(e) is not int:
            e = Fraction(e)
            e = e.numerator if e.denominator == 1 else e
        p = int(p)
        _set_canonical(self, bool(bounded), bool(is_open), num, den, valuation(den, p), e, p)

    @property
    def center(self) -> Fraction:
        return Fraction(self._cn, self._pk)

    @staticmethod
    def open_disk(center, radius_exp, p: int) -> "Disk":
        return Disk(True, True, center, radius_exp, p)

    @staticmethod
    def closed_disk(center, radius_exp, p: int) -> "Disk":
        return Disk(True, False, center, radius_exp, p)

    def complement(self) -> "Disk":
        # Both openness and boundedness flip, so the admitted valuations of
        # the complementary bounded disk, and with them the center, stay.
        return _set_fields(
            _new_disk(Disk), not self.bounded, not self.is_open, self._cn, self._k,
            self.radius_exp, self.p, self._m, self._pk, self._s,
        )

    def closure(self) -> "Disk":
        """The closed disk with the same points plus its boundary sphere;
        the closure of P^1 - E(a, r) is P^1 - B(a, r).

        A bounded open disk with an integral radius exponent e admits one
        more valuation, v = -e, once closed, so its closed center is the
        symmetric residue of cn modulo p**(k - e) over the same p**k: 0
        when k <= e, and prime to p when k > 0.  No valuation or inverse
        is needed, and _s = max(k, e) stays.  Other shapes are
        canonicalized again.
        """
        if not self.is_open:
            return self
        e, k, p = self.radius_exp, self._k, self.p
        if not self.bounded or type(e) is not int:
            return _set_canonical(_new_disk(Disk), self.bounded, False, self._cn, self._pk, k, e, p)
        if k <= e:
            return _set_fields(_new_disk(Disk), True, False, 0, 0, e, p, -e, 1, e)
        m = p ** (k - e)
        r = self._cn % m
        cn = r if r <= m - r else r - m
        return _set_fields(_new_disk(Disk), True, False, cn, k, e, p, -e, self._pk, k)

    def contains(self, x: ProjPoint) -> bool:
        y = x.den
        if y == 0:
            return not self.bounded
        # x - center = (num * p^k - den * cn) / (den * p^k) has valuation
        # >= m iff the numerator vanishes modulo p^(m + v(den) + k).
        t = self._m + self._k + valuation(y, self.p)
        inside = t <= 0 or (x.num * self._pk - y * self._cn) % self.p**t == 0
        return inside if self.bounded else not inside

    @property
    def in_residue_disk(self) -> bool:
        """Bounded with radius below max(1, |center|): the disk lies in one
        residue disk of P^1 and is a chordal ball of radius < 1."""
        return self.bounded and self.radius_exp < self._s

    def center_point(self) -> ProjPoint:
        # (cn : p^k) is already primitive with a positive second entry.
        x = _new_point(ProjPoint)
        x.num, x.den = self._cn, self._pk
        return x

    # == and hash leave out the derived fields
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.bounded, self.is_open, self._cn, self._k, self.radius_exp, self.p) == (
                other.bounded, other.is_open, other._cn, other._k, other.radius_exp, other.p
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.bounded, self.is_open, self._cn, self._k, self.radius_exp, self.p))

    def __str__(self):
        kind = "B" if self.is_open else "E"
        body = f"{kind}({self.center}, {self.p}^{self.radius_exp})"
        return body if self.bounded else f"P1-{body}"


_new_disk = object.__new__
# The slots' own setters, which the frozen __setattr__ does not guard.
(
    _set_bounded, _set_is_open, _set_cn, _set_k, _set_radius_exp, _set_p, _set_m, _set_pk, _set_s
) = (vars(Disk)[name].__set__ for name in Disk.__slots__)


def _set_fields(D: Disk, bounded, is_open, cn, k, radius_exp, p, m, pk, s) -> Disk:
    """Fill a new disk with the values of all its fields, in field order."""
    _set_bounded(D, bounded)
    _set_is_open(D, is_open)
    _set_cn(D, cn)
    _set_k(D, k)
    _set_radius_exp(D, radius_exp)
    _set_p(D, p)
    _set_m(D, m)
    _set_pk(D, pk)
    _set_s(D, s)
    return D


def _set_canonical(
    D: Disk, bounded: bool, is_open: bool, num: int, den: int, vd: int, e: Exponent, p: int
) -> Disk:
    """Store the disk with raw center num / den (den != 0, vd = v(den)) and
    radius exponent e, an int or a non-integral Fraction, in canonical form."""
    # The admitted valuations v of x - center are those of the
    # (complementary) bounded disk, whose openness is is_open == bounded:
    # v > -e when it is open, v >= -e when it is closed.
    n, d = e.numerator, e.denominator
    m = -n // d + 1 if is_open == bounded or d != 1 else -n
    cn, k = _canonical_center(num, den, vd, m, p)
    return _set_fields(D, bounded, is_open, cn, k, e, p, m, p**k, k if k * d > n else e)


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
    disk is a valid center, so the pieces carry a raw center num / den
    in integers and only the final disk is canonicalized.  The valuation
    of each denominator follows from those already taken: v(c * p^k) is
    v(c) + k.
    """
    a, b, c, d = g.entries
    p = D.p
    bounded, num, den, e, k = D.bounded, D._cn, D._pk, D.radius_exp, D._k
    if c == 0:
        vd = valuation(d, p)
        return _set_canonical(
            _new_disk(Disk), bounded, D.is_open, a * num + b * den, d * den, vd + k,
            e + vd - valuation(a, p), p,
        )
    # (az + b)/(cz + d) = a/c - (det/c^2) / (z + d/c)
    vc = valuation(c, p)
    num, den = c * num + d * den, c * den
    # Invert the bounded disk, or the complementary hole of an unbounded one.
    hole_open = D.is_open == bounded
    vn = valuation(num, p)
    ea = vc + k - vn  # |center|; -inf when num = 0
    en, ed = e.numerator, e.denominator
    if ea * ed > en or (hole_open and ea * ed == en):
        # 0 is outside the hole and |z| = |center| on it: an isometry up to
        # the factor |center|^-2.
        num, den, vd, e = den, num, vn, e - 2 * ea
    else:
        # The hole is centered at 0; inversion swaps it with an unbounded disk.
        bounded, num, den, vd, e = not bounded, 0, 1, 0, -e
    det = a * d - b * c
    scale_exp = 2 * vc - valuation(det, p)
    return _set_canonical(
        _new_disk(Disk), bounded, D.is_open, a * c * den - det * num, c * c * den, 2 * vc + vd,
        e + scale_exp, p,
    )


def point_to_disk_delta(x: ProjPoint, D: Disk) -> Exponent:
    """Exponent of inf over y in D of delta(x, y); NEG_INF exactly when x
    lies in D, as for ``delta(x, x)``.

    For x outside a disk, |x - y| is the constant |x - center|, so the
    infimum is reached by maximizing max(1, |y|) over the disk.  On the
    primitive vector x = num/den, max(1, |x|) = p**v(den) and
    |x - center| = p**(v(den) + k - v(num * p^k - den * cn)).
    """
    y = x.den
    if y == 0:
        return -D._s if D.bounded else NEG_INF
    vy = valuation(y, D.p)
    vn = valuation(x.num * D._pk - y * D._cn, D.p)
    if (vn - vy - D._k >= D._m) == D.bounded:
        return NEG_INF
    if D.bounded:
        return D._k - vn - D._s
    # x lies in the complementary bounded disk.
    return D.radius_exp - D._s - vy


def min_delta_disjoint_disks(D1: Disk, D2: Disk) -> Exponent:
    """Exponent of inf delta(x, y) over x in D1, y in D2; NEG_INF exactly
    when the disks meet.

    Disjoint disks come in two shapes: two bounded disks, and an unbounded
    disk against a bounded disk inside its complementary hole.
    """
    if not disjoint(D1, D2):
        return NEG_INF
    if not D2.bounded:
        D1, D2 = D2, D1
    if D1.bounded:
        # |center1 - center2| = |cn1 p^k2 - cn2 p^k1| * p^(k1 + k2)
        v = valuation(D1._cn * D2._pk - D2._cn * D1._pk, D1.p)
        return D1._k + D2._k - v - D1._s - D2._s
    return D1.radius_exp - D1._s - D2._s


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


@record
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
