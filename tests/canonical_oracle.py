"""Reference valuation, canonical center, closure and image.

These are the library's before closures reduced digits and callers passed
v(den) to the canonicalizer: ``valuation`` strips one factor of p at a
time for its first 16 factors and then squared powers of p
(``_deep_valuation``); ``_canonical_center`` takes both valuations
itself; ``closure`` canonicalizes every open disk again; ``image``
takes the valuation of every denominator.  ``test_canonical.py``
compares every slot of the library's disks with them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from schottky.disks import Disk, _new_disk, _set_fields
from schottky.padic import POS_INF, Exponent, Rational
from schottky.proj import Homography


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


def _canonical_center(num: int, den: int, min_valuation: int, p: int) -> Tuple[int, int]:
    """Smallest-|.|-representative cn / p**k of num / den (den != 0) modulo
    {v >= min_valuation}."""
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


def _set_canonical(
    D: Disk, bounded: bool, is_open: bool, num: int, den: int, e: Exponent, p: int
) -> Disk:
    """Store the disk with raw center num / den (den != 0) and radius
    exponent e, an int or a non-integral Fraction, in canonical form."""
    # The admitted valuations v of x - center are those of the
    # (complementary) bounded disk, whose openness is is_open == bounded:
    # v > -e when it is open, v >= -e when it is closed.
    n, d = e.numerator, e.denominator
    m = -n // d + 1 if is_open == bounded or d != 1 else -n
    cn, k = _canonical_center(num, den, m, p)
    return _set_fields(D, bounded, is_open, cn, k, e, p, m, p**k, k if k * d > n else e)


def closure(self: Disk) -> Disk:
    """The closed disk with the same points plus its boundary sphere;
    the closure of P^1 - E(a, r) is P^1 - B(a, r)."""
    if not self.is_open:
        return self
    return _set_canonical(
        _new_disk(Disk), self.bounded, False, self._cn, self._pk, self.radius_exp, self.p
    )


def image(g: Homography, D: Disk) -> Disk:
    """The exact image disk g(D).

    g factors as affine maps and the inversion z -> 1/z; each piece sends
    disks to disks, preserving openness and strictness.  Any point of a
    disk is a valid center, so the pieces carry a raw center num / den
    in integers and only the final disk is canonicalized.
    """
    a, b, c, d = g.entries
    p = D.p
    bounded, num, den, e = D.bounded, D._cn, D._pk, D.radius_exp
    if c == 0:
        scale_exp = valuation(d, p) - valuation(a, p)
        return _set_canonical(
            _new_disk(Disk), bounded, D.is_open, a * num + b * den, d * den, e + scale_exp, p
        )
    # (az + b)/(cz + d) = a/c - (det/c^2) / (z + d/c)
    num, den = c * num + d * den, c * den
    # Invert the bounded disk, or the complementary hole of an unbounded one.
    hole_open = D.is_open == bounded
    ea = valuation(den, p) - valuation(num, p)  # |center|; -inf when num = 0
    en, ed = e.numerator, e.denominator
    if ea * ed > en or (hole_open and ea * ed == en):
        # 0 is outside the hole and |z| = |center| on it: an isometry up to
        # the factor |center|^-2.
        num, den, e = den, num, e - 2 * ea
    else:
        # The hole is centered at 0; inversion swaps it with an unbounded disk.
        bounded, num, den, e = not bounded, 0, 1, -e
    det = a * d - b * c
    scale_exp = 2 * valuation(c, p) - valuation(det, p)
    return _set_canonical(
        _new_disk(Disk), bounded, D.is_open, a * c * den - det * num, c * c * den, e + scale_exp, p
    )


def disk(bounded, is_open, center, radius_exp, p) -> Disk:
    """``Disk(...)`` built by the reference canonicalizer."""
    num, den = Fraction(center).as_integer_ratio()
    e = Fraction(radius_exp)
    e = e.numerator if e.denominator == 1 else e
    return _set_canonical(_new_disk(Disk), bool(bounded), bool(is_open), num, den, e, int(p))
