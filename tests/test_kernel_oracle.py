"""The integer point and disk kernel agrees with the Fraction reference.

Every predicate of ``schottky.proj`` and ``schottky.disks`` that moved to
primitive integer pairs is compared with ``fraction_oracle`` on random
inputs: p in {2, 3, 5}, infinity and 0, unbounded disks, fractional
radius exponents, centers and points with p-power denominators, and
images under random nonsingular integer matrices.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

import fraction_oracle as oracle
from schottky.disks import Disk, image, point_to_disk_delta
from schottky.errors import PointInsideDisk
from schottky.padic import PrimeContext
from schottky.proj import Homography, ProjPoint, delta

primes = st.sampled_from([2, 3, 5])


@st.composite
def rationals(draw, p):
    """Small rationals, often with a p-power denominator or numerator."""
    num = draw(st.integers(-10**6, 10**6))
    shape = draw(st.sampled_from(["plain", "p-power", "zero"]))
    if shape == "zero":
        return Fraction(0)
    if shape == "p-power":
        return Fraction(num) * Fraction(p) ** draw(st.integers(-7, 7))
    return Fraction(num, draw(st.integers(1, 10**4)))


@st.composite
def points(draw, p):
    """Pairs (library point, oracle point), infinity and 0 included."""
    kind = draw(st.sampled_from(["inf", "zero", "finite", "finite", "finite"]))
    if kind == "inf":
        return ProjPoint(1, 0), oracle.INFINITY
    x = Fraction(0) if kind == "zero" else draw(rationals(p))
    return ProjPoint(x), oracle.point(x)


radius_exps = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 1, 2, 3]))


@st.composite
def disks(draw, p):
    """Pairs (library disk, oracle disk) with the same defining data."""
    args = (draw(st.booleans()), draw(st.booleans()), draw(rationals(p)), draw(radius_exps), p)
    return Disk(*args), oracle.Disk(*args)


@st.composite
def points_near(draw, D):
    """Points on, inside or just outside a bounded disk's boundary."""
    v = D._min_valuation() + draw(st.integers(-2, 2))
    unit = draw(st.integers(1, 10**3))
    x = D.center + Fraction(unit, draw(st.sampled_from([1, 7, 11]))) * Fraction(D.p) ** v
    return ProjPoint(x), oracle.point(x)


entries = st.one_of(st.just(0), st.integers(-60, 60))
matrices = st.tuples(entries, entries, entries, entries).filter(
    lambda m: m[0] * m[3] - m[1] * m[2] != 0
)


def disk_fields(D: Disk) -> tuple:
    return (D.bounded, D.is_open, D.center, D.radius_exp, D.p)


def coordinates(x: ProjPoint) -> tuple:
    """The rational coordinates, after checking the integer pair is primitive."""
    assert type(x.num) is int and type(x.den) is int
    assert gcd(x.num, x.den) == 1 and (x.den > 0 or x.num == 1)
    return (x.x, x.y)


@given(p=primes, data=st.data())
def test_point_normalization(p, data):
    x, y = data.draw(rationals(p)), data.draw(rationals(p))
    if x == 0 and y == 0:
        with pytest.raises(ValueError):
            ProjPoint(x, y)
        return
    pt = ProjPoint(x, y)
    assert coordinates(pt) == oracle.point(x, y)


@given(m=matrices, p=primes, data=st.data())
def test_homography_apply(m, p, data):
    g = Homography(*m)
    assert g.entries == oracle.canonical_entries(*m)
    x, ox = data.draw(points(p))
    assert coordinates(g.apply(x)) == oracle.apply(g.entries, ox)


@given(p=primes, data=st.data())
def test_disk_construction(p, data):
    D, O = data.draw(disks(p))
    assert disk_fields(D) == O.fields()
    assert D._min_valuation() == O.min_valuation()
    assert D.center == Fraction(D._cn, D._pk) and D._pk == p**D._k


@given(p=primes, data=st.data())
def test_contains(p, data):
    D, O = data.draw(disks(p))
    bounded = D if D.bounded else D.complement()
    for x, ox in (data.draw(points(p)), data.draw(points_near(bounded))):
        assert D.contains(x) == O.contains(ox)


@given(m=matrices, p=primes, data=st.data())
def test_image(m, p, data):
    D, O = data.draw(disks(p))
    g = Homography(*m)
    assert disk_fields(image(g, D)) == oracle.image(g.entries, O).fields()


@given(p=primes, data=st.data())
def test_point_to_disk_delta(p, data):
    D, O = data.draw(disks(p))
    ctx = PrimeContext(p)
    bounded = D if D.bounded else D.complement()
    for x, ox in (data.draw(points(p)), data.draw(points_near(bounded))):
        try:
            want = oracle.point_to_disk_delta(ox, O, p)
        except oracle.Inside:
            with pytest.raises(PointInsideDisk):
                point_to_disk_delta(x, D, ctx)
        else:
            assert point_to_disk_delta(x, D, ctx) == want


@given(p=primes, data=st.data())
def test_delta(p, data):
    (x, ox), (y, oy) = data.draw(points(p)), data.draw(points(p))
    ctx = PrimeContext(p)
    assert delta(x, y, ctx) == oracle.delta(ox, oy, p)
    assert delta(x, x, ctx) == oracle.delta(ox, ox, p)
