"""The integer point and disk kernel agrees with the Fraction reference.

Every predicate of ``schottky.proj`` and ``schottky.disks`` that moved to
primitive integer pairs is compared with ``fraction_oracle`` on random
inputs: p in {2, 3, 5}, infinity and 0, unbounded disks, fractional
radius exponents, centers and points with p-power denominators, images
under random nonsingular integer matrices, and pairs of disks that are
independent, near each other or the same disk with another center.
Element classification, fixed points and the envelope fit are compared
on random nonsingular integer matrices and random integer samples.
"""

from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings, strategies as st

import fraction_oracle as oracle
import hensel_oracle
import schottky.disks as disk_module
from schottky.disks import (
    Disk,
    contains_disk,
    disjoint,
    image,
    min_delta_disjoint_disks,
    point_to_disk_delta,
)
from schottky.errors import NotASquare, NotASquareInQp
from schottky.groups import sample_group
from schottky.padic import NEG_INF, PrimeContext
from schottky.proj import Homography, ProjPoint, QuadPoint, classify, delta, fixed_points

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
    v = D._m + draw(st.integers(-2, 2))
    unit = draw(st.integers(1, 10**3))
    x = D.center + Fraction(unit, draw(st.sampled_from([1, 7, 11]))) * Fraction(D.p) ** v
    return ProjPoint(x), oracle.point(x)


@st.composite
def disk_pairs(draw, p):
    """Two disks: independent, or the second centered near the first's
    boundary, either with new data or recentered with the first's."""
    first = draw(disks(p))
    shape = draw(st.sampled_from(["independent", "near", "recentered"]))
    if shape == "independent":
        return first, draw(disks(p))
    D = first[0]
    unit = Fraction(draw(st.integers(-10**3, 10**3)), draw(st.sampled_from([1, 7, 11])))
    center = D.center + unit * Fraction(p) ** (D._m + draw(st.integers(-2, 2)))
    if shape == "recentered":
        args = (D.bounded, D.is_open, center, D.radius_exp, p)
    else:
        shift = draw(st.sampled_from([-1, Fraction(-1, 2), 0, 0, Fraction(1, 3), 1]))
        args = (draw(st.booleans()), draw(st.booleans()), center, D.radius_exp + shift, p)
    return first, (Disk(*args), oracle.Disk(*args))


entries = st.one_of(st.just(0), st.integers(-60, 60))
matrices = st.tuples(entries, entries, entries, entries).filter(
    lambda m: m[0] * m[3] - m[1] * m[2] != 0
)


def disk_fields(D: Disk) -> tuple:
    return (D.bounded, D.is_open, D.center, D.radius_exp, D.p)


def check_derived(D: Disk, O: oracle.Disk) -> None:
    """The derived slots of D against the oracle disk with its fields."""
    assert D._m == O.min_valuation()
    assert D._pk == D.p**D._k
    assert D._s == max(0, O.sup_abs_exponent())


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
    check_derived(D, O)
    assert D.center == Fraction(D._cn, D._pk)


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
    got, want = image(g, D), oracle.image(g.entries, O)
    assert disk_fields(got) == want.fields()
    check_derived(got, want)
    # radius exponents are ints exactly when integral
    assert (type(got.radius_exp) is int) == (Fraction(got.radius_exp).denominator == 1)
    assert type(got.radius_exp) in (int, Fraction)


@given(p=primes, data=st.data())
def test_point_to_disk_delta(p, data):
    """NEG_INF exactly for a point of the disk, the oracle's value otherwise;
    points on and near the boundary sphere of the (complementary) bounded disk."""
    D, O = data.draw(disks(p))
    bounded = D if D.bounded else D.complement()
    for x, ox in (data.draw(points(p)), data.draw(points_near(bounded))):
        got = point_to_disk_delta(x, D)
        if O.contains(ox):
            assert got == NEG_INF
        else:
            assert got == oracle.point_to_disk_delta(ox, O, p) > NEG_INF


@given(p=primes, data=st.data())
def test_delta(p, data):
    (x, ox), (y, oy) = data.draw(points(p)), data.draw(points(p))
    ctx = PrimeContext(p)
    assert delta(x, y, ctx) == oracle.delta(ox, oy, p)
    assert delta(x, x, ctx) == oracle.delta(ox, ox, p)


@given(p=primes, data=st.data())
def test_closure_and_complement(p, data):
    D, O = data.draw(disks(p))
    for got, want in ((D.closure(), oracle.closure(O)), (D.complement(), O.complement())):
        assert disk_fields(got) == want.fields()
        check_derived(got, want)
        assert type(got.radius_exp) is type(D.radius_exp)


@given(p=primes, data=st.data())
def test_center_point(p, data):
    D, _ = data.draw(disks(p))
    x = D.center_point()
    coordinates(x)  # checks that the pair is primitive
    assert x == ProjPoint(D.center)
    # limit-cover rows print the point, and once printed the Fraction
    for E in (D, D.complement()):
        assert str(E.center_point()) == str(E.center)


def _setattr_fill(D, *values):
    """The reference fill: each field in field order through object.__setattr__."""
    for name, value in zip(Disk.__slots__, values):
        object.__setattr__(D, name, value)
    return D


def all_fields(D: Disk) -> tuple:
    """Every field with its type, the derived _m, _pk and _s included."""
    return tuple((type(v), v) for v in (getattr(D, name) for name in Disk.__slots__))


@given(m=matrices, p=primes, data=st.data())
def test_disk_fill_matches_setattr(m, p, data):
    """The constructor, closure, complement and image store in every field
    what a field-by-field object.__setattr__ fill stores."""
    D, _ = data.draw(disks(p))
    args = (D.bounded, D.is_open, D.center, D.radius_exp, p)
    g = Homography(*m)

    def made():
        D = Disk(*args)
        return D, D.closure(), D.complement(), image(g, D), image(g, D.complement()).closure()

    got = made()
    with mock.patch.object(disk_module, "_set_fields", _setattr_fill):
        want = made()
    assert list(map(all_fields, got)) == list(map(all_fields, want))


def test_disk_fields_stay_frozen():
    D = Disk(False, True, Fraction(-7, 25), -1, 5)
    for name in Disk.__slots__:
        with pytest.raises(FrozenInstanceError):
            setattr(D, name, getattr(D, name))


@given(p=primes, data=st.data())
def test_nesting_and_disjointness(p, data):
    (D1, O1), (D2, O2) = data.draw(disk_pairs(p))
    assert contains_disk(D1, D2) == oracle.contains_disk(O1, O2)
    assert contains_disk(D2, D1) == oracle.contains_disk(O2, O1)
    assert disjoint(D1, D2) == oracle.disjoint(O1, O2)


@given(p=primes, data=st.data())
def test_min_delta_disjoint_disks(p, data):
    """NEG_INF exactly for disks that meet, the oracle's value otherwise."""
    (D1, O1), (D2, O2) = data.draw(disk_pairs(p))
    got = min_delta_disjoint_disks(D1, D2)
    if oracle.disjoint(O1, O2):
        assert got == oracle.min_delta_disjoint_disks(O1, O2, p) > NEG_INF
    else:
        assert got == NEG_INF


@given(p=primes, data=st.data())
def test_equality_and_hash(p, data):
    (D1, O1), (D2, O2) = data.draw(disk_pairs(p))
    same = O1.fields() == O2.fields()
    assert (D1 == D2) == same
    if same:
        # unequal disks may still collide: hash(-1) == hash(-2)
        assert hash(D1) == hash(D2)


# -- classification, fixed points and the envelope fit -------------------------


@st.composite
def element_matrices(draw):
    """Nonsingular integer matrices: random ones, and conjugates P M adj(P)
    of a diagonal or a unipotent M, which have rational fixed points, or
    of the companion matrix of z^2 - t z + n.  The companion is
    hyperbolic when n has more factors of q = 3 * 5 * 7 than t^2, and its
    fixed points are mostly Hensel approximations, with a root of positive
    valuation when q divides t."""
    shape = draw(st.sampled_from(["random", "random", "diagonal", "unipotent", "companion"]))
    if shape == "random":
        return draw(matrices)
    a, b, c, d = draw(matrices)
    if shape == "diagonal":
        m = (draw(st.integers(-60, 60).filter(bool)), 0, 0, draw(st.integers(1, 60)))
    elif shape == "unipotent":
        m = (1, draw(st.integers(1, 6)), 0, 1)
    else:
        n = draw(st.integers(-60, 60).filter(bool)) * 105 ** draw(st.integers(0, 3))
        m = (0, -n, 1, draw(st.integers(-60, 60)) * draw(st.sampled_from([1, 105])))
    e, f, g, h = m
    # P M, then (P M) adj(P) with adj(P) = (d, -b, -c, a)
    e, f, g, h = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return (e * d - f * c, -e * b + f * a, g * d - h * c, -g * b + h * a)


# irrational fixed points are compared modulo p**_MODULUS, below the
# 200-digit precision of the oracle's approximations
_MODULUS = 150


def _fixed_point_result(solve, p):
    """The fixed points with rational points as oracle pairs and
    irrational ones as (valuation, unit, precision) modulo p**_MODULUS, or
    the name of the failure: roots not in Q_p, or a root with no known
    digit."""
    try:
        points, cls, att, rep = solve()
    except (NotASquareInQp, NotASquare, hensel_oracle.OddValuation):
        return "no root in Q_p"
    except oracle.Cancelled:
        return "cancelled"

    def plain(z):
        if isinstance(z, ProjPoint):
            return coordinates(z)
        if isinstance(z, QuadPoint):
            z = hensel_oracle.digits(z, _MODULUS)
            return z.valuation, z.unit, z.precision
        if isinstance(z, tuple) and len(z) == 3:  # the oracle's approximation
            v, unit, _ = z
            return v, unit % p ** (_MODULUS - v), _MODULUS - v
        return z

    return tuple(plain(z) for z in points), cls, plain(att), plain(rep)


@given(m=element_matrices(), p=primes)
def test_classify(m, p):
    g = Homography(*m)
    assert classify(g, PrimeContext(p)).value == oracle.classify(g.entries, p)


# p = 2 is left out: it has no Hensel square roots
@settings(max_examples=300)
@given(m=element_matrices(), p=st.sampled_from([3, 5, 7]))
def test_fixed_points(m, p):
    """Exact quadratic points carry the digits of the oracle's Hensel
    approximations."""
    g = Homography(*m)
    assume(not g.is_identity)

    def library():
        fp = fixed_points(g, PrimeContext(p))
        assert all(type(z) in (ProjPoint, QuadPoint) for z in fp.points)
        event(f"{type(fp.points[0]).__name__} {fp.element_class.value}")
        return fp.points, fp.element_class.value, fp.attracting, fp.repelling

    got = _fixed_point_result(library, p)
    want = _fixed_point_result(
        lambda: oracle.fixed_points(g.entries, p, lambda disc: hensel_oracle.hensel_sqrt(disc, p)),
        p,
    )
    if isinstance(got, str):
        event(got)
    assert got == want


@st.composite
def fit_samples(draw):
    """(length, t) lists: random, with one t for all (a zero denominator),
    or on a falling line (a negative slope, clamped to 0)."""
    shape = draw(st.sampled_from(["random", "equal t", "falling"]))
    lengths = draw(st.lists(st.integers(0, 12), min_size=1, max_size=40))
    if shape == "random":
        ts = [draw(st.integers(-40, 40)) for _ in lengths]
    elif shape == "equal t":
        ts = [draw(st.integers(-40, 40))] * len(lengths)
    else:
        ts = [-3 * l + draw(st.integers(0, 1)) for l in lengths]
    return list(zip(lengths, ts))


@given(samples=fit_samples())
def test_fit_proper_constants(samples):
    G = sample_group(5, 1)
    G.envelope_samples = lambda depth: samples
    fit = G.fit_proper_constants(3)
    assert (fit.a, fit.b) == oracle.proper_fit(samples)
    assert type(fit.a) is Fraction and type(fit.b) is Fraction
    assert fit.sample_count == len(samples) and fit.depth == 3
