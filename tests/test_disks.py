import random
from fractions import Fraction

import pytest

from schottky.disks import (
    Affinoid,
    Disk,
    contains_disk,
    disjoint,
    image,
    min_delta_disjoint_disks,
    point_to_disk_delta,
    poly_distance_exponent,
)
from schottky.errors import CoefficientTooLarge, ConstantPolynomial
from schottky.padic import NEG_INF, PrimeContext, abs_exponent
from schottky.proj import INFINITY, Homography, ProjPoint, delta

CTX = PrimeContext(5)
P = 5


def B(center, exp):
    return Disk.open_disk(Fraction(center), Fraction(exp), P)


def E(center, exp):
    return Disk.closed_disk(Fraction(center), Fraction(exp), P)


def test_contains_examples():
    assert not E(0, 0).contains(ProjPoint(Fraction(1, 5)))  # |1/5| = 5 > 1
    assert B(0, 0).complement().contains(INFINITY)
    assert E(1, -1).contains(ProjPoint(6))  # |6 - 1| = 1/5


def test_disjoint_and_nested_examples():
    assert disjoint(E(0, -1), E(1, -1))  # distance 1 > 1/5
    assert contains_disk(E(0, 0), B(0, 0))  # open inside closed, same radius
    assert not contains_disk(B(0, 0), E(0, 0))
    # ultrametric recentering: |0 - 1| = 1 <= 1, so the disks coincide
    assert E(0, 0) == E(1, 0)
    assert contains_disk(E(0, 0), E(1, 0)) and contains_disk(E(1, 0), E(0, 0))


def test_unbounded_membership():
    U = B(0, 0).complement()  # {|z| >= 1} plus infinity
    assert U.contains(ProjPoint(1))
    assert not U.contains(ProjPoint(5))
    V = E(0, 0).complement()  # {|z| > 1} plus infinity
    assert not V.contains(ProjPoint(1))
    assert V.contains(ProjPoint(Fraction(1, 5)))


def test_canonical_center_prefers_small_height():
    # -1 and 4 agree mod 5; the small representative wins
    assert B(4, -Fraction(1, 2)).center == Fraction(-1)
    assert E(Fraction(-3, 47), -3).center == Fraction(-24)
    assert B(125, -1).center == 0


def test_image_examples():
    scale = Homography(5, 0, 0, 1)
    assert image(scale, E(0, 0)) == E(0, -1)
    inv = Homography(0, 1, 1, 0)
    assert image(inv, E(1, -1)) == E(1, -1)  # the unit sphere is preserved
    got = image(inv, E(0, -1))
    assert got == Disk(False, False, 0, 1, P)  # {|z| >= 5} with infinity
    assert not got.bounded and not got.is_open


def test_image_roundtrip_and_structure():
    rng = random.Random(11)
    for _ in range(200):
        while True:
            entries = [rng.randint(-15, 15) for _ in range(4)]
            if entries[0] * entries[3] - entries[1] * entries[2] != 0:
                break
        g = Homography(*entries)
        D = _random_disk(rng)
        out = image(g, D)
        assert out.is_open == D.is_open  # openness is preserved
        assert image(g.inverse(), out) == D


def _random_disk(rng):
    center = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
    exp = Fraction(rng.randint(-4, 4))
    return Disk(rng.random() < 0.7, rng.random() < 0.5, center, exp, P)


def _random_point(rng):
    if rng.random() < 0.08:
        return INFINITY
    return ProjPoint(Fraction(rng.randint(-300, 300), rng.randint(1, 300)))


def test_image_membership_oracle():
    # contains(D, x) iff contains(g(D), g(x)), 500 exact samples
    rng = random.Random(5012)
    for _ in range(500):
        while True:
            entries = [rng.randint(-12, 12) for _ in range(4)]
            if entries[0] * entries[3] - entries[1] * entries[2] != 0:
                break
        g = Homography(*entries)
        D = _random_disk(rng)
        x = _random_point(rng)
        assert D.contains(x) == image(g, D).contains(g.apply(x))


def test_point_to_disk_delta_examples():
    assert point_to_disk_delta(INFINITY, E(0, 0)) == 0
    assert point_to_disk_delta(ProjPoint(1), E(0, -1)) == 0
    # |25| = 1/25 sits outside the open disk of radius 1/25 around 0
    assert point_to_disk_delta(ProjPoint(25), B(0, -2)) == -2


def test_point_to_disk_delta_inside_is_neg_inf():
    assert point_to_disk_delta(ProjPoint(25), E(0, -1)) == NEG_INF  # 25 is in E(0, 1/5)
    assert point_to_disk_delta(INFINITY, B(0, -1).complement()) == NEG_INF


def _disk_rational_samples(D, count=400, seed=3):
    """Rational points of a bounded disk, including extreme-radius ones."""
    rng = random.Random(seed)
    out = [ProjPoint(D.center)]
    for _ in range(count):
        v = rng.randint(D._m, D._m + 5)
        k = rng.randint(-40, 40)
        x = D.center + Fraction(k) * Fraction(P) ** v
        pt = ProjPoint(x)
        if D.contains(pt):
            out.append(pt)
    return out


@pytest.mark.parametrize(
    "x,disk",
    [
        (INFINITY, E(0, 0)),
        (ProjPoint(1), E(0, -1)),
        (ProjPoint(25), B(0, -2)),
        (ProjPoint(Fraction(1, 25)), E(0, -1)),
        (ProjPoint(Fraction(7, 25)), E(Fraction(1, 5), 1)),
        (INFINITY, E(3, 2)),
    ],
)
def test_point_to_disk_delta_brute_force(x, disk):
    formula = point_to_disk_delta(x, disk)
    sampled = min(delta(x, y, CTX) for y in _disk_rational_samples(disk))
    # sampling can only overshoot the infimum, and must attain it whenever
    # the extremal radius carries rational points (true for these cases)
    assert sampled == formula


def test_min_delta_disjoint_disks_brute_force():
    cases = [
        (E(0, -1), E(1, -1)),
        (E(0, -2), E(Fraction(1, 5), 0)),
        (B(0, -1).complement(), E(0, -3)),
        (B(2, -1).complement(), B(2, -2)),
    ]
    for D1, D2 in cases:
        got = min_delta_disjoint_disks(D1, D2)
        if D1.bounded:
            xs = _disk_rational_samples(D1, seed=5)
        else:
            xs = [INFINITY] + [
                ProjPoint(D1.center + Fraction(k) * Fraction(P) ** v)
                for k in range(-20, 21)
                for v in range(-3, D1._m + 1)
                if k != 0 or v == 0
            ]
            xs = [x for x in xs if D1.contains(x)]
        ys = _disk_rational_samples(D2, seed=6)
        sampled = min(delta(x, y, CTX) for x in xs for y in ys)
        assert sampled == got


def test_poly_distance_examples():
    assert poly_distance_exponent([0, 0, 1], CTX) == (2, abs_exponent(2, 5))
    assert poly_distance_exponent([0, 1], CTX) == (1, 0)
    assert poly_distance_exponent([0, 5, 0, 1], CTX) == (1, -1)


def test_poly_distance_errors():
    with pytest.raises(ConstantPolynomial):
        poly_distance_exponent([3], CTX)
    with pytest.raises(CoefficientTooLarge):
        poly_distance_exponent([0, Fraction(1, 5)], CTX)


def test_poly_distance_inequality_on_samples():
    # f(z) = z^2 (z - 1) has rational roots {0, 0, 1}; L1 = roots, L2 = {0}.
    coeffs = [0, 0, -1, 1]
    m, c_exp = poly_distance_exponent(coeffs, CTX)
    assert m == 2
    roots = [ProjPoint(0), ProjPoint(1)]
    zero = ProjPoint(0)
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        x = Fraction(rng.randint(-200, 200), rng.randint(1, 40)) * 25
        if x == 0 or abs_exponent(x, 5) > -2:  # sample within |x| <= 1/25
            continue
        fx = sum(Fraction(a) * x**i for i, a in enumerate(coeffs))
        lhs = delta(ProjPoint(fx), zero, CTX)
        rhs = c_exp + m * min(delta(ProjPoint(x), r, CTX) for r in roots)
        assert lhs >= rhs
        checked += 1


def test_affinoid_emptiness():
    # a closed disk minus a same-radius open hole keeps its sphere
    sphere = Affinoid(E(0, 0), (B(0, 0),))
    assert not sphere.is_empty()
    swallowed = Affinoid(E(0, -1), (B(0, 0),))
    assert swallowed.is_empty()
    # all of P^1 minus bounded holes keeps infinity
    assert not Affinoid(None, (B(0, 0), B(7, 2))).is_empty()
    # two open disks can cover P^1
    covered = Affinoid(None, (B(0, 2), E(0, -2).complement()))
    assert covered.is_empty()
    near_cover = Affinoid(None, (B(0, 2), E(0, 2).complement()))
    assert not near_cover.is_empty()  # the radius-25 sphere survives


def test_affinoid_intersection():
    ring = Affinoid(E(0, 0), (B(0, -1),))
    inner = Affinoid(E(0, -2), ())
    assert not ring.intersects(inner)
    assert ring.intersects(Affinoid(E(0, 0), ()))
    assert ring.intersects(ring)


def _in_disk(x: ProjPoint, D: Disk) -> bool:
    """Membership from the definition: |x - c| < p**e (open) or <= p**e
    (closed) for a bounded disk; an unbounded disk holds infinity and
    the points outside its complementary bounded disk."""
    if not D.bounded:
        return x.is_infinity or not _in_disk(x, D.complement())
    if x.is_infinity:
        return False
    d = abs_exponent(x.value - D.center, P)
    return d < D.radius_exp if D.is_open else d <= D.radius_exp


def test_affinoid_contains_points_of_the_outer_disk_outside_the_holes():
    points = [INFINITY] + [
        ProjPoint(Fraction(n, d)) for n in range(-30, 31) for d in (1, 2, 5, 25, 125)
    ]
    regions = [
        Affinoid(E(0, 0), (B(0, -1), B(3, -2))),
        Affinoid(E(1, 1), ()),
        Affinoid(None, (B(0, 0), E(0, 2).complement())),  # an unbounded hole
        # an unbounded outer disk
        Affinoid(E(0, 1).complement().closure(), (B(Fraction(1, 5), 0),)),
    ]
    for region in regions:
        inside = 0
        for x in points:
            want = (region.outer is None or _in_disk(x, region.outer)) and not any(
                _in_disk(x, h) for h in region.holes
            )
            assert region.contains(x) == want
            inside += want
        assert 0 < inside < len(points)
