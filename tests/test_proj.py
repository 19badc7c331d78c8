import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from schottky.errors import NotASquareInQp, PrecisionExhausted
from schottky.padic import NEG_INF, PadicApprox, PrimeContext, valuation
from schottky.proj import (
    INFINITY,
    ElementClass,
    Homography,
    ProjPoint,
    classify,
    delta,
    fixed_points,
    lipschitz_exponent,
)

CTX = PrimeContext(5, 12)

rationals = st.fractions(min_value=-(10**4), max_value=10**4, max_denominator=10**4)
points = st.one_of(st.just(INFINITY), rationals.map(ProjPoint))


def rand_point(rng):
    if rng.random() < 0.1:
        return INFINITY
    return ProjPoint(Fraction(rng.randint(-400, 400), rng.randint(1, 400)))


def test_point_normalization():
    assert ProjPoint(2, 4) == ProjPoint(Fraction(1, 2))
    assert ProjPoint(7, 0) == INFINITY
    with pytest.raises(ValueError):
        ProjPoint(0, 0)


def test_apply_examples():
    inv = Homography(0, 1, 1, 0)
    assert inv.apply(ProjPoint(5)) == ProjPoint(Fraction(1, 5))
    h1 = Homography(1, 0, -24, 25)
    # image of infinity is a/c in homogeneous coordinates
    assert h1.apply(INFINITY) == ProjPoint(Fraction(-1, 24))
    assert Homography.identity().apply(ProjPoint(Fraction(3, 7))) == ProjPoint(Fraction(3, 7))


def test_compose_inverse_examples():
    g = Homography(3, 1, 5, 2)
    assert g * g.inverse() == Homography.identity()
    assert Homography(1, 1, 0, 1).inverse() == Homography(1, -1, 0, 1)
    d5 = Homography(1, 0, 0, 5)
    assert d5 * d5 == Homography(1, 0, 0, 25)


def test_canonical_form():
    assert Homography(2, 4, 0, 2).entries == (1, 2, 0, 1)
    assert Homography(-1, 0, 24, -25).entries == (1, 0, -24, 25)
    assert Homography(Fraction(1, 2), 0, 0, Fraction(5, 2)).entries == (1, 0, 0, 5)
    with pytest.raises(ValueError):
        Homography(1, 2, 2, 4)


# small entries, often zero, times a content that may be large
matrices = st.tuples(
    st.lists(st.integers(-6, 6), min_size=4, max_size=4),
    st.one_of(st.integers(1, 3), st.integers(1, 10**30)),
    st.sampled_from([1, -1]),
).map(lambda t: tuple(t[2] * t[1] * e for e in t[0]))
nonsingular = matrices.filter(lambda m: m[0] * m[3] != m[1] * m[2])


@given(m1=nonsingular, m2=nonsingular)
# raw products (0, -1, 1, 0) and (0, -2, 2, 0), with a = 0 and b < 0, and
# (-2, -2, 4, 6), whose content is divided out with a negative sign
@example(m1=(0, 1, 1, 0), m2=(1, 0, 0, -1))
@example(m1=(1, -1, 1, 1), m2=(1, -1, 1, 1))
@example(m1=(1, -1, 1, 1), m2=(1, 2, 3, 4))
def test_trusted_product_and_inverse_match_the_checked_constructor(m1, m2):
    g, h = Homography(*m1), Homography(*m2)
    a, b, c, d = g.entries
    e, f, u, v = h.entries
    product = Homography(a * e + b * u, a * f + b * v, c * e + d * u, c * f + d * v)
    assert (g * h).entries == product.entries
    assert g.inverse().entries == Homography(d, -b, -c, a).entries
    assert g * h == product and hash(g * h) == hash(product)
    assert (g * g.inverse()).is_identity


@given(m1=nonsingular, m2=nonsingular)
def test_homography_is_a_frozen_slot_instance(m1, m2):
    """A checked, product, inverse or identity Homography has no __dict__,
    refuses assignment and deletion, and its == and hash are those of the
    checked constructor over its entries."""
    g, h = Homography(*m1), Homography(*m2)
    for x in (g, g * h, g.inverse(), Homography.identity()):
        checked = Homography(*x.entries)
        assert x == checked and hash(x) == hash(checked)
        assert not hasattr(x, "__dict__")
        with pytest.raises(FrozenInstanceError):
            x.entries = (1, 0, 0, 1)
        with pytest.raises(FrozenInstanceError):
            del x.entries
        # a name outside the fields is refused too; Python 3.11's frozen
        # __setattr__ raises TypeError there, as it still names the class
        # that slots=True replaced
        with pytest.raises((FrozenInstanceError, TypeError)):
            x.scale = 2
    assert Homography.__slots__ == ("entries",)


def test_delta_examples():
    assert delta(ProjPoint(0), ProjPoint(1), CTX) == 0
    assert delta(ProjPoint(5), ProjPoint(0), CTX) == -1
    assert delta(ProjPoint(Fraction(1, 5)), INFINITY, CTX) == -1
    assert delta(INFINITY, INFINITY, CTX) == NEG_INF
    assert delta(ProjPoint(3), ProjPoint(3), CTX) == NEG_INF


@given(x=points, y=points)
def test_delta_symmetry_and_separation(x, y):
    d = delta(x, y, CTX)
    assert d == delta(y, x, CTX)
    assert (d == NEG_INF) == (x == y)
    assert d <= 0  # the chordal distance never exceeds 1


@given(x=points, y=points, z=points)
def test_delta_ultrametric(x, y, z):
    dxz = delta(x, z, CTX)
    assert dxz <= max(delta(x, y, CTX), delta(y, z, CTX))


def _random_matrix(rng, unit_det=False):
    while True:
        a, b, c, d = (rng.randint(-20, 20) for _ in range(4))
        det = a * d - b * c
        if det == 0 or (unit_det and det % 5 == 0):
            continue
        return Homography(a, b, c, d)


def test_delta_invariance_under_integral_unit_det():
    rng = random.Random(20260809)
    for _ in range(200):
        g = _random_matrix(rng, unit_det=True)
        x, y = rand_point(rng), rand_point(rng)
        assert delta(g.apply(x), g.apply(y), CTX) == delta(x, y, CTX)


def test_delta_lipschitz_bound():
    rng = random.Random(7)
    for _ in range(200):
        g = _random_matrix(rng)
        bound = lipschitz_exponent(g, CTX)
        x, y = rand_point(rng), rand_point(rng)
        assert delta(g.apply(x), g.apply(y), CTX) <= bound + delta(x, y, CTX)


def test_classify_examples():
    assert classify(Homography(1, 0, 0, 5), CTX) is ElementClass.HYPERBOLIC
    assert classify(Homography(1, 1, 0, 1), CTX) is ElementClass.PARABOLIC
    assert classify(Homography(0, 1, -1, 0), CTX) is ElementClass.ELLIPTIC_OR_OTHER
    assert classify(Homography.identity(), CTX) is ElementClass.IDENTITY


def test_fixed_points_of_g5_generator():
    h1 = Homography(1, 0, -24, 25)
    fp = fixed_points(h1, CTX)
    # oracle: -24 z^2 + 24 z = 0 has roots 0 and 1
    assert set(fp.points) == {ProjPoint(0), ProjPoint(1)}
    assert fp.attracting == ProjPoint(1)
    assert fp.repelling == ProjPoint(0)
    # the rational attracting point is genuinely fixed
    assert h1.apply(fp.attracting) == fp.attracting


def test_fixed_points_diagonal():
    fp = fixed_points(Homography(1, 0, 0, 25), CTX)
    assert set(fp.points) == {ProjPoint(0), INFINITY}
    # multiplier at 0 is 1/25 with |1/25| = 25, so 0 repels
    assert fp.attracting == INFINITY
    assert fp.repelling == ProjPoint(0)


def test_fixed_points_parabolic_degenerate_pair():
    fp = fixed_points(Homography(1, 1, 0, 1), CTX)
    assert fp.points == (INFINITY, INFINITY)
    assert fp.element_class is ElementClass.PARABOLIC
    assert fp.attracting is None


def _approx_as_fraction(x: PadicApprox) -> Fraction:
    return Fraction(x.unit) * Fraction(5) ** x.valuation


def test_fixed_points_hensel_branch():
    g = Homography(3, 1, 5, 10)  # disc = 69, a 5-adic but not rational square
    assert classify(g, CTX) is ElementClass.HYPERBOLIC
    fp = fixed_points(g, CTX)
    att, rep = fp.attracting, fp.repelling
    assert isinstance(att, PadicApprox) and isinstance(rep, PadicApprox)
    # oracle: plug the truncation into c z^2 + (d-a) z - b; the value must
    # vanish to the approximation's full modulus
    for z in (att, rep):
        value = 5 * _approx_as_fraction(z) ** 2 + 7 * _approx_as_fraction(z) - 1
        assert valuation(value, 5) >= z.modulus_exponent
    # distinct eigenvalue sizes show up as distinct fixed-point valuations
    assert att.valuation != rep.valuation


def test_fixed_points_not_a_square():
    g = Homography(0, 1, -1, 0)  # z^2 = -1, no root in Q_7
    with pytest.raises(NotASquareInQp):
        fixed_points(g, PrimeContext(7, 8))
    # but in Q_5 the root exists as an approximation
    fp = fixed_points(g, CTX)
    z = fp.points[0]
    assert isinstance(z, PadicApprox)
    assert (z.residue(6) ** 2 + 1) % 5**6 == 0


def test_fixed_points_cancellation_leaves_no_digit():
    # disc = 21 has the 5-adic root 1 + 2*5 + ...; a - d + s = -1 + 1 = 0 mod 5
    g = Homography(0, 5, 1, 1)
    with pytest.raises(PrecisionExhausted):
        fixed_points(g, PrimeContext(5, 1))
    # at two digits a - d + s = 10, one digit of 10 / 2 = 5 survives
    att = fixed_points(g, PrimeContext(5, 2)).attracting
    assert (att.valuation, att.unit, att.precision) == (1, 1, 1)


def test_fixed_points_identity_rejected():
    with pytest.raises(ValueError):
        fixed_points(Homography.identity(), CTX)
