import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

import fixed_point_oracle
import hensel_oracle
from schottky.errors import NotASquareInQp, SchottkyError, UnsupportedPrime
from schottky.padic import NEG_INF, PrimeContext, valuation
from schottky.proj import (
    INFINITY,
    ElementClass,
    Homography,
    ProjPoint,
    QuadPoint,
    classify,
    delta,
    fixed_points,
    lipschitz_exponent,
)

CTX = PrimeContext(5)

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
        # a name outside the fields is refused too
        with pytest.raises(FrozenInstanceError):
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


def test_fixed_points_hensel_branch():
    g = Homography(3, 1, 5, 10)  # disc = 69, a 5-adic but not rational square
    assert classify(g, CTX) is ElementClass.HYPERBOLIC
    fp = fixed_points(g, CTX)
    # x = (a - d) / 2c, D = disc / 4c^2; rho(sqrt 69) = 2 and rho(2c) = 2 give the
    # digits 1 and 4, and rho(tr) = 3 differs from 2, so z- attracts
    x, D = Fraction(-7, 10), Fraction(69, 100)
    assert (fp.attracting, fp.repelling) == (QuadPoint(x, D, 4, 5), QuadPoint(x, D, 1, 5))
    assert fp.points == (fp.attracting, fp.repelling)
    # the digits of x + w plugged into c z^2 + (d-a) z - b vanish to their full modulus
    for z in fp.points:
        approx = hensel_oracle.digits(z, 12)
        value = Fraction(approx.unit) * Fraction(5) ** approx.valuation
        assert valuation(5 * value**2 + 7 * value - 1, 5) >= approx.modulus_exponent
    # distinct eigenvalue sizes show up as distinct fixed-point valuations
    assert hensel_oracle.digits(fp.attracting, 12).valuation != 0
    assert hensel_oracle.digits(fp.repelling, 12).valuation == 0


def test_fixed_points_not_a_square():
    g = Homography(0, 1, -1, 0)  # z^2 = -1, no root in Q_7
    with pytest.raises(NotASquareInQp):
        fixed_points(g, PrimeContext(7))
    with pytest.raises(NotASquareInQp):  # v_5(disc) is odd
        fixed_points(Homography(0, 5, 1, 0), CTX)
    # but in Q_5 the roots exist: +-w with w^2 = -1, told apart by w = 2 or 3 mod 5
    fp = fixed_points(g, CTX)
    assert fp.points == (QuadPoint(Fraction(0), Fraction(-1), 2, 5), QuadPoint(0, -1, 3, 5))
    assert (hensel_oracle.digits(fp.points[0], 6).residue(6) ** 2 + 1) % 5**6 == 0


def test_fixed_points_at_2_take_no_irrational_root():
    with pytest.raises(UnsupportedPrime):
        fixed_points(Homography(3, 1, 5, 10), PrimeContext(2))  # disc = 69
    fp = fixed_points(Homography(1, 0, 0, 4), PrimeContext(2))
    assert (fp.attracting, fp.repelling) == (INFINITY, ProjPoint(0))


def test_fixed_points_cancellation_is_exact():
    # disc = 21 has the 5-adic root 1 + 2*5 + ...; a - d + s = -1 + s = 0 mod 5, so a
    # one-digit Hensel root leaves the attracting point no digit
    g = Homography(0, 5, 1, 1)
    with pytest.raises(hensel_oracle.PrecisionExhausted):
        hensel_oracle.fixed_points(g, 5, 1)
    att = fixed_points(g, CTX).attracting
    assert att == QuadPoint(Fraction(-1, 2), Fraction(21, 4), 3, 5)
    # the exact point has the digits of every longer root
    for n in (2, 3, 10, 60):
        want = hensel_oracle.fixed_points(g, 5, n).attracting
        assert hensel_oracle.digits(att, want.modulus_exponent) == want
    assert hensel_oracle.digits(att, 2) == hensel_oracle.PadicApprox(1, 1, 5, 1)


@st.composite
def cancelling_matrices(draw):
    """(g, p) with a discriminant that is a p-adic but no rational square and
    a - d + s or a - d - s cancelling in up to 30 digits.

    disc = p^2t (u^2 + e p^m) for a unit u has a root s = +-u p^t mod p^(t+m),
    and a - d = +-u p^t + f p^(t+n) cancels against it in min(m, n) digits."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    t = draw(st.integers(0, 3))
    u = draw(st.integers(1, p**4).filter(lambda u: u % p))
    m, n = draw(st.integers(1, 30)), draw(st.integers(0, 30))
    disc = p ** (2 * t) * (u * u + draw(st.integers(-50, 50).filter(bool)) * p**m)
    assume(isqrt(max(disc, 0)) ** 2 != disc)
    a_minus_d = draw(st.sampled_from([1, -1])) * u * p**t + draw(st.integers(-9, 9)) * p ** (t + n)
    c = draw(st.integers(-20, 20).filter(bool)) * p ** draw(st.integers(0, 3))
    d = draw(st.integers(-(10**6), 10**6)) * p ** draw(st.integers(0, 4))
    a, b = d + a_minus_d, Fraction(disc - a_minus_d**2, 4 * c)
    assume(a * d != b * c)
    return Homography(a, b, c, d), p


@settings(max_examples=400)
@given(case=cancelling_matrices())
def test_fixed_points_match_the_hensel_reference(case):
    """The exact points carry the digits of the 200-digit Hensel points, in
    the same order and with the same tags."""
    g, p = case
    want = hensel_oracle.fixed_points(g, p)
    got = fixed_points(g, PrimeContext(p))
    event(got.element_class.value)
    assert got.element_class is want.element_class
    assert all(type(z) is QuadPoint for z in got.points)
    a, b, c, d = g.entries
    t = min(valuation(a - d, p), valuation((d - a) ** 2 + 4 * b * c, p) // 2)
    for z, w in zip(got.points, want.points):
        # a - d +- s has valuation v(z) + v(2c), where min(v(a - d), v(s)) has no cancellation
        event(f"cancels {(w.valuation + valuation(2 * c, p) - t + 9) // 10 * 10} digits or fewer")
        assert hensel_oracle.digits(z, w.modulus_exponent) == w
    assert (got.attracting is None) == (want.attracting is None)
    if got.attracting is not None:
        assert got.points == (got.attracting, got.repelling)


@given(case=cancelling_matrices())
def test_fixed_points_of_the_inverse_swap_their_tags(case):
    g, p = case
    ctx = PrimeContext(p)
    fp, inv = fixed_points(g, ctx), fixed_points(g.inverse(), ctx)
    assert set(inv.points) == set(fp.points)
    assert {hash(z) for z in inv.points} == {hash(z) for z in fp.points}
    assert (inv.attracting, inv.repelling) == (fp.repelling, fp.attracting)


def test_fixed_points_identity_rejected():
    with pytest.raises(ValueError):
        fixed_points(Homography.identity(), CTX)


@st.composite
def root_formula_cases(draw):
    """(g, p) at p in {2, 3, 5, 7, 11}: g upper triangular (c = 0, with
    a = d a third of the time), parabolic (disc = 0, fixing infinity when
    v = 0), conjugated from diag(l1, l2) so that its fixed points are
    rational (infinity among them when y1 = 0), or random."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))

    def entry(zero=True):
        n = draw(st.integers(0 if zero else 1, 30)) * draw(st.sampled_from([1, -1]))
        return n * p ** draw(st.integers(0, 3))

    kind = draw(st.sampled_from(["c = 0"] * 3 + ["parabolic", "rational pair", "random"]))
    if kind == "c = 0":
        a, b = entry(False), entry()
        g = Homography(a, b, 0, a if draw(st.integers(0, 2)) == 0 else entry(False))
    elif kind == "parabolic":
        u, v, k = entry(), entry(), entry(False)
        assume(u or v)
        g = Homography(1 + k * u * v, -k * u * u, k * v * v, 1 - k * u * v)
    elif kind == "rational pair":
        x1, x2, y1, y2 = entry(), entry(), entry(), entry()
        assume(x1 * y2 != x2 * y1)
        s = Homography(x1, x2, y1, y2)
        g = s * Homography(entry(False), 0, 0, entry(False)) * s.inverse()
    else:
        a, b, c, d = entry(), entry(), entry(), entry()
        assume(a * d != b * c)
        g = Homography(a, b, c, d)
    a, b, c, d = g.entries
    event("c = 0" if c == 0 else "c != 0")
    event(f"disc {'= 0' if (d - a) ** 2 + 4 * b * c == 0 else '!= 0'}")
    return g, p


def _fixed_point_outcome(solve, g, p):
    """The FixedPointPair of g at p, or the type and text of the error."""
    try:
        return solve(g, PrimeContext(p))
    except (SchottkyError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=600)
@given(case=root_formula_cases())
def test_fixed_points_match_the_branched_reference(case):
    """One root formula gives the points, order, tags and errors that the
    affine, double-root and root-formula branches gave."""
    g, p = case
    got = _fixed_point_outcome(fixed_points, g, p)
    want = _fixed_point_outcome(fixed_point_oracle.fixed_points, g, p)
    event(got[0].__name__ if isinstance(got, tuple) else got.element_class.value)
    assert got == want
