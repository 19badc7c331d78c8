"""The disk kernel agrees slot for slot with the reference in
``canonical_oracle``.

The draws are forced onto each path of the library: valuations from 0 to
three windows W (p**W, the largest power of p below 2**30) and one of
6000; closures of open disks with k = 0 and k > 0, k = e and k = e + 1,
a zero center and a residue at or next to half the modulus (a tie for
p = 2); and images under products of up to 8 sample-group generators and
their conjugates, whose entries have large valuations.
"""

from fractions import Fraction
from functools import lru_cache

from hypothesis import event, given, strategies as st

import canonical_oracle as ref
from schottky.disks import Disk, image
from schottky.groups import sample_group
from schottky.padic import valuation
from schottky.proj import Homography

primes = st.sampled_from([2, 3, 5, 7])


def window(p: int) -> int:
    """W >= 1, the largest exponent with p**W below 2**30."""
    W = 1
    while p ** (W + 1) < 2**30:
        W += 1
    return W


def slots(D: Disk) -> tuple:
    """All nine slots with their types."""
    return tuple((type(v), v) for v in (getattr(D, name) for name in Disk.__slots__))


@given(
    p=st.sampled_from([2, 3, 5, 7, 2**31 - 1]),
    unit=st.integers(1, 10**40),
    sign=st.sampled_from([1, -1]),
    data=st.data(),
)
def test_valuation_matches_the_reference(p, unit, sign, data):
    W = window(p)
    edges = st.sampled_from([W - 1, W, W + 1, 2 * W, 3 * W])
    v = data.draw(st.integers(0, 3 * W) | edges)
    x = sign * unit * p**v
    got = valuation(x, p)
    event(f"windows passed: {got // W}")
    assert got == ref.valuation(x, p)
    assert valuation(Fraction(unit, x), p) == ref.valuation(Fraction(unit, x), p)


def test_deep_valuation():
    # 5**6000 has 4,194 digits, below the 4,300-digit limit for integer text
    x = 7 * 5**6000
    assert len(str(x)) == 4195
    assert valuation(x, 5) == ref.valuation(x, 5) == 6000
    assert valuation(Fraction(3, x), 5) == -6000
    assert valuation(x + 1, 5) == 0


@st.composite
def open_disks(draw, p):
    """Bounded open disks with an integral radius exponent e, forced onto
    each path of the closure."""
    e = draw(st.integers(-8, 8))
    shape = draw(st.sampled_from(["k = 0", "k = e", "k = e + 1", "k > 0", "zero", "half"]))
    if shape == "zero":
        center = 0
    elif shape == "k = 0":
        center = draw(st.integers(-10**6, 10**6)) * p ** draw(st.integers(0, 12))
    elif shape == "half":
        # cn = m/2 + j*m + t with m = p^(k - e): a tie at m/2 for p = 2
        k = draw(st.integers(max(0, e + 1), max(0, e + 1) + 2))
        m = p ** (k - e)
        cn = m // 2 + draw(st.integers(-3, 3)) * m + draw(st.sampled_from([-1, 0, 0, 1]))
        center = Fraction(cn, p**k)
    else:
        k = max(0, {"k = e": e, "k = e + 1": e + 1, "k > 0": draw(st.integers(1, 12))}[shape])
        unit = draw(st.integers(1, 10**6).filter(lambda u: u % p))
        center = Fraction(draw(st.sampled_from([1, -1])) * unit, p**k)
    return (True, True, center, e, p)


@given(p=primes, data=st.data())
def test_closure_of_open_bounded_disks(p, data):
    args = data.draw(open_disks(p))
    D = Disk(*args)
    assert slots(D) == slots(ref.disk(*args))
    got, want = D.closure(), ref.closure(D)
    e, k = D.radius_exp, D._k
    if k <= e:
        event("k <= e")
    else:
        center = "0" if got._cn == 0 else "!= 0"
        event(f"k {'> 0' if k else '= 0'}, k - e = {min(k - e, 2)}, center {center}")
        if 2 * abs(got._cn) == p ** (k - e):
            event("residue at half the modulus")
    assert slots(got) == slots(want)


radius_exps = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 1, 2, 3]))


@st.composite
def any_disks(draw, p):
    """Disks of every shape: bounded or not, open or closed, integral or
    fractional radius exponents."""
    num = draw(st.integers(-10**6, 10**6)) * p ** draw(st.integers(0, 8))
    center = Fraction(num, p ** draw(st.integers(0, 8)) * draw(st.sampled_from([1, 1, 7, 11])))
    return (draw(st.booleans()), draw(st.booleans()), center, draw(radius_exps), p)


@given(p=primes, data=st.data())
def test_disks_closures_and_complements(p, data):
    args = data.draw(any_disks(p))
    D = Disk(*args)
    assert slots(D) == slots(ref.disk(*args))
    assert slots(D.closure()) == slots(ref.closure(D))
    assert slots(D.complement().closure()) == slots(ref.closure(D.complement()))


@lru_cache(maxsize=None)
def group(p: int, multiplier_exponent: int):
    return sample_group(p, 2, multiplier_exponent)


@st.composite
def group_elements(draw, G):
    """Products g of up to 8 generators, and conjugates h g h^-1 by another
    product or by the scaling z -> z / p^j, which raises v(c)."""
    letters = st.lists(st.sampled_from([1, 2, -1, -2]), max_size=8)
    g = G.word_homography(draw(letters))
    shape = draw(st.sampled_from(["product", "conjugate", "scaled"]))
    if shape == "conjugate":
        h = G.word_homography(draw(letters))
        g = h * g * h.inverse()
    elif shape == "scaled":
        h = Homography(1, 0, 0, G.ctx.p ** draw(st.integers(1, 40)))
        g = h * g * h.inverse()
    return g


@given(p=primes, multiplier=st.sampled_from([2, 4, 8]), data=st.data())
def test_images_under_group_elements(p, multiplier, data):
    G = group(p, multiplier)
    g = data.draw(group_elements(G))
    a, b, c, d = g.entries
    event(f"v(c) >= W: {c != 0 and valuation(c, p) >= window(p)}")
    event(f"v(det) >= W: {valuation(a * d - b * c, p) >= window(p)}")
    base = [D for _, B, K in G._domain for D in (B, K, B.complement(), K.complement())]
    D = data.draw(st.sampled_from(base) | any_disks(p).map(lambda args: Disk(*args)))
    got, want = image(g, D), ref.image(g, D)
    assert slots(got) == slots(want)
    assert slots(got.closure()) == slots(ref.closure(want))

