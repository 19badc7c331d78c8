"""The distance to the limit set against the best-first search.

``delta_to_limit`` pulls the point back toward the fundamental domain F
and starts its descent at the reduction word when that word's closed
cover disk is a chordal ball, and at the identity otherwise.
``search_oracle.delta_to_limit`` is the best-first search over the whole
cover.  Both must give the same exponents, or the same PointNearLimitSet
text, on drawn groups (the x/p^3 conjugates included, whose word disks
need not be chordal balls), for points w(x0) with x0 inside F or on a
boundary circle, and for rational fixed points of words up to length 3
and their images, at depths 1 to 16.
"""

from fractions import Fraction

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import search_oracle
from conftest import cached_sample_group, conjugate, drawn_groups, rational_fixed_pairs
from schottky import INFINITY, PointNearLimitSet, ProjPoint


def _units(p):
    """Rationals a / b with p dividing neither a nor b."""
    residues = st.integers(1, p - 1)
    prime_to_p = st.builds(lambda q, r: q * p + r, st.integers(-10**3, 10**3), residues)
    return st.builds(Fraction, prime_to_p, prime_to_p)


@st.composite
def delta_cases(draw):
    """(group, x0, letters): x0 inside F, on a boundary circle or a fixed
    point of a short word, and a reduced word of length at most 14."""
    G = draw(drawn_groups((2, 3, 5, 7)))
    kind = draw(st.sampled_from(("interior", "boundary", "fixed point")))
    if kind == "interior":
        num = draw(st.integers(-10**6, 10**6))
        den = draw(st.integers(1, 10**3)) * G.p ** draw(st.integers(0, 4))
        x0 = ProjPoint(Fraction(num, den))
        if not G.in_domain(x0, interior=True):
            x0 = INFINITY
    elif kind == "boundary":
        # |x0 - c| = p^e on the sphere of an open domain disk B(c, p^e)
        _, D, _ = draw(st.sampled_from(G._domain))
        x0 = ProjPoint(D.center + draw(_units(G.p)) * Fraction(G.p) ** -D.radius_exp)
    else:
        x0 = draw(st.sampled_from([x for pair in rational_fixed_pairs(G) for x in pair]))
    letters = []
    for _ in range(draw(st.integers(0, 14))):
        choices = [l for l in G.letters() if not (letters and l == -letters[-1])]
        letters.append(draw(st.sampled_from(choices)))
    event(kind)
    return G, x0, tuple(letters)


def _outcome(search, G, x, depth):
    """The exponents and depth of the answer, or the error text."""
    try:
        bound = search(G, x, depth)
    except PointNearLimitSet as exc:
        return str(exc)
    return bound.lower_exponent, bound.upper_exponent, bound.depth


# g1^-1(inf) lies in the closed cover disk of g1^-1, which is not a chordal
# ball, and the other letter's disk is nearer: the descent must start at
# the identity.
NOT_A_BALL = conjugate(cached_sample_group(5, 1), "x/p^3"), INFINITY, (-1,)


@settings(max_examples=600)
@given(delta_cases(), st.integers(1, 16))
@example(NOT_A_BALL, 2)
def test_delta_to_limit_matches_the_best_first_search(case, depth):
    G, x0, letters = case
    x = G.word_homography(letters).apply(x0)
    got = _outcome(type(G).delta_to_limit, G, x, depth)
    event("near the limit set" if isinstance(got, str) else "answered")
    assert got == _outcome(search_oracle.delta_to_limit, G, x, depth)
