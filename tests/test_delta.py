"""The distance to the limit set against the best-first search.

``delta_to_limit`` pulls the point back toward the fundamental domain F
and starts its descent at the reduction word when that word's closed
cover disk is a chordal ball, and at the identity otherwise.
``search_oracle.delta_to_limit`` is the best-first search over the whole
cover.  Both must give the same exponents, or the same PointNearLimitSet
text, on drawn groups (the x/p^3 conjugates included, whose word disks
need not be chordal balls), for points w(x0) with x0 inside F or on a
boundary circle, and for rational fixed points of words up to length 3
and their images, at depths 1 to 16.  A point on the boundary sphere of
a cover disk gets its own test: the descent answers there, and imaging
that disk's children would prove nothing.
"""

from fractions import Fraction

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import search_oracle
from conftest import (
    cached_sample_group,
    conjugate,
    count_cover_nodes,
    drawn_groups,
    rational_fixed_pairs,
)
from cover_oracle import closed_word_disk
from schottky import INFINITY, PointNearLimitSet, ProjPoint, Word
from schottky.groups import SchottkyGroup


def _units(p):
    """Rationals a / b with p dividing neither a nor b."""
    residues = st.integers(1, p - 1)
    prime_to_p = st.builds(lambda q, r: q * p + r, st.integers(-10**3, 10**3), residues)
    return st.builds(Fraction, prime_to_p, prime_to_p)


@st.composite
def reduced_letters(draw, G, max_length):
    """The letters of a reduced word of G of length at most max_length."""
    letters = []
    for _ in range(draw(st.integers(0, max_length))):
        choices = [l for l in G.letters() if not (letters and l == -letters[-1])]
        letters.append(draw(st.sampled_from(choices)))
    return tuple(letters)


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
    event(kind)
    return G, x0, draw(reduced_letters(G, 14))


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


def _fresh_outcome(G, x, depth):
    """The outcome of delta_to_limit(x, depth) on a copy of G, whose node
    builder is wrapped to count, and the number of cover nodes it imaged."""
    H = SchottkyGroup(G.ctx, G.generators, G.B, G.C)
    imaged = count_cover_nodes(H)
    return _outcome(SchottkyGroup.delta_to_limit, H, x, depth), len(imaged)


def _is_ball(G, letters):
    return closed_word_disk(G, letters, G.word_homography(letters)).in_residue_disk


@settings(max_examples=200)
@given(drawn_groups((2, 3, 5, 7)), st.data())
def test_a_point_on_a_cover_sphere_is_answered_there(G, data):
    """x = w(x0) with x0 on the boundary circle of the open domain disk
    D_j lies on the sphere of E(u): u = w * j, or w itself when j is the
    inverse of w's last letter.  The descent agrees with the best-first
    search at depths |w| + 1 to |w| + 3, and when it starts at a chordal
    ball, or at the identity, and E(u) is a chordal ball, a fresh group
    images at most 2r nodes: the start and its 2r - 1 children."""
    letters = data.draw(reduced_letters(G, 10))
    h = G.word_homography(letters)
    for j, D, _ in G._domain:
        unit = data.draw(_units(G.p))
        x = h.apply(ProjPoint(D.center + unit * Fraction(G.p) ** -D.radius_exp))
        u = letters if letters and j == -letters[-1] else letters + (j,)
        assert closed_word_disk(G, u, G.word_homography(u)).contains(x)
        assert not G.b_disk(Word(u)).contains(x)
        start = G.reduce_point(x)[0].letters
        sphere_rule = _is_ball(G, u) and (not start or _is_ball(G, start))
        event("chordal start and sphere" if sphere_rule else "not both chordal balls")
        for depth in range(len(letters) + 1, len(letters) + 4):
            got, imaged = _fresh_outcome(G, x, depth)
            assert got == _outcome(search_oracle.delta_to_limit, G, x, depth)
            if sphere_rule:
                assert imaged <= 2 * G.rank
