"""Envelope samples from each word's subtree against one search per sample.

``SchottkyGroup.envelope_samples`` reads a nonempty word's samples from
the closed cover disks of its children and grandchildren, when its own
closed cover disk lies in one residue disk of P^1.
``envelope_oracle.envelope_samples`` runs ``delta_to_limit`` for every
sample.  The lists must be equal on the fixture groups, on sample groups
and on conjugates of sample groups.  The conjugates by x -> x / p^3 have
word disks of radius >= 1, where the shortcut does not hold and the
library has to search.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import envelope_oracle as oracle
from schottky.disks import Disk, image, nearest_center_delta
from schottky.errors import InvalidArgument
from schottky.groups import SchottkyGroup, sample_group
from schottky.padic import PrimeContext
from schottky.proj import INFINITY, Homography, ProjPoint, delta


@functools.lru_cache(maxsize=None)
def _sample(p, rank, exponent):
    try:
        return sample_group(p, rank, exponent)
    except InvalidArgument:
        return None  # p = 2 has no room for three disk pairs


def _conjugators(p):
    return {
        "x/p^3": Homography(1, 0, 0, p**3),
        "p^3x": Homography(p**3, 0, 0, 1),
        "x+1/p^2": Homography(p * p, 1, 0, p * p),
        "x/(px+1)": Homography(1, 0, p, 1),
    }


def _conjugate(G, s):
    """The group s G s^-1 with the disks moved by s; None if the moved
    disks fail the good-domain axioms."""
    t = s.inverse()
    try:
        H = SchottkyGroup(
            G.ctx,
            [s * g * t for g in G.generators],
            [image(s, B) for B in G.B],
            [image(s, C) for C in G.C],
        )
    except ValueError:
        return None  # a moved disk is unbounded
    return H if H.verify().all_passed else None


def test_samples_match_the_search_on_the_fixture_groups(sample_groups):
    for G in sample_groups:
        for depth in (1, 2, 3, 4):
            assert G.envelope_samples(depth) == oracle.envelope_samples(G, depth)


@settings(max_examples=30)
@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(1, 3),
    st.sampled_from([2, 4]),
    st.integers(1, 4),
)
def test_samples_match_the_search_on_sample_groups(p, rank, exponent, depth):
    assume(_sample(p, rank, exponent) is not None)
    assume(rank < 3 or depth < 4)  # keeps the oracle's searches few
    G = sample_group(p, rank, exponent)
    assert G.envelope_samples(depth) == oracle.envelope_samples(G, depth)


@settings(max_examples=40)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 3),
    st.sampled_from([2, 4]),
    st.sampled_from(["x/p^3", "p^3x", "x+1/p^2", "x/(px+1)"]),
    st.integers(1, 3),
)
def test_samples_match_the_search_on_conjugated_groups(p, rank, exponent, name, depth):
    G = _sample(p, rank, exponent)
    assume(G is not None)
    H = _conjugate(G, _conjugators(p)[name])
    assume(H is not None)
    assert H.envelope_samples(depth) == oracle.envelope_samples(H, depth)


def test_conjugates_include_disks_outside_one_residue_disk():
    # the shortcut would be wrong on these words, so the fallback is exercised
    H = _conjugate(sample_group(5, 2), _conjugators(5)["x/p^3"])
    assert H is not None
    outside = [
        letters
        for _, letters, h in H._walk(2)
        if not H._cover_node(letters, h)[1].in_residue_disk
    ]
    assert outside


@pytest.mark.parametrize("spec", [(5, 2, 2), (3, 2, 4), (7, 3, 2), (2, 1, 2)])
def test_sample_groups_search_only_for_the_identity(spec):
    G = sample_group(*spec)
    searches = []
    search = G.delta_to_limit

    def counted(x, depth):
        searches.append(depth)
        return search(x, depth)

    G.delta_to_limit = counted
    G.envelope_samples(3)
    assert len(searches) == len(G._envelope_base_points())


CTX = PrimeContext(5)
disks = st.builds(
    lambda num, den, e, is_open: Disk(True, is_open, Fraction(num, den), e, CTX.p),
    st.integers(-200, 200),
    st.sampled_from([1, 3, 5, 25, 7]),
    st.integers(-3, 3),
    st.booleans(),
)
points = st.one_of(
    st.just(INFINITY),
    st.tuples(st.integers(-300, 300), st.integers(1, 300)).map(lambda t: ProjPoint(*t)),
)


@given(points, st.lists(disks, min_size=1, max_size=4))
def test_nearest_center_delta_matches_contains_and_delta(x, ds):
    got = nearest_center_delta(x, ds, CTX)
    if any(D.contains(x) for D in ds):
        assert got is None
    else:
        assert got == min(delta(x, D.center_point(), CTX) for D in ds)
