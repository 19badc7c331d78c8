"""Envelope samples from one descent per sample against one search each.

``SchottkyGroup.envelope_samples`` reads each sample from a walk down the
chain of cover disks that contain the sample point, started at the word
when its closed cover disk is a chordal ball and at the identity
otherwise.  ``envelope_oracle.envelope_samples`` runs the best-first
search of ``search_oracle`` for every sample.  The lists must be equal on
the fixture groups, on sample groups and on conjugates of sample groups.
The conjugates by x -> x / p^3 have word disks of radius >= 1, which are
not chordal balls, so their samples have to descend from the identity.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import envelope_oracle as oracle
from conftest import CONJUGATOR_NAMES, cached_sample_group, conjugate
from schottky.groups import sample_group


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
    assume(cached_sample_group(p, rank, exponent) is not None)
    assume(rank < 3 or depth < 4)  # keeps the oracle's searches few
    G = sample_group(p, rank, exponent)
    assert G.envelope_samples(depth) == oracle.envelope_samples(G, depth)


@settings(max_examples=40)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 3),
    st.sampled_from([2, 4]),
    st.sampled_from(CONJUGATOR_NAMES),
    st.integers(1, 3),
)
def test_samples_match_the_search_on_conjugated_groups(p, rank, exponent, name, depth):
    G = cached_sample_group(p, rank, exponent)
    assume(G is not None)
    H = conjugate(G, name)
    assume(H is not None)
    assert H.envelope_samples(depth) == oracle.envelope_samples(H, depth)


def test_conjugates_include_disks_outside_one_residue_disk():
    # descending from these words would be wrong
    H = conjugate(cached_sample_group(5, 2), "x/p^3")
    assert H is not None
    outside = [
        letters
        for _, letters, h in H._walk(2)
        if not H._cover_node(letters, h)[1].in_residue_disk
    ]
    assert outside


def descent_roots(G, depth):
    """The starting letters of every descent that envelope_samples(depth)
    makes, with None recorded before the descent of a delta_to_limit call."""
    roots = []
    descend, search = G._descend, G.delta_to_limit

    def spied(x, cover_depth, letters, h):
        roots.append(letters)
        return descend(x, cover_depth, letters, h)

    def delta_to_limit(x, cover_depth):
        roots.append(None)
        return search(x, cover_depth)

    G._descend, G.delta_to_limit = spied, delta_to_limit
    try:
        G.envelope_samples(depth)
    finally:
        del G._descend, G.delta_to_limit
    return roots


@pytest.mark.parametrize("spec", [(5, 2, 2), (3, 2, 4), (7, 3, 2), (2, 1, 2)])
def test_sample_groups_search_only_for_the_identity(spec):
    # every word's disk is a ball, so each word's samples start at the word
    G = sample_group(*spec)
    bases = len(G._envelope_base_points())
    roots = descent_roots(G, 3)
    assert roots[: 2 * bases] == [None, ()] * bases
    words = [letters for _, letters, _ in G._walk(3) for _ in range(bases)]
    assert roots[2 * bases :] == words


def test_conjugate_words_outside_a_ball_descend_from_the_identity():
    H = conjugate(cached_sample_group(5, 2), "x/p^3")
    roots = descent_roots(H, 3)
    bases = len(H._envelope_base_points())
    assert roots.count(None) == bases
    assert roots.count(()) > bases
