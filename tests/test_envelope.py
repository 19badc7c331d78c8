"""Envelope samples from one descent per sample against one search each.

``SchottkyGroup.envelope_samples`` reads each sample from a walk down the
chain of cover disks that contain the sample point, started at the word
when its closed cover disk is a chordal ball and at the identity
otherwise.  ``envelope_oracle.envelope_samples`` runs the best-first
search of ``search_oracle`` for every sample.  The lists must be equal on
the fixture groups, on sample groups and on conjugates of sample groups.
The conjugates by x -> x / p^3 have word disks of radius >= 1, which are
not chordal balls, so their samples have to descend from the identity.
``memo_oracle.envelope_samples`` is the descent over a global cover memo
that the path store replaced; the lists must be equal on drawn groups.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import envelope_oracle as oracle
import memo_oracle
from conftest import (
    CONJUGATOR_NAMES,
    cached_sample_group,
    conjugate,
    count_cover_nodes,
    drawn_groups,
)
from cover_oracle import closed_word_disk
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


@settings(max_examples=80)
@given(drawn_groups((2, 3, 5, 7, 11)), st.integers(1, 4))
def test_samples_match_the_memo_descent(G, depth):
    """The path store images each node by its parent's homography; the
    memo built it from the word's own, and kept every node for the call.
    The samples are equal, and so is every node the store images: a
    sample reads distances only, which a wrong but nested disk can keep."""
    assume(G.rank < 3 or depth < 4)
    imaged = []
    cover_node = G._cover_node  # G is a fresh group, so the wrapper stays on it

    def recorded(h, letter):
        imaged.append((h, letter, cover_node(h, letter)))
        return imaged[-1][2]

    G._cover_node = recorded
    assert G.envelope_samples(depth) == memo_oracle.envelope_samples(G, depth)
    assert imaged
    for h, letter, (closed, open_disk) in imaged:
        _, *want = memo_oracle.cover_node(G, (letter,), h * G.generator(letter))
        assert [closed, open_disk] == want


def test_criterion_8_sequence_images_each_node_once():
    """Criterion 8 fits at depth 6, lists the depth-6 samples and refits at
    depth 7 on one group.  The descents stop at the sphere that holds each
    boundary sample, so a walk to depth d images the children of every
    word up to length d, each once: the cover nodes of lengths 2 to d + 1,
    since the letter disks are the group's own.  With no memo, each walk
    images its nodes anew, 4,368 + 4,368 + 13,116 of them, and the
    distinct nodes are the 13,116 of lengths 2 to 8."""
    G = sample_group(5, 2)
    computed = count_cover_nodes(G)
    walks = []
    for run in (G.fit_proper_constants, G.envelope_samples, G.fit_proper_constants):
        start = len(computed)
        run(6 if len(walks) < 2 else 7)
        walks.append(computed[start:])
    assert [len(w) for w in walks] == [len(set(w)) for w in walks] == [4_368, 4_368, 13_116]
    assert len(set(computed)) == 13_116 == 4 * sum(3**n for n in range(1, 8))
    assert set(walks[0]) == set(walks[1]) < set(walks[2])


def test_conjugates_include_disks_outside_one_residue_disk():
    # descending from these words would be wrong
    H = conjugate(cached_sample_group(5, 2), "x/p^3")
    assert H is not None
    outside = [
        letters
        for _, letters, h in H._walk(2)
        if letters and not closed_word_disk(H, letters, h).in_residue_disk
    ]
    assert outside


def descent_roots(G, depth):
    """The starting letters of every descent that envelope_samples(depth)
    makes, with None recorded before the descent of a delta_to_limit call."""
    roots = []
    descend, search = G._descend, G.delta_to_limit

    def spied(x, cover_depth, letters, h, store):
        roots.append(letters)
        return descend(x, cover_depth, letters, h, store)

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
    words = [letters for _, letters, _ in G._walk(3) if letters for _ in range(bases)]
    assert roots[2 * bases :] == words


def test_conjugate_words_outside_a_ball_descend_from_the_identity():
    H = conjugate(cached_sample_group(5, 2), "x/p^3")
    roots = descent_roots(H, 3)
    bases = len(H._envelope_base_points())
    assert roots.count(None) == bases
    assert roots.count(()) > bases


def store_sizes(G, depth):
    """The imaged cover nodes that envelope_samples(depth) holds in its path
    store at each descent, entry 0, the group's own letter disks, aside."""
    sizes = []
    descend = G._descend

    def spied(x, cover_depth, letters, h, store):
        sizes.append(sum(map(len, store[1:])))
        return descend(x, cover_depth, letters, h, store)

    G._descend = spied
    try:
        G.envelope_samples(depth)
    finally:
        del G._descend
    return sizes


@pytest.mark.parametrize(
    "G, depth",
    [
        (sample_group(5, 2), 7),
        (sample_group(3, 3, 4), 5),
        (conjugate(cached_sample_group(5, 2), "x/p^3"), 5),
        (conjugate(cached_sample_group(7, 3), "x/(px+1)"), 4),
    ],
)
def test_the_path_store_holds_one_level_per_length(G, depth):
    """At a word of length n the store holds the children of w's prefixes
    at lengths 1 to n, 2r - 1 each: at most (2r - 1) * depth, reached at
    the first word of the depth, whose prefixes are all first children."""
    assert max(store_sizes(G, depth)) == (2 * G.rank - 1) * depth


@pytest.mark.parametrize("depth", (3, 500))
def test_the_rank_one_path_store_holds_one_node(depth):
    """A nonempty rank-1 word has one child, its last, so entering that
    child empties the word's level: the store holds the current word's one
    child alone, where keeping the levels would hold one node per length."""
    for G in (sample_group(5, 1), conjugate(cached_sample_group(5, 1), "x/p^3")):
        sizes = store_sizes(G, depth)
        assert max(sizes) == 1 and len(sizes) == len(G._envelope_base_points()) * (2 * depth + 1)
