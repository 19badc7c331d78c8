"""The word-tree walker and the cover descent against brute force.

``walk`` must list the nodes of the level-order reference walk in
``walk_oracle`` in preorder, with the same products, and hold no level
it has finished; ``iter_words_with_matrices`` must list the reference
``reduced_words`` with the products ``word_homography`` computes letter
by letter; the height scan must list every positive word in order; and
``delta_to_limit`` must agree with a scan of every disk of
``limit_cover(depth)``, which stays here as the reference, on sample
groups and on their conjugates, whose cover disks need not be chordal
balls.
"""

import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import walk_oracle
from conftest import CONJUGATOR_NAMES, conjugate, drawn_groups, permuted
from schottky import INFINITY, PointNearLimitSet, ProjPoint, Word, sample_group
from schottky.disks import point_to_disk_delta
from schottky.groups import MAX_WALK_WORDS
from schottky.heights import height_matrix, upsilon_scan
from schottky.padic import NEG_INF, POS_INF
from schottky.proj import Homography, delta
from schottky.words import count_words_up_to, extensions, reduced_words, walk

GROUPS = {rank: sample_group(5, rank) for rank in (1, 2, 3)}
PRIMES = (2, 3, 5, 7)
SEARCH_GROUPS = {(p, None): sample_group(p, 2) for p in PRIMES}
for p, name in itertools.product(PRIMES, CONJUGATOR_NAMES):
    H = conjugate(SEARCH_GROUPS[p, None], name)
    if H is not None:
        SEARCH_GROUPS[p, name] = H
SEARCH_KEYS = sorted(SEARCH_GROUPS, key=str)
COVERS = {}


def test_child_rule_skips_only_the_inverse():
    after = extensions((1, -1, 2, -2))
    assert after[0] == (1, -1, 2, -2)
    assert after[1] == (1, 2, -2)
    assert after[-2] == (1, -1, -2)
    assert extensions((1, 2, 3))[2] == (1, 2, 3)


def preorder(node):
    """Sort key of a (length, letters or Word, value) node: a word before
    its extensions, and lexicographic in the alphabet order otherwise."""
    return Word(node[1])


@pytest.mark.parametrize("rank", (1, 2, 3))
def test_walk_matches_reduced_words_and_products(rank):
    """The walk lists the reference's words up to the length in preorder,
    each with its product; taken length by length, it is the reference."""
    G = GROUPS[rank]
    want = [
        (n, w, G.word_homography(w))
        for n in range(1, 6)
        for w in walk_oracle.reduced_words(rank, n)
    ]
    got = list(G.iter_words_with_matrices(5))
    assert got == sorted(want, key=preorder)
    assert sorted(got, key=lambda node: node[0]) == want
    assert list(G.iter_words_with_matrices(0)) == []


@pytest.mark.parametrize("rank", (1, 2, 3))
def test_group_walk_is_the_identity_and_the_capped_count(rank):
    """The walk from the identity has one node more than the count that
    its cap refuses by."""
    G = GROUPS[rank]
    for depth in range(6):
        nodes = list(G._walk(depth))
        assert nodes[0] == (0, (), Homography.identity())
        assert len(nodes) == 1 + count_words_up_to(2 * rank, 2 * rank - 1, depth, MAX_WALK_WORDS)


@st.composite
def walk_cases(draw):
    """(root, step, max_length): the reduced or the positive step of a
    drawn group, one node of length 0, 1 or 2 as the root, the identity
    included, and a length from the root's up to 7."""
    G = draw(drawn_groups((3, 5, 7)))
    if draw(st.booleans()):
        step = G._steps
    else:
        step = {i: g for i, g in enumerate(G.generators, 1)}  # as the height scan
    root_length = draw(st.integers(0, 2))
    nodes = walk_oracle.walk([((), Homography.identity())], step, root_length)
    root = draw(st.sampled_from([(letters, h) for n, letters, h in nodes if n == root_length]))
    event(f"{'reduced' if step is G._steps else 'positive'}, a root of length {root_length}")
    return root, step, draw(st.integers(root_length, 7))


@settings(max_examples=150)
@given(walk_cases())
def test_walk_is_the_reference_in_preorder(case):
    """The same nodes and products as the level-order reference; each
    length in lexicographic order, and each node after its parent."""
    root, step, max_length = case
    want = list(walk_oracle.walk([root], step, max_length))
    got = list(walk(root, step, max_length))
    assert got == sorted(want, key=preorder)
    for n in range(max_length + 1):
        assert [node for node in got if node[0] == n] == [node for node in want if node[0] == n]
    assert got[0][1] == root[0]
    seen = {root[0]}
    for _, letters, _ in got[1:]:
        assert letters[:-1] in seen
        seen.add(letters)


@given(st.integers(0, 3), st.integers(0, 6))
def test_reduced_words_match_the_reference(rank, length):
    assert list(reduced_words(rank, length)) == list(walk_oracle.reduced_words(rank, length))


def test_rank_one_walk_holds_no_ancestor():
    """A rank-1 path has no branches: a walk to length 3,000 that keeps
    nothing holds about one node at a time, not every matrix above it."""
    G = GROUPS[1]
    tracemalloc.start()
    try:
        for _ in G._walk(3000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


@pytest.mark.parametrize("rank", (1, 2, 3))
def test_height_scan_lists_the_sorted_positive_words(rank):
    """Entry i is the height of the i-th word of product(): by length, then
    lexicographically, whether the branches run in one process or two, and
    with the generators taken in reverse order."""
    for G in (GROUPS[rank], permuted(GROUPS[rank], range(rank - 1, -1, -1))):
        want = tuple(
            height_matrix(G.word_homography(Word(letters)))
            for n in range(1, 6)
            for letters in itertools.product(range(1, rank + 1), repeat=n)
        )
        for workers in (1, 2):
            assert upsilon_scan(G, 5, workers=workers).entries == want


def brute_delta(G, x, depth):
    """(lower, upper) from every disk of the cover, or the containing word."""
    if (G, depth) not in COVERS:
        COVERS[G, depth] = G.limit_cover(depth).entries
    lower, upper = POS_INF, POS_INF
    for word, disk in COVERS[G, depth]:
        bound = point_to_disk_delta(x, disk)
        if bound == NEG_INF:
            return word
        lower = min(lower, bound)
        upper = min(upper, delta(x, disk.center_point(), G.ctx))
    return lower, upper


@st.composite
def search_points(draw):
    """Infinity, random rationals, and images of those under random words,
    which lie inside or near the cover disks of the word's prefixes."""
    p, name = draw(st.sampled_from(SEARCH_KEYS))
    G = SEARCH_GROUPS[p, name]
    event(f"conjugate by {name}" if name else "sample group")
    kind = draw(st.sampled_from(("inf", "rational", "orbit")))
    if kind == "inf":
        return G, INFINITY
    num = draw(st.integers(-10**6, 10**6))
    den = draw(st.integers(1, 10**4)) * p ** draw(st.integers(0, 6))
    x = ProjPoint(Fraction(num, den))
    if kind == "orbit":
        letters = []
        for _ in range(draw(st.integers(1, 7))):
            choices = [l for l in G.letters() if not (letters and l == -letters[-1])]
            letters.append(draw(st.sampled_from(choices)))
        x = G.word_homography(Word(letters)).apply(x)
    return G, x


@settings(max_examples=300)
@given(search_points(), st.integers(1, 5))
def test_delta_to_limit_matches_brute_force(case, depth):
    G, x = case
    want = brute_delta(G, x, depth)
    event("inside a cover disk" if isinstance(want, Word) else "outside the cover")
    if isinstance(want, Word):
        with pytest.raises(PointNearLimitSet) as info:
            G.delta_to_limit(x, depth)
        assert str(info.value).endswith(f"cover disk of {want}")
    else:
        got = G.delta_to_limit(x, depth)
        assert (got.lower_exponent, got.upper_exponent) == want
        assert got.lower_exponent == got.upper_exponent != NEG_INF
