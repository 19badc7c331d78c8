"""The word-tree walker and the cover descent against brute force.

``iter_words_with_matrices`` must list the ``reduced_words`` of each
length in order, with the products ``word_homography`` computes letter by
letter; the height scan must list every positive word in order; and
``delta_to_limit`` must agree with a scan of every disk of
``limit_cover(depth)``, which stays here as the reference, on sample
groups and on their conjugates, whose cover disks need not be chordal
balls.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import CONJUGATOR_NAMES, conjugate, permuted
from schottky import INFINITY, PointNearLimitSet, ProjPoint, Word, sample_group
from schottky.disks import point_to_disk_delta
from schottky.heights import height_matrix, upsilon_scan
from schottky.padic import NEG_INF, POS_INF
from schottky.proj import delta
from schottky.words import extensions, reduced_words

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


@pytest.mark.parametrize("rank", (1, 2, 3))
def test_walk_matches_reduced_words_and_products(rank):
    G = GROUPS[rank]
    want = [
        (n, w, G.word_homography(w)) for n in range(1, 6) for w in reduced_words(rank, n)
    ]
    assert list(G.iter_words_with_matrices(5)) == want
    assert list(G.iter_words_with_matrices(0)) == []


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
