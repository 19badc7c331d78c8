"""The word-tree walker and the best-first cover search against brute force.

``iter_words_with_matrices`` must list the ``reduced_words`` of each
length in order, with the products ``word_homography`` computes letter by
letter; the height scan must list every positive word in order; and
``delta_to_limit`` must agree with a scan of every disk of
``limit_cover(depth)``, which stays here as the reference.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from schottky import INFINITY, PointNearLimitSet, ProjPoint, Word, sample_group
from schottky.disks import point_to_disk_delta
from schottky.errors import PointInsideDisk
from schottky.heights import height_matrix, upsilon_scan
from schottky.padic import NEG_INF, POS_INF
from schottky.proj import delta
from schottky.words import extensions, reduced_words

GROUPS = {rank: sample_group(5, rank) for rank in (1, 2, 3)}
PRIMES = (3, 5, 7)
SEARCH_GROUPS = {p: sample_group(p, 2) for p in PRIMES}
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
    G = GROUPS[rank]
    scan = upsilon_scan(G, 5)
    want = []
    for n in range(1, 6):
        for letters in itertools.product(range(1, rank + 1), repeat=n):
            w = Word(letters)
            want.append((n, w, height_matrix(G.word_homography(w))))
    assert list(scan.entries) == sorted(want)


def brute_delta(G, x, depth):
    """(lower, upper) from every disk of the cover, or the containing word."""
    if (G.p, depth) not in COVERS:
        COVERS[G.p, depth] = G.limit_cover(depth).entries
    lower, upper = POS_INF, POS_INF
    for word, disk in COVERS[G.p, depth]:
        try:
            lower = min(lower, point_to_disk_delta(x, disk, G.ctx))
        except PointInsideDisk:
            return word
        upper = min(upper, delta(x, disk.center_point(), G.ctx))
    return lower, upper


@st.composite
def search_points(draw):
    """Infinity, random rationals, and images of those under random words,
    which lie inside or near the cover disks of the word's prefixes."""
    p = draw(st.sampled_from(PRIMES))
    G = SEARCH_GROUPS[p]
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
        assert got.lower_exponent != NEG_INF
