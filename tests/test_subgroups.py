"""Known answers from finite-index subgroups (``subgroups.py``)."""

import functools
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

import flat_oracle
from conftest import cached_sample_group, rational_fixed_pairs
from schottky.errors import PointNearLimitSet
from schottky.geodesy import StabilizerResult, pair_stabilizer
from schottky.groups import sample_group
from schottky.padic import valuation
from schottky.proj import ProjPoint
from subgroups import Subgroup, orbit_length

# perms[i - 1][c] is coset c times g_i; coset 0 is H
ACTIONS = {
    "index 2, g1 swaps": ((1, 0), (0, 1)),
    "index 2, g1 fixes": ((0, 1), (1, 0)),
    "index 3, g1 a 3-cycle": ((1, 2, 0), (0, 2, 1)),
}


@functools.lru_cache(maxsize=None)
def subgroup(p, action):
    return Subgroup(sample_group(p, 2), ACTIONS[action])


@pytest.mark.parametrize("action", ACTIONS)
@pytest.mark.parametrize("p", (3, 5, 7))
def test_subgroup_is_a_verified_schottky_group(p, action):
    """H passes the good-domain axioms with rank n(r - 1) + 1, and each
    of its generators t g_i s^-1 rewrites to its own letter."""
    S = subgroup(p, action)
    H = S.group
    assert H.verify().all_passed
    assert H.rank == len(ACTIONS[action][0]) + 1
    for (c, i), k in S.edges.items():
        s = S.reps[ACTIONS[action][i - 1][c]]
        letters = S.reps[c] + (i,) + tuple(-l for l in reversed(s))
        assert S.rewrite(letters).letters == (k,)


@pytest.mark.parametrize(
    "action, multiplier",
    (
        ("index 2, g1 swaps", 25**2),
        ("index 3, g1 a 3-cycle", 25**3),
        ("index 2, g1 fixes", 25),
    ),
)
def test_subgroup_stabilizer_of_the_g1_pair(action, multiplier):
    """Stab_H(0) = <g1^k>, k the length of H's orbit under g1: g1 has
    multiplier 25 at p = 5, so H's is 25^k."""
    S = subgroup(5, action)
    k = orbit_length(S.perms, (1,))
    got = pair_stabilizer(S.group, (ProjPoint(0), ProjPoint(1)), 3)
    assert got.multiplier == multiplier
    g1k = sample_group(5, 2).word_homography((1,) * k)
    assert S.group.word_homography(got.word) in (g1k, g1k.inverse())


@pytest.mark.parametrize("action", ACTIONS)
@pytest.mark.parametrize("p", (3, 5, 7))
def test_subgroup_stabilizers_are_known(p, action):
    """For the fixed pair of u w u^-1, w a word of G up to length 3 with
    rational fixed points and |u| <= 2, with gamma G's stabilizer: H's is
    gamma^k rewritten in H's letters, k the length of H's orbit under
    gamma, with multiplier lambda^k, and none if that word is longer than
    the depth.  The walk reference agrees at depth 3."""
    G = sample_group(p, 2)
    S = subgroup(p, action)
    depth, hits = 5, 0
    for x0, y0 in rational_fixed_pairs(G):
        for n in range(3):
            for u in G.enumerate_words(n):
                h = G.word_homography(u)
                x, y = h.apply(x0), h.apply(y0)
                gamma = pair_stabilizer(G, (x, y), 7)
                k = orbit_length(S.perms, gamma.word.letters)
                w = S.rewrite(gamma.word.letters * k)
                want = StabilizerResult(None, None)
                if len(w) <= depth:
                    want = StabilizerResult(min(w, w.inverse()), gamma.multiplier**k)
                    hits += 1
                for pair in ((x, y), (y, x)):
                    assert pair_stabilizer(S.group, pair, depth) == want
                    assert pair_stabilizer(S.group, pair, 3) == flat_oracle.walk_pair_stabilizer(
                        S.group, pair, 3
                    )
    assert 0 < hits < 17 * len(rational_fixed_pairs(G))


@settings(max_examples=200)
@given(st.sampled_from((3, 5, 7)), st.sampled_from(list(ACTIONS)), st.data())
def test_subgroup_multipliers_match_the_conjugator(p, action, data):
    """Every rational fixed pair of a word of H up to length 3 has a
    stabilizer within length 3, whose eigenvalue ratio is the integer
    conjugator's lambda and is no p-adic unit."""
    H = subgroup(p, action).group
    x, y = data.draw(st.sampled_from(rational_fixed_pairs(H)))
    got = pair_stabilizer(H, (x, y), 3)
    assert got.multiplier == flat_oracle.multiplier(H.word_homography(got.word), x, y)
    assert valuation(got.multiplier, p) != 0


def _delta(G, x, depth):
    try:
        bound = G.delta_to_limit(x, depth)
    except PointNearLimitSet:
        return None
    return bound.lower_exponent, bound.upper_exponent


@settings(max_examples=500)
@given(
    p=st.sampled_from((3, 5, 7)),
    center=st.integers(-1, 4),
    unit=st.fractions(min_value=-(10**4), max_value=10**4, max_denominator=10**4),
    k=st.integers(-3, 45),
)
def test_subgroup_distance_to_the_limit_set_is_the_groups(p, center, unit, k):
    """A finite-index subgroup H has the limit set of G, so
    delta(x, Lambda(H)) = delta(x, Lambda(G)) at every x where neither
    depth-40 cover holds x.  The points c + u p^k come within p^-k of the
    integer centers of G's disks, near limit points for large k."""
    x = ProjPoint(center + unit * Fraction(p) ** k)
    want = _delta(cached_sample_group(p, 2), x, 40)
    for action in ACTIONS:
        got = _delta(subgroup(p, action).group, x, 40)
        event("compared" if None not in (want, got) else "near the limit set")
        if None not in (want, got):
            assert got == want, action
