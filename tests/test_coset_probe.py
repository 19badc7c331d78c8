"""The state search of the double-coset probe against the word-by-word scan.

``geodesy._coset_counts`` expands each (coset key, last letter) state
once; ``coset_oracle.coset_counts`` reduces the coset key of every word.
Both must give the same cumulative counts, or both run out of reduction
budget, on random pairs of sample groups, with g a random nonsingular
matrix or a short word of the second group.
"""

import functools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import coset_oracle as oracle
from schottky import groups
from schottky.errors import InvalidArgument, MaxStepsExceeded
from schottky.geodesy import _coset_counts, double_coset_scan
from schottky.groups import sample_group
from schottky.proj import Homography

group_specs = st.tuples(st.integers(1, 3), st.sampled_from([2, 4]))


@functools.lru_cache(maxsize=None)
def _group(p, rank, exponent):
    return sample_group(p, rank, exponent)


def _counts_or_budget(count, G1, g, G2, depth):
    try:
        return count(G1, g, G2, depth)
    except MaxStepsExceeded:
        return "MaxStepsExceeded"


@settings(max_examples=40)
@given(
    st.sampled_from([3, 5, 7]),
    group_specs,
    group_specs,
    st.lists(st.integers(-6, 6), min_size=4, max_size=4),
    st.one_of(st.none(), st.lists(st.integers(0, 5), max_size=2)),
    st.integers(4, 5),
)
def test_state_search_matches_word_scan(p, spec1, spec2, entries, member, depth):
    """g is a random nonsingular matrix, or a short word of G2, so that
    the sample groups' shared generators also make cosets coincide."""
    G1, G2 = _group(p, *spec1), _group(p, *spec2)
    if member is None:
        a, b, c, d = entries
        assume(a * d - b * c != 0)
        g = Homography(a, b, c, d)
    else:
        steps = list(G2._steps.values())
        g = Homography.identity()
        for i in member:
            g = g * steps[i % len(steps)]
    for source, h, target in ((G1, g, G2), (G2, g.inverse(), G1)):
        got = _counts_or_budget(_coset_counts, source, h, target, depth)
        assert got == _counts_or_budget(oracle.coset_counts, source, h, target, depth)


@settings(max_examples=60)
@given(
    st.sampled_from([3, 5, 7]),
    group_specs,
    st.lists(st.integers(-6, 6), min_size=4, max_size=4),
)
def test_key_of_a_key_times_a_step_is_the_key_of_the_product(p, spec, entries):
    """The step of the state search: G * (key(g) * s) = G * (g * s)."""
    a, b, c, d = entries
    assume(a * d - b * c != 0)
    G, g = _group(p, *spec), Homography(a, b, c, d)
    try:
        key = G.coset_key(g)[1]
    except MaxStepsExceeded:
        assume(False)
    for s in G._steps.values():
        # key * s(inf) and g * s(inf) lie in one orbit: both reduce or neither
        assert _key_or_budget(G, key * s) == _key_or_budget(G, g * s)


def _key_or_budget(G, h):
    try:
        return G.coset_key(h)[1]
    except MaxStepsExceeded:
        return "MaxStepsExceeded"


def test_stabilized_scan_stops_early(g5, monkeypatch):
    """Every word of g5 lies in the coset of the identity, so each direction
    meets all its (key, last letter) states by length 1 and stops at
    length 2, whatever the depth: one root key and 4 + 4 * 3 child keys."""
    calls = []

    def counted(h, *args):
        calls.append(h)
        return type(g5).coset_key(g5, h, *args)

    monkeypatch.setattr(g5, "coset_key", counted)
    report = double_coset_scan(g5, Homography.identity(), g5, 200)
    assert report.coset_counts == (1,) * 201
    assert report.reverse_counts == (1,) * 201
    assert len(calls) == 2 * (1 + 4 + 4 * 3)


def test_coset_search_refuses_more_states_than_the_walk_cap(g5, monkeypatch):
    """The cross search visits 61 (key, last letter) states to depth 4 and
    more to depth 5, three times as many per level; a stabilized search
    stays below the cap at any depth."""
    monkeypatch.setattr(groups, "MAX_WALK_WORDS", 61)
    G2 = _group(5, 2, 4)
    assert len(_coset_counts(g5, Homography.identity(), G2, 4)) == 5
    with pytest.raises(InvalidArgument, match="^a coset search to depth 5 visits more than 61 "):
        _coset_counts(g5, Homography.identity(), G2, 5)
    report = double_coset_scan(g5, Homography.identity(), g5, 50)
    assert report.coset_counts == report.reverse_counts == (1,) * 51


def test_index_two_scan_fills_in_its_last_count():
    """<g^2> has index 2 in <g>, so the forward counts stop at 2 and the
    search fills in 2 to any depth; the reverse scan has one coset."""
    G1, G2 = _group(5, 1, 2), _group(5, 1, 4)
    assert G1.generators[0] * G1.generators[0] == G2.generators[0]
    report = double_coset_scan(G1, Homography.identity(), G2, 200)
    assert report.coset_counts == (1,) + (2,) * 200
    assert report.reverse_counts == (1,) * 201
    assert report.coset_counts[:9] == oracle.coset_counts(G1, Homography.identity(), G2, 8)
