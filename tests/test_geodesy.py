import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings, strategies as st

import flat_oracle
from conftest import conjugate, drawn_groups, permuted, rational_fixed_pairs
from schottky.errors import CyclicLinks, InvalidArgument
from schottky.geodesy import (
    Fixed,
    FlatSpec,
    Free,
    Linked,
    StabilizerResult,
    Verdict,
    apply_flat,
    double_coset_scan,
    geodesic_report,
    normalize_flat,
    pair_stabilizer,
)
from schottky.groups import MAX_WALK_WORDS, SchottkyGroup, sample_group
from schottky.padic import valuation
from schottky.proj import INFINITY, Homography, ProjPoint
from schottky.words import Word, alphabet


def test_normalize_simple_link(g5):
    g = g5.generators[0]
    spec = FlatSpec([Free(), Linked(0, g)], [g5, g5])
    normal = normalize_flat(spec)
    assert normal.free_indices == (0,)
    assert normal.dimension == 1
    assert normal.coords[1] == Linked(0, g)


def test_normalize_chain_composes(g5):
    g, h = g5.generators
    spec = FlatSpec([Free(), Linked(0, g), Linked(1, h)], [g5, g5, g5])
    normal = normalize_flat(spec)
    assert normal.coords[2] == Linked(0, h * g)
    assert normal.dimension == 1


def test_normalize_all_fixed(g5):
    spec = FlatSpec([Fixed(INFINITY), Fixed(ProjPoint(5))], [g5, g5])
    normal = normalize_flat(spec)
    assert normal.free_indices == ()
    assert normal.dimension == 0


def test_normalize_link_to_fixed_folds(g5):
    g = g5.generators[0]
    spec = FlatSpec([Fixed(INFINITY), Linked(0, g)], [g5, g5])
    normal = normalize_flat(spec)
    assert normal.coords[1] == Fixed(g.apply(INFINITY))


def test_normalize_detects_cycles(g5):
    g = g5.generators[0]
    spec = FlatSpec([Linked(1, g), Linked(0, g)], [g5, g5])
    with pytest.raises(CyclicLinks):
        normalize_flat(spec)


def test_normalize_preserves_solutions(g5):
    g, h = g5.generators
    spec = FlatSpec([Free(), Linked(0, g), Linked(1, h), Free()], [g5, g5, g5, g5])
    normal = normalize_flat(spec)
    assert normalize_flat(FlatSpec(normal.coords, normal.groups)).coords == normal.coords
    rng = random.Random(21)
    for _ in range(100):
        values = {
            0: ProjPoint(Fraction(rng.randint(-50, 50), rng.randint(1, 20))),
            3: ProjPoint(Fraction(rng.randint(-50, 50), rng.randint(1, 20))),
        }
        assert apply_flat(spec.coords, values) == apply_flat(normal.coords, values)


def test_apply_flat_follows_a_chain_to_a_fixed_root(g5):
    g, h = g5.generators
    x = ProjPoint(Fraction(3, 7))
    coords = (Linked(2, h), Fixed(x), Linked(1, g))
    assert apply_flat(coords, {}) == (h.apply(g.apply(x)), x, g.apply(x))


def test_apply_flat_detects_cycles(g5):
    g = g5.generators[0]
    coords = (Free(), Linked(2, g), Linked(3, g), Linked(1, g))
    with pytest.raises(CyclicLinks):
        apply_flat(coords, {0: ProjPoint(1)})


@pytest.mark.parametrize("source, at", ((-2, 0), (5, 1), (-2, 1), (5, 0)))
def test_apply_flat_range_checks_link_sources(g5, source, at):
    """A source below 0 would be followed as an index from the end, and one
    past the end would raise IndexError; apply_flat refuses both as
    FlatSpec does."""
    coords = [Free(), Free()]
    coords[at] = Linked(source, g5.generators[0])
    with pytest.raises(InvalidArgument, match=rf"^link source {source} is not in 0\.\.1$"):
        apply_flat(tuple(coords), {0: ProjPoint(1), 1: ProjPoint(2)})


def test_flat_spec_needs_one_group_per_coordinate(g5):
    for n_coords in range(4):
        for n_groups in range(4):
            coords, groups = [Free()] * n_coords, [g5] * n_groups
            if n_coords == n_groups:
                assert FlatSpec(coords, groups).n == n_coords
            else:
                with pytest.raises(ValueError, match="one group per coordinate"):
                    FlatSpec(coords, groups)


@pytest.mark.parametrize("source", (-3, -1, 5, 1.0))
def test_flat_spec_range_checks_link_sources(g5, source):
    g = g5.generators[0]
    with pytest.raises(InvalidArgument, match="not in 0..2"):
        FlatSpec([Free(), Linked(source, g), Free()], [g5] * 3)


_finite = st.fractions(min_value=-20, max_value=20, max_denominator=12).map(ProjPoint)
_points = st.one_of(st.just(INFINITY), _finite)


@st.composite
def _homographies(draw):
    entries = st.tuples(*[st.integers(-6, 6)] * 4)
    a, b, c, d = draw(entries.filter(lambda m: m[0] * m[3] != m[1] * m[2]))
    return Homography(a, b, c, d)


@st.composite
def acyclic_flats(draw):
    """(coords, free values) of a random acyclic link graph: each linked
    coordinate points at one earlier in a random order, and the roots
    are Free or Fixed."""
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    coords = [None] * n
    for k, i in enumerate(order):
        kind = draw(st.sampled_from(("free", "fixed", "linked") if k else ("free", "fixed")))
        if kind == "linked":
            coords[i] = Linked(order[draw(st.integers(0, k - 1))], draw(_homographies()))
        else:
            coords[i] = Free() if kind == "free" else Fixed(draw(_points))
    values = {i: draw(_points) for i, c in enumerate(coords) if isinstance(c, Free)}
    return tuple(coords), values


@given(acyclic_flats())
def test_apply_flat_matches_propagation(flat):
    coords, values = flat
    assert apply_flat(coords, values) == flat_oracle.apply_flat(coords, values)


@st.composite
def stabilizer_cases(draw):
    """(group, pair): fixed points of a short word, a random rational
    pair or a pair with infinity on one side, in either order."""
    G = draw(drawn_groups((3, 5, 7)))
    kind = draw(st.sampled_from(("fixed points", "random", "infinity")))
    if kind == "fixed points":
        x, y = draw(st.sampled_from(rational_fixed_pairs(G)))
    else:
        x = INFINITY if kind == "infinity" else draw(_points)
        y = draw((_finite if kind == "infinity" else _points).filter(lambda z: z != x))
    event(kind)
    return G, (x, y) if draw(st.booleans()) else (y, x)


@given(stabilizer_cases(), st.integers(1, 4))
def test_pair_stabilizer_matches_the_scan(case, depth):
    G, pair = case
    got = pair_stabilizer(G, pair, depth)
    event("hit" if got.word else "no hit")
    assert got == flat_oracle.pair_stabilizer(G, pair, depth)


@pytest.mark.parametrize("name", (None, "x/(px+1)", "x+1/p^2"))
def test_pair_stabilizer_sweep_of_fixed_pairs(name):
    """Every rational fixed pair of a word up to length 3 has a stabilizer
    within length 3: the scan's word and multiplier, in both orders."""
    G = permuted(sample_group(5, 2), (1, 0))
    if name:
        G = conjugate(G, name)
    for x, y in rational_fixed_pairs(G):
        got = pair_stabilizer(G, (x, y), 3)
        assert got.word is not None
        assert got == flat_oracle.pair_stabilizer(G, (x, y), 3)
        assert got == pair_stabilizer(G, (y, x), 3)


def test_pair_stabilizer_finds_generator(g5):
    res = pair_stabilizer(g5, (ProjPoint(0), ProjPoint(1)), 3)
    assert res.word == Word((1,))
    assert res.multiplier == 25
    assert valuation(res.multiplier, 5) != 0


def test_pair_stabilizer_generic_pair_empty(g5):
    res = pair_stabilizer(g5, (INFINITY, ProjPoint(7)), 4)
    assert res.word is None and res.multiplier is None


@st.composite
def conjugate_fixed_pairs(draw):
    """(group, pair): the fixed pair u(x), u(y) of u w u^-1, in either
    order, with (x, y) the rational fixed pair of a word w up to length 3
    and u a reduced word up to length 3, so that the pull-back of either
    point repeats after the prefix u."""
    G = draw(drawn_groups((3, 5, 7)))
    pairs = rational_fixed_pairs(G)
    assume(pairs)
    x, y = draw(st.sampled_from(pairs))
    u = []
    for _ in range(draw(st.integers(0, 3))):
        u.append(draw(st.sampled_from([l for l in alphabet(G.rank) if u[-1:] != [-l]])))
    h = G.word_homography(u)
    event(f"|u| = {len(u)}")
    pair = h.apply(x), h.apply(y)
    return G, pair if draw(st.booleans()) else pair[::-1]


@st.composite
def walk_reference_cases(draw):
    """(group, pair, depth): a ``stabilizer_cases`` pair or a conjugate
    fixed pair, at depths up to 7 at ranks 1 and 2 and up to 5 at rank 3."""
    G, pair = draw(st.one_of(stabilizer_cases(), conjugate_fixed_pairs()))
    return G, pair, draw(st.integers(1, 7 if G.rank < 3 else 5))


def _no_walk(*args):
    raise AssertionError("walked the word tree")


@contextmanager
def counted_pull_backs(G, depth):
    """Patch G so that walking the word tree, reducing a point or more
    than depth pull-back calls fail; yields the list of steps each
    pull-back call made."""
    pull_back = G._pull_back
    steps = []

    def counted(z, max_steps):
        if len(steps) == depth:
            raise AssertionError(f"more than {depth} pull-back calls")
        letters, z, letter = pull_back(z, max_steps)
        steps.append(len(letters))
        return letters, z, letter

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_walk", "iter_words_with_matrices", "reduce_point"):
            mp.setattr(G, name, _no_walk)
        mp.setattr(G, "_pull_back", counted)
        yield steps


@settings(max_examples=300)
@given(walk_reference_cases())
def test_pair_stabilizer_matches_the_walk(case):
    """The pull-back answers as the walk to the first word fixing x did,
    with no word-tree walk and no reduction: at most depth pull-back
    calls, of one step each, and none after a call that found x's
    pull-back in the fundamental domain."""
    G, pair, depth = case
    want = flat_oracle.walk_pair_stabilizer(G, pair, depth)
    event("hit" if want.word else "no hit")
    with counted_pull_backs(G, depth) as steps:
        assert pair_stabilizer(G, pair, depth) == want
    assert steps and set(steps) <= {0, 1} and 0 not in steps[:-1]


@pytest.mark.parametrize("pair", ((INFINITY, ProjPoint(7)), (ProjPoint(0), ProjPoint(7))))
def test_pair_stabilizer_skips_the_walk_off_the_limit_set(pair):
    """7 reduces into the fundamental domain, so it is off the limit set
    and no word fixes it, whichever side of the pair it is on; infinity
    lies in the fundamental domain, and 0 is a fixed point of g1."""
    G = sample_group(5, 2)
    for x, y in (pair, pair[::-1]):
        with counted_pull_backs(G, 11) as steps:
            assert pair_stabilizer(G, (x, y), 11) == StabilizerResult(None, None)
        assert len(steps) <= 3


@pytest.mark.parametrize(
    "pair, want",
    (
        ((ProjPoint(0), ProjPoint(3)), StabilizerResult(None, None)),
        ((ProjPoint(3), ProjPoint(0)), StabilizerResult(None, None)),
        ((ProjPoint(0), ProjPoint(1)), StabilizerResult(Word((1,)), Fraction(25))),
    ),
)
def test_pair_stabilizer_stops_at_the_first_word_fixing_x(pair, want):
    """g1 fixes 0 and 1, g2 fixes 2 and 3: the pull-back of x repeats at
    its first step, and the answer is whether that generator fixes y."""
    G = sample_group(5, 2)
    with counted_pull_backs(G, 11) as steps:
        assert pair_stabilizer(G, pair, 11) == want
    assert steps == [1]


# g2^6(0), fixed by no word up to length 11; and the fixed pair of
# g2^5 g1 g2^-5, a hit of length 11, the longest below the walk cap
_G2_6_OF_0 = ProjPoint(1464843744, 732421873)
_CONJUGATE_PAIR = ProjPoint(58593744, 29296873), ProjPoint(39062497, 19531249)


@pytest.mark.parametrize(
    "pair, depth, want",
    (
        ((_G2_6_OF_0, ProjPoint(3)), 11, StabilizerResult(None, None)),
        (_CONJUGATE_PAIR, 11, StabilizerResult(Word((2,) * 5 + (1,) + (-2,) * 5), Fraction(25))),
        (_CONJUGATE_PAIR[::-1], 11, StabilizerResult(Word((2,) * 5 + (1,) + (-2,) * 5), Fraction(25))),
        (_CONJUGATE_PAIR, 10, StabilizerResult(None, None)),
    ),
)
def test_pair_stabilizer_answers_at_the_walk_cap(pair, depth, want):
    """The walk's answers at depths 10 and 11, where it took up to
    354,292 words."""
    G = sample_group(5, 2)
    assert G.word_homography(Word((2,) * 6)).apply(ProjPoint(0)) == _G2_6_OF_0
    with counted_pull_backs(G, depth):
        assert pair_stabilizer(G, pair, depth) == want


def test_pair_stabilizer_finds_only_powers(g5):
    # every stabilizing word of the pair {0, 1} is a power of g1
    found = []
    for n in (1, 2, 3, 4):
        for w in g5.enumerate_words(n):
            h = g5.word_homography(w)
            if h.apply(ProjPoint(0)) == ProjPoint(0) and h.apply(ProjPoint(1)) == ProjPoint(1):
                found.append(w)
    assert found
    for w in found:
        assert set(w.letters) in ({1}, {-1})


def _stabilizer_depth(G):
    """9 below rank 3, where u w u^-1 of ``conjugate_fixed_pairs`` fits,
    and 7 at rank 3, the deepest walk under the cap."""
    return 9 if G.rank < 3 else 7


@settings(max_examples=300)
@given(conjugate_fixed_pairs())
def test_multiplier_matches_the_conjugator(case):
    """The eigenvalue ratio of the stabilizer is the lambda of the
    integer conjugator that sends the pair to (0, infinity)."""
    G, (x, y) = case
    got = pair_stabilizer(G, (x, y), _stabilizer_depth(G))
    event("hit" if got.word else "no hit")
    if got.word:
        assert got.multiplier == flat_oracle.multiplier(G.word_homography(got.word), x, y)


@settings(max_examples=300)
@given(conjugate_fixed_pairs())
def test_stabilizer_multipliers_are_not_p_adic_units(case):
    """A group is verified when it is built, so every stabilizer found is
    hyperbolic and |lambda|_p != 1."""
    G, pair = case
    got = pair_stabilizer(G, pair, _stabilizer_depth(G))
    event(f"rank {G.rank}, {'hit' if got.word else 'no hit'}")
    if got.word:
        assert valuation(got.multiplier, G.p) != 0


class _OneLetterGroup:
    """What ``pair_stabilizer`` reads of a group, for a group of rank 1
    with g1 = h whose pull-back of x repeats at its first step: the
    stabilizer found is g1 or g1^-1, and its multiplier that of h."""

    rank = 1

    def __init__(self, h):
        self.h = h

    def _pull_back(self, z, max_steps):
        return [1], z, 1

    def word_homography(self, word):
        return self.h if word == Word((1,)) else self.h.inverse()


_eigenvalues = st.integers(-(10**4), 10**4).filter(bool)


@settings(max_examples=500)
@given(
    st.lists(_points, min_size=2, max_size=2, unique=True).map(tuple),
    st.lists(_eigenvalues, min_size=2, max_size=2, unique=True),
)
def test_multiplier_of_an_integer_matrix_matches_the_conjugator(pair, eigenvalues):
    """h = s diag(l1, l2) s^-1, with s sending infinity to x and 0 to y,
    fixes x and y; the eigenvalue ratio is the conjugator's lambda,
    whatever the sign of det h and with infinity on either side."""
    x, y = pair
    s = Homography(x.num, y.num, x.den, y.den)
    h = s * Homography(eigenvalues[0], 0, 0, eigenvalues[1]) * s.inverse()
    event("det < 0" if h.det < 0 else "det > 0")
    event("infinity in the pair" if INFINITY in pair else "finite pair")
    got = pair_stabilizer(_OneLetterGroup(h), pair, 1)
    assert got.multiplier == flat_oracle.multiplier(h, x, y)


def test_double_coset_identity_pair(g5):
    report = double_coset_scan(g5, Homography.identity(), g5, 5)
    assert report.coset_counts == (1,) * 6
    assert report.reverse_counts == (1,) * 6
    assert report.verdict is Verdict.STABILIZED


def test_double_coset_depth_is_bounded_by_the_walk_cap(g5, monkeypatch):
    """A closed search answers at depth MAX_WALK_WORDS, padded to it; one
    depth more is refused before any coset key is computed."""
    report = double_coset_scan(g5, Homography.identity(), g5, MAX_WALK_WORDS)
    assert report.coset_counts == report.reverse_counts == (1,) * (MAX_WALK_WORDS + 1)
    assert report.verdict is Verdict.STABILIZED

    def no_key(*args):
        raise AssertionError("a coset key was computed")

    monkeypatch.setattr(SchottkyGroup, "coset_key", no_key)
    with pytest.raises(InvalidArgument, match=f"^depth must be <= {MAX_WALK_WORDS}$"):
        double_coset_scan(g5, Homography.identity(), g5, MAX_WALK_WORDS + 1)


def test_double_coset_inner_twist(g5):
    report = double_coset_scan(g5, g5.generators[0], g5, 5)
    assert report.coset_counts == (1,) * 6
    assert report.verdict is Verdict.STABILIZED


def test_double_coset_cross_multiplier(g5):
    G2 = sample_group(5, 2, multiplier_exponent=4)
    report = double_coset_scan(g5, Homography.identity(), G2, 5)
    counts = report.coset_counts
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] > counts[1] > counts[0]
    assert report.verdict is Verdict.GROWING_NO_EVIDENCE
    # the reverse scan absorbs: words of the subgroup stay in one coset
    assert report.reverse_counts == (1,) * 6


def test_counts_nondecreasing_with_depth(g5):
    G2 = sample_group(5, 2, multiplier_exponent=4)
    shallow = double_coset_scan(g5, Homography.identity(), G2, 3)
    deep = double_coset_scan(g5, Homography.identity(), G2, 5)
    assert deep.coset_counts[: len(shallow.coset_counts)] == shallow.coset_counts


def test_geodesic_report_diagonal_and_twist(g5):
    spec = FlatSpec([Free(), Linked(0, Homography.identity())], [g5, g5])
    report = geodesic_report(spec, 4)
    assert report.consistent
    spec2 = FlatSpec([Free(), Linked(0, g5.generators[0])], [g5, g5])
    assert geodesic_report(spec2, 4).consistent


def test_geodesic_report_mixed_multipliers(g5):
    G2 = sample_group(5, 2, multiplier_exponent=4)
    spec = FlatSpec([Free(), Linked(0, Homography.identity())], [g5, G2])
    report = geodesic_report(spec, 5)
    assert not report.consistent
    assert report.pairs[0][2].verdict is Verdict.GROWING_NO_EVIDENCE
