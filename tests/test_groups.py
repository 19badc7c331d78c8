import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from schottky.disks import Affinoid, Disk, contains_disk
from schottky.errors import (
    AxiomViolation,
    DepthExceeded,
    InvalidArgument,
    MaxStepsExceeded,
    PointNearLimitSet,
)
from schottky.groups import SchottkyGroup, sample_group
from schottky.padic import NEG_INF
from schottky.proj import INFINITY, ElementClass, Homography, ProjPoint, classify
from schottky.words import Word, reduced_words


def test_g5_is_the_worked_example(g5):
    assert g5.generators[0] == Homography(1, 0, -24, 25)
    assert g5.generators[1] == Homography(-47, 144, -24, 73)  # canonical sign form
    assert g5.B[0] == Disk.open_disk(0, -1, 5)
    assert g5.B[1] == Disk.open_disk(2, -1, 5)
    assert g5.C[0] == Disk.open_disk(1, -1, 5)
    assert g5.C[1] == Disk.open_disk(3, -1, 5)
    assert g5.verify().all_passed


def test_axioms_by_point_sampling(g5):
    # independent oracle for the image axioms: x outside B_i iff g_i(x) in C_i+
    rng = random.Random(42)
    for i, g in enumerate(g5.generators):
        Ci_closed = g5.C[i].closure()
        for _ in range(150):
            x = ProjPoint(Fraction(rng.randint(-500, 500), rng.randint(1, 100)))
            assert (not g5.B[i].contains(x)) == Ci_closed.contains(g.apply(x))
            assert (not g5.B[i].closure().contains(x)) == g5.C[i].contains(g.apply(x))
        assert Ci_closed.contains(g.apply(INFINITY))


def test_duplicate_disk_fails_verification(g5):
    bad = SchottkyGroup(g5.ctx, g5.generators, g5.B, [g5.C[0], Disk.open_disk(2, -1, 5)])
    report = bad.verify()
    assert not report.all_passed
    assert any("disjoint" in c.name for c in report.failures)
    with pytest.raises(AxiomViolation):
        bad.ensure_verified()


def test_rank_one_group_verifies():
    G = sample_group(5, 1)
    assert G.rank == 1
    assert G.verify().all_passed


def test_sample_groups_verify(sample_groups):
    for G in sample_groups:
        assert G.verify().all_passed


def test_sample_group_fractional_centers():
    # p = 3 at multiplier 9 cannot fit four integer centers; offsets by 1/3
    G = sample_group(3, 2, multiplier_exponent=2)
    assert G.verify().all_passed
    assert any(D.center.denominator == 3 for D in G.B + G.C)


def test_b_disk_base_cases(g5):
    assert g5.b_disk(Word((1,))) == g5.C[0]
    assert g5.b_disk(Word((-1,))) == g5.B[0]
    assert g5.b_disk(Word((2,))) == g5.C[1]
    w = Word((1, 2))
    D = g5.b_disk(w)
    assert contains_disk(g5.b_disk(Word((1,))), D)
    assert D.contains(g5.word_homography(w).apply(INFINITY))


def test_prefix_nesting_small(g5):
    words = [w for n in (1, 2, 3) for w in g5.enumerate_words(n)]
    disks = {w: g5.b_disk(w) for w in words}
    for w1 in words:
        for w2 in words:
            expected = w1.is_prefix_of(w2)
            assert contains_disk(disks[w1], disks[w2]) == expected


def test_limit_cover_counts_and_decay(g5):
    for n in (1, 2, 3):
        cover = g5.limit_cover(n)
        assert len(cover.entries) == 2 * 2 * 3 ** (n - 1)
    assert g5.limit_cover(1).max_radius_exponent == -1
    assert g5.limit_cover(2).max_radius_exponent == -3
    # strictly decreasing radii along every prefix chain
    for w in g5.enumerate_words(3):
        for k in range(1, 3):
            parent = Word(w.letters[:k])
            child = Word(w.letters[: k + 1])
            assert g5.b_disk(child).radius_exp < g5.b_disk(parent).radius_exp


def test_limit_cover_depth_one_disks(g5):
    cover = g5.limit_cover(1)
    got = {disk for _, disk in cover.entries}
    want = {D.closure() for D in g5.B + g5.C}
    assert got == want


def test_delta_to_limit_at_infinity(g5):
    bound = g5.delta_to_limit(INFINITY, 1)
    assert bound.lower_exponent == 0 and bound.upper_exponent == 0


def test_delta_to_limit_interval_refines(g5):
    pts = [INFINITY, ProjPoint(Fraction(1, 5)), ProjPoint(Fraction(7, 3)), ProjPoint(-1)]
    for x in pts:
        prev = None
        for n in (1, 2, 3, 4):
            b = g5.delta_to_limit(x, n)
            assert b.lower_exponent <= b.upper_exponent
            if prev is not None:
                assert b.lower_exponent >= prev.lower_exponent
                assert b.upper_exponent <= prev.upper_exponent
            prev = b


def test_delta_to_limit_boundary_point(g5):
    # 5 sits on the sphere of B1: inside the depth-1 closed cover disk,
    # outside every deeper one
    with pytest.raises(PointNearLimitSet):
        g5.delta_to_limit(ProjPoint(5), 1)
    b = g5.delta_to_limit(ProjPoint(5), 2)
    assert b.lower_exponent <= b.upper_exponent <= -1


def test_delta_to_limit_distortion_bounded(g5):
    # images under a fixed element distort the distance by a bounded factor
    h = g5.generators[0]
    c = 2  # v(det h1) = 2 at p = 5
    for x in [ProjPoint(5), ProjPoint(Fraction(1, 7)), ProjPoint(24)]:
        base = g5.delta_to_limit(x, 4)
        moved = g5.delta_to_limit(h.apply(x), 4)
        assert moved.upper_exponent <= base.lower_exponent + c
        assert moved.lower_exponent >= base.upper_exponent - c


def test_delta_to_limit_near_limit_point(g5):
    with pytest.raises(PointNearLimitSet):
        g5.delta_to_limit(ProjPoint(0), 2)  # 0 is a fixed point of g1


def test_reduce_point_examples(g5):
    w, y = g5.reduce_point(INFINITY)
    assert w == Word(()) and y == INFINITY
    target = Word((1, 2))
    x = g5.word_homography(target).apply(INFINITY)
    w, y = g5.reduce_point(x)
    assert w == target and y == INFINITY
    # a boundary-circle point is terminal: |5 - 0| = 1/5 on the sphere of B1
    w, y = g5.reduce_point(ProjPoint(5))
    assert w == Word(()) and y == ProjPoint(5)


def test_reduce_point_round_trip(g5):
    rng = random.Random(8)
    base_points = [INFINITY, ProjPoint(5), ProjPoint(Fraction(1, 7)), ProjPoint(-6)]
    for base in base_points:
        assert g5.in_domain(base)
    for _ in range(150):
        length = rng.randint(1, 5)
        letters = []
        while len(letters) < length:
            l = rng.choice((1, -1, 2, -2))
            if letters and letters[-1] == -l:
                continue
            letters.append(l)
        w = Word(letters)
        x0 = rng.choice(base_points)
        if not g5.in_domain(x0, interior=True):
            continue  # boundary points may reduce to a neighbor word
        got, y = g5.reduce_point(g5.word_homography(w).apply(x0))
        assert got == w
        assert y == x0


def test_covering_identity_by_sampling(g5):
    # points outside every depth-n closed word disk reduce in < n steps;
    # points in an open depth-n disk take at least n steps or exhaust the
    # budget; boundary spheres are shared with shallower tiles
    rng = random.Random(314)
    closed = {n: [disk for _, disk in g5.limit_cover(n).entries] for n in (2, 3, 4)}
    opens = {n: [g5.b_disk(w) for w in g5.enumerate_words(n)] for n in (2, 3, 4)}
    checked = 0
    while checked < 300:
        x = ProjPoint(Fraction(rng.randint(-1000, 1000), rng.randint(1, 200)))
        for n in (2, 3, 4):
            in_open = any(D.contains(x) for D in opens[n])
            in_closed = any(D.contains(x) for D in closed[n])
            try:
                word, _ = g5.reduce_point(x, max_steps=48)
            except MaxStepsExceeded:
                assert in_open
                continue
            if not in_closed:
                assert len(word) < n
            elif in_open:
                assert len(word) >= n
        checked += 1


def test_delta_floor_positive_on_compacta(g5):
    # the fundamental domain stays a positive distance from the limit set
    floor = g5._delta_floor(g5.fundamental_domain(), 2)
    assert floor is not None and floor > NEG_INF
    for x in [INFINITY, ProjPoint(5), ProjPoint(-1)]:
        assert g5.delta_to_limit(x, 3).lower_exponent >= floor


def test_delta_interval_width_shrinks_geometrically(g5):
    x = ProjPoint(Fraction(7, 3))
    widths = []
    for n in (1, 2, 3, 4, 5):
        b = g5.delta_to_limit(x, n)
        widths.append(b.upper_exponent - b.lower_exponent)
    assert all(w2 <= w1 for w1, w2 in zip(widths, widths[1:]))
    assert widths[-1] == 0  # the interval collapses once the branch resolves


def test_reduce_point_max_steps(g5):
    with pytest.raises(MaxStepsExceeded):
        g5.reduce_point(ProjPoint(0), max_steps=8)  # a limit point never escapes


def test_reduce_point_budget_counts_generator_steps(g5):
    # the final domain check is free: w(inf) needs exactly len(w) steps
    for length in range(4):
        for w in g5.enumerate_words(length):
            x = g5.word_homography(w).apply(INFINITY)
            assert g5.reduce_point(x, max_steps=length) == (w, INFINITY)
            if length:
                with pytest.raises(MaxStepsExceeded):
                    g5.reduce_point(x, max_steps=length - 1)
    with pytest.raises(InvalidArgument):
        g5.reduce_point(INFINITY, max_steps=-1)


def test_membership(g5):
    w = Word((2, -1, 2))
    g = g5.word_homography(w)
    res = g5.is_member(g)
    assert res and res.word == w
    assert not g5.is_member(Homography(1, 1, 0, 1))
    ident = g5.is_member(Homography.identity())
    assert ident and ident.word == Word(())


def test_membership_perturbed(g5):
    rng = random.Random(13)
    words = [w for n in (1, 2, 3) for w in g5.enumerate_words(n)]
    for _ in range(100):
        g = g5.word_homography(rng.choice(words))
        a, b, c, d = g.entries
        entries = [a, b, c, d]
        i = rng.randrange(4)
        entries[i] += rng.choice((-2, -1, 1, 2))
        if entries[0] * entries[3] - entries[1] * entries[2] == 0:
            continue
        candidate = Homography(*entries)
        try:
            g5.delta_to_limit(candidate.apply(INFINITY), 24)
        except PointNearLimitSet:
            continue  # the perturbation hit the limit set exactly
        assert not g5.is_member(candidate)


_COSET_GROUPS = {p: sample_group(p, 2) for p in (3, 5, 7)}


@given(p=st.sampled_from(sorted(_COSET_GROUPS)), data=st.data())
def test_coset_key_invariance(p, data):
    G = _COSET_GROUPS[p]
    letters = st.sampled_from(G.letters())
    g = G.word_homography(Word.reduced(data.draw(st.lists(letters, min_size=1, max_size=3))))
    if data.draw(st.booleans()):  # perturb one entry, as criterion 5 does
        entries = list(g.entries)
        entries[data.draw(st.integers(0, 3))] += data.draw(st.sampled_from((-2, -1, 1, 2)))
        assume(entries[0] * entries[3] != entries[1] * entries[2])
        g = Homography(*entries)
    u = G.word_homography(Word.reduced(data.draw(st.lists(letters, max_size=4))))
    try:
        G.delta_to_limit(g.apply(INFINITY), 32)
        key = G.coset_key(g)[1]
        assert G.coset_key(u * g)[1] == key
        assert G.is_member(g).member == key.is_identity
    except (PointNearLimitSet, MaxStepsExceeded):
        assume(False)


@pytest.mark.parametrize("p", sorted(_COSET_GROUPS))
def test_coset_key_boundary_tie_break(p):
    # y sends infinity to a boundary point t, where two tiles meet; the
    # coset of y is the coset of generator(l) * y, so the keys must agree
    G = _COSET_GROUPS[p]
    boundary = [t for t in G._envelope_base_points() if not t.is_infinity]
    assert boundary
    for t in boundary:
        letter = G.boundary_letter(t)
        assert letter is not None
        y = Homography(t.num, 1, t.den, 0)
        assert G.coset_key(y)[1] == G.coset_key(G.generator(letter) * y)[1]


def test_hyperbolicity_of_words(sample_groups):
    for G in sample_groups:
        for n in (1, 2, 3):
            for w in G.enumerate_words(n):
                assert classify(G.word_homography(w), G.ctx) is ElementClass.HYPERBOLIC


def test_localize_fundamental(g5):
    w, basis = g5.localize_fundamental(Word((1,)), Disk.closed_disk(1, -1, 5))
    assert w == Word((1,))
    assert basis == tuple(
        g5.word_homography(w) * g * g5.word_homography(w).inverse() for g in g5.generators
    )
    # a huge disk admits the first length-1 word
    w, _ = g5.localize_fundamental(Word(()), Disk.closed_disk(0, 2, 5))
    assert len(w) == 1
    # shrinking the target forces longer words in the same direction
    small = Disk.closed_disk(1, -4, 5)
    w2, _ = g5.localize_fundamental(Word((1,)), small)
    assert len(w2) > 1 and Word((1,)).is_prefix_of(w2)
    assert contains_disk(small, g5.b_disk(w2).closure())
    with pytest.raises(DepthExceeded):
        g5.localize_fundamental(Word((1,)), Disk.closed_disk(100, -1, 5), max_depth=6)


def test_fit_proper_constants_envelope(g5):
    fit = g5.fit_proper_constants(3)
    assert fit.b > 0
    assert all(type(l) is int and type(t) is int for l, t in g5.envelope_samples(3))
    # envelope property reasserted here exactly on fresh samples
    for length, word, h in g5.iter_words_with_matrices(3):
        t = -Fraction(g5.delta_to_limit(h.apply(INFINITY), length + 1).upper_exponent)
        assert Fraction(length) <= fit.a + fit.b * t
    # constants fitted deeper remain valid on the shallow samples
    deeper = g5.fit_proper_constants(4)
    for length, word, h in g5.iter_words_with_matrices(3):
        t = -Fraction(g5.delta_to_limit(h.apply(INFINITY), length + 1).upper_exponent)
        assert Fraction(length) <= deeper.a + deeper.b * t


def test_intersecting_translates_fundamental_domain(g5):
    F = g5.fundamental_domain()
    scan = g5.intersecting_translates(F, F, 3)
    want = {Word(()), Word((1,)), Word((-1,)), Word((2,)), Word((-2,))}
    assert set(scan.words) == want
    assert scan.certified
    assert scan.length_bound >= 1


def test_intersecting_translates_interior_disk(g5):
    # a closed disk inside the open fundamental domain meets only itself
    D = Affinoid(Disk.closed_disk(5, -2, 5), ())
    assert g5.in_domain(ProjPoint(5), interior=False)
    scan = g5.intersecting_translates(D, D, 3)
    assert set(scan.words) == {Word(())}


def test_intersecting_translates_disjoint_branches(g5):
    # small disks around orbit points deep in different branches: the word
    # connecting them has length 4, so nothing shows up at depth 2
    x1 = g5.word_homography(Word((1, 2))).apply(INFINITY)
    x2 = g5.word_homography(Word((2, 1))).apply(INFINITY)
    A = Affinoid(Disk.closed_disk(x1.value, -8, 5), ())
    A2 = Affinoid(Disk.closed_disk(x2.value, -8, 5), ())
    scan = g5.intersecting_translates(A, A2, 2)
    assert scan.words == ()
    connect = Word((2, 1)) * Word((1, 2)).inverse()
    assert connect in g5.intersecting_translates(A, A2, 4).words


def test_unverified_group_rejects_operations(g5):
    bad = SchottkyGroup(g5.ctx, g5.generators, g5.B, [g5.C[0], g5.B[1]])
    with pytest.raises(AxiomViolation):
        bad.reduce_point(INFINITY)


def test_invalid_arguments_raise_invalid_argument(g5):
    from schottky import InvalidArgument, PrimeContext

    with pytest.raises(InvalidArgument):
        g5.b_disk(Word(()))
    with pytest.raises(InvalidArgument):
        PrimeContext(4)
    with pytest.raises(InvalidArgument):
        PrimeContext(5, 0)
    for args in ((5, 0), (5, 2, 3), (5, 2, 0), (3, 4)):
        with pytest.raises(InvalidArgument):
            sample_group(*args)


@pytest.mark.parametrize(
    "call",
    (
        lambda G: Word((1.5, 2)),
        lambda G: Word(("2",)),
        lambda G: Word.reduced((1, 2.0)),
        lambda G: Word((1,)).append(2.5),
        lambda G: list(reduced_words(2, 1.5)),
        lambda G: G.limit_cover(2.5),
        lambda G: G.fit_proper_constants(1.5),
        lambda G: G.delta_to_limit(ProjPoint(7, 3), 2.5),
        lambda G: G.reduce_point(ProjPoint(0), 2.5),
    ),
    ids=(
        "word-float", "word-str", "reduced-float", "append-float", "reduced_words",
        "limit_cover", "fit_proper_constants", "delta_to_limit", "reduce_point",
    ),
)
def test_non_integer_counts_raise_type_error(g5, call):
    """A letter, length, depth or step budget that is not an integer is
    refused at once, not truncated, ignored or looped on."""
    with pytest.raises(TypeError):
        call(g5)
