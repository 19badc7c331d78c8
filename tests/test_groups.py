import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings, strategies as st

import axiom_oracle
import cover_oracle
import floor_oracle
import reduce_oracle
from conftest import CONJUGATOR_NAMES, cached_sample_group, conjugate, conjugator, drawn_groups
from schottky.disks import Affinoid, Disk, contains_disk, image
from schottky.errors import (
    AxiomViolation,
    DepthExceeded,
    InvalidArgument,
    MaxStepsExceeded,
    PointNearLimitSet,
)
from schottky.geodesy import pair_stabilizer
from schottky.groups import MAX_WALK_WORDS, SchottkyGroup, _refuse_large_rank, sample_group
from schottky.padic import NEG_INF, valuation
from schottky.proj import INFINITY, ElementClass, Homography, ProjPoint, classify
from schottky.words import Word, count_words_up_to, reduced_words


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
    with pytest.raises(AxiomViolation) as info:
        SchottkyGroup(g5.ctx, g5.generators, g5.B, [g5.C[0], Disk.open_disk(2, -1, 5)])
    report = info.value.report
    assert not report.all_passed
    assert any("disjoint" in c.name for c in report.failures)
    first = report.failures[0]
    assert str(info.value) == f"{first.name}: {first.detail}"


@st.composite
def candidate_domains(draw):
    """(ctx, generators, B, C): a sample group of rank 1-3 at p in 2-7 with
    multiplier exponent 2 or 4, possibly moved by a conftest conjugator,
    then possibly with one disk or generator changed, so that many draws
    fail the axioms, some of them several checks at once."""
    rank = draw(st.integers(1, 3))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    G = cached_sample_group(p, rank, draw(st.sampled_from((2, 4))))
    assume(G is not None)
    generators, B, C = list(G.generators), list(G.B), list(G.C)
    name = draw(st.sampled_from((None,) + CONJUGATOR_NAMES))
    if name is not None:
        s = conjugator(p, name)
        t = s.inverse()
        generators = [s * g * t for g in generators]
        B, C = [image(s, D) for D in B], [image(s, D) for D in C]
        assume(all(D.bounded and D.is_open for D in B + C))
    i = draw(st.integers(0, rank - 1))
    disks = draw(st.sampled_from((B, C)))
    D = disks[i]
    change = draw(st.sampled_from(("none", "C=B", "radius", "center", "inverse", "swap")))
    if change == "C=B":
        C[i] = B[i]
    elif change == "radius":
        disks[i] = Disk.open_disk(D.center, D.radius_exp + draw(st.sampled_from((-1, 1))), p)
    elif change == "center":
        shift = Fraction(p) ** draw(st.integers(-3, 1))
        disks[i] = Disk.open_disk(D.center + shift, D.radius_exp, p)
    elif change == "inverse":
        generators[i] = generators[i].inverse()
    elif change == "swap":
        B[i], C[i] = C[i], B[i]
    event(f"{name or 'unconjugated'}, {change}")
    return G.ctx, generators, B, C


@settings(max_examples=300)
@given(domain=candidate_domains())
def test_construction_raises_exactly_when_the_reference_report_fails(domain):
    """A group is built exactly when the parent's lazy check passes; a
    failed build raises with that report, check for check, and names its
    first failed check."""
    reference = axiom_oracle.verify(*domain)
    failed = len(reference.failures)
    event(f"{failed if failed < 3 else '3 or more'} failed checks")
    try:
        G = SchottkyGroup(*domain)
    except AxiomViolation as exc:
        assert not reference.all_passed
        assert exc.report == reference
        first = reference.failures[0]
        assert str(exc) == f"{first.name}: {first.detail}"
    else:
        assert reference.all_passed
        assert G.verify() == reference


def test_rank_one_group_verifies():
    G = sample_group(5, 1)
    assert G.rank == 1
    assert G.verify().all_passed


def test_sample_groups_verify(sample_groups):
    for G in sample_groups:
        assert G.verify().all_passed


def test_sample_group_uses_integer_centers_exactly_when_they_are_separated():
    """The integer centers 0..2r-1 lie in pairwise distinct closed disks of
    radius p^-k exactly when p^k > 2r - 1, the comparison sample_group
    makes; the pairwise valuations it replaced are the reference over p up
    to 13, k = 1-4 and rank 1-59.  The groups are built at ranks 1-4 and on
    both sides of each boundary rank p^k // 2 in the grid."""
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, 5):
            boundary = p**k // 2  # the largest rank with p^k > 2r - 1
            for rank in range(1, 60):
                flat = range(2 * rank)
                separated = all(
                    valuation(a - b, p) < k for i, a in enumerate(flat) for b in flat[i + 1 :]
                )
                assert separated == (p**k > 2 * rank - 1)
                if rank > 4 and rank not in (boundary, boundary + 1):
                    continue
                try:
                    G = sample_group(p, rank, 2 * k)
                except InvalidArgument:  # no room for the offset centers either
                    assert not separated
                    continue
                integral = all(Fraction(D.center).denominator == 1 for D in G.B + G.C)
                assert integral == separated, (p, k, rank)


def test_rank_is_refused_past_the_axiom_check_bound():
    """A rank-r report holds 2r^2 + r checks, so the largest admitted rank
    is 499; sample_group and the constructor refuse rank 500 at once."""
    for rank in (1, 2, 3, 4):
        assert len(sample_group(5, rank).verify().checks) == 2 * rank * rank + rank
    assert 2 * 499**2 + 499 <= MAX_WALK_WORDS < 2 * 500**2 + 500
    _refuse_large_rank(499)
    with pytest.raises(InvalidArgument, match="rank 500 needs more than 500000 axiom checks"):
        _refuse_large_rank(500)
    G = sample_group(5, 1)
    for build in (
        lambda: sample_group(1009, 500),
        lambda: SchottkyGroup(G.ctx, G.generators * 500, G.B * 500, G.C * 500),
    ):
        start = time.perf_counter()
        with pytest.raises(InvalidArgument, match="rank 500"):
            build()
        assert time.perf_counter() - start < 1


def test_sample_group_fractional_centers():
    # p = 3 at multiplier 9 cannot fit four integer centers; offsets by 1/3
    G = sample_group(3, 2, multiplier_exponent=2)
    assert G.verify().all_passed
    assert any(D.center.denominator == 3 for D in G.B + G.C)


@pytest.mark.parametrize("p, rank", [(7, 1), (5, 2), (3, 2)])
def test_sample_group_refuses_entries_past_the_digit_limit(p, rank):
    """A sample group is built exactly when str() can write every entry of
    its generators under the interpreter's current limit, 0 meaning none,
    and an exponent far past the limit is refused too."""
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        near = 2 * round(320 / math.log10(p))  # entries of about 640 digits
        digits = {
            e: max(len(str(abs(x))) for g in sample_group(p, rank, e).generators for x in g.entries)
            for e in range(near - 20, near + 22, 2)
        }
        assert min(digits.values()) <= 640 < max(digits.values())
        sys.set_int_max_str_digits(640)
        for e, n in digits.items():
            if n <= 640:
                assert sample_group(p, rank, e).verify().all_passed
            else:
                with pytest.raises(InvalidArgument, match="^a generator entry has more than 640"):
                    sample_group(p, rank, e)
        for e in (10**5, 2**1100):
            with pytest.raises(InvalidArgument, match="^a generator entry has more than 640"):
                sample_group(p, rank, e)
    finally:
        sys.set_int_max_str_digits(old)


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


def _disk_fields(D):
    """The disk, which ``==`` compares by its canonical fields, with the
    derived fields that ``==`` skips and the type of its radius exponent."""
    return (D, type(D.radius_exp), D._m, D._pk, D._s)


@given(G=drawn_groups((2, 3, 5, 7)), depth=st.integers(1, 5))
def test_limit_cover_matches_the_closed_leaf_disks(G, depth):
    """Each cover disk, imaged from the closed domain disk by the parent
    word, equals the closure of the leaf word's open disk, field by field,
    and the disk ``_cover_node`` memoizes for the same word."""
    got = G.limit_cover(depth)
    want = cover_oracle.limit_cover(G, depth)
    assert [w for w, _ in got.entries] == [w for w, _ in want.entries]
    assert [_disk_fields(D) for _, D in got.entries] == [_disk_fields(D) for _, D in want.entries]
    assert got.max_radius_exponent == want.max_radius_exponent
    assert type(got.max_radius_exponent) is type(want.max_radius_exponent)
    for letters, h, D in cover_oracle.leaves(G, depth):
        assert _disk_fields(G._cover_node(letters, h)[1]) == _disk_fields(D)


@pytest.mark.parametrize("rank", (1, 2, 3))
def test_limit_cover_words_equal_the_checked_words(rank):
    """The cover's Words, built without the checks of Word(...), are the
    reduced words of the depth in walk order, each equal to Word(letters)."""
    G = cached_sample_group(5, rank)
    for depth in range(1, 5):
        words = [w for w, _ in G.limit_cover(depth).entries]
        assert words == list(reduced_words(rank, depth))
        for w in words:
            assert type(w) is Word and type(w.letters) is tuple
            assert all(type(l) is int for l in w.letters)
            assert w == Word(w.letters) and hash(w) == hash(Word(w.letters))


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


def test_delta_to_limit_computes_one_level_for_a_point_off_the_cover():
    # infinity misses every letter disk, so no deeper cover node is needed
    G = sample_group(5, 2)
    computed = []
    cover_node = G._cover_node

    def counted(letters, h):
        computed.append(letters)
        return cover_node(letters, h)

    G._cover_node = counted
    bound = G.delta_to_limit(INFINITY, 1000)
    assert bound.lower_exponent == bound.upper_exponent == 0
    assert len(computed) <= 4
    # x = w(7/3) with 7/3 inside F: the descent starts at w, whose closed
    # cover disk is a chordal ball (a descent from the identity computes 40)
    x0 = ProjPoint(7, 3)
    letters = (1, 2, -1, -2) * 3
    x = G.word_homography(letters).apply(x0)
    computed.clear()
    G._cover_cache.clear()
    bound = G.delta_to_limit(x, 32)
    assert len(computed) <= 7
    want, _ = G._descend(x, 32, (), Homography.identity())
    assert bound.lower_exponent == bound.upper_exponent == want == -24
    # a reduction word as long as the depth names its depth-long prefix
    # and images no disk
    for length in (32, 35):
        letters = ((1, 2) * 18)[:length]
        x = G.word_homography(letters).apply(x0)
        computed.clear()
        with pytest.raises(PointNearLimitSet) as info:
            G.delta_to_limit(x, 32)
        assert str(info.value).endswith(f"cover disk of {Word(letters[:32])}")
        assert computed == []
    # 0 is the fixed point of g1 in B1: 2000 pull-back steps, no cover node
    with pytest.raises(PointNearLimitSet) as info:
        G.delta_to_limit(ProjPoint(0), 2000)
    assert str(info.value) == f"0 lies in the depth-2000 cover disk of {Word((-1,) * 2000)}"
    assert computed == []


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


_FLOOR_GROUPS = [sample_group(5, 1), sample_group(5, 3)]
for _p in (3, 5, 7):
    _G = sample_group(_p, 2)
    _FLOOR_GROUPS += [_G] + [H for H in (conjugate(_G, n) for n in CONJUGATOR_NAMES) if H]


@st.composite
def floor_regions(draw, G):
    """The fundamental domain, a closed domain disk or its complement, or a
    drawn affinoid whose disks may sit on the limit cover."""
    kind = draw(st.sampled_from(("domain", "domain disk", "drawn", "drawn")))
    if kind == "domain":
        return G.fundamental_domain()
    if kind == "domain disk":
        B = draw(st.sampled_from(G.B + G.C))
        return draw(st.sampled_from((Affinoid(B.closure(), ()), Affinoid(None, (B,)))))

    def disk(is_open):
        if draw(st.booleans()):
            _, D = draw(st.sampled_from(G.limit_cover(2).entries))
            center = D.center
        else:
            center = Fraction(draw(st.integers(-50, 50)), G.p ** draw(st.integers(0, 2)))
        radius = Fraction(draw(st.integers(-6, 2)), draw(st.sampled_from((1, 1, 2))))
        return Disk(draw(st.booleans()), is_open, center, radius, G.p)

    outer = disk(False) if draw(st.booleans()) else None
    return Affinoid(outer, [disk(True) for _ in range(draw(st.integers(0, 3)))])


@given(G=st.sampled_from(_FLOOR_GROUPS), depth=st.integers(1, 3), data=st.data())
def test_delta_floor_matches_the_prechecked_floor(G, depth, data):
    region = data.draw(floor_regions(G))
    want = floor_oracle.delta_floor(G, region, depth)
    event("no floor" if want is None else "a floor")
    assert G._delta_floor(region, depth) == want


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


def outcome(call):
    """A call's result, or MaxStepsExceeded and the text it raised."""
    try:
        return call()
    except MaxStepsExceeded as exc:
        return MaxStepsExceeded, str(exc)


@settings(max_examples=300)
@given(G=drawn_groups((3, 5, 7)), data=st.data())
def test_reduction_and_coset_key_match_the_composed_product(G, data):
    # g is a word of up to 8 generators, times an integer matrix or a map
    # sending infinity to a boundary point of F, possibly inverted; the
    # budget is the default or small enough to run out
    letters = data.draw(st.lists(st.sampled_from(G.letters()), max_size=8))
    g = G.word_homography(Word.reduced(letters))
    side = data.draw(st.sampled_from(("none", "matrix", "boundary")))
    if side == "matrix":
        entries = data.draw(st.lists(st.integers(-6, 6), min_size=4, max_size=4))
        assume(entries[0] * entries[3] != entries[1] * entries[2])
        t = Homography(*entries)
        g = g * t if data.draw(st.booleans()) else t * g
    elif side == "boundary":
        t = data.draw(st.sampled_from(G._envelope_base_points()[1:]))
        g = g * Homography(t.num, 1, t.den, 0)
    if data.draw(st.booleans()):
        g = g.inverse()
    steps = data.draw(st.one_of(st.none(), st.integers(0, 12)))
    budget = () if steps is None else (steps,)

    x = g.apply(INFINITY)
    reduced = outcome(lambda: G.reduce_point(x, *budget))
    want = outcome(lambda: reduce_oracle.reduce_with_matrix(G, x, 64 if steps is None else steps))
    if reduced[0] is MaxStepsExceeded:
        assert reduced == want
        event("budget spent")
    else:
        assert reduced == want[:2]
        event("boundary landing" if G.boundary_letter(reduced[1]) is not None else "interior")
    key = outcome(lambda: G.coset_key(g, *budget))
    want = outcome(lambda: reduce_oracle.coset_key(G, g, *budget))
    assert key == want
    if key[0] is not MaxStepsExceeded:
        assert key[1].entries == want[1].entries
    member = outcome(lambda: G.is_member(g, *budget))
    assert member == outcome(lambda: reduce_oracle.is_member(G, g, *budget))


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


def test_localize_fundamental_extends_one_product_per_letter(g5, monkeypatch):
    # each extension multiplies the carried product by one generator, so a
    # miss makes at most 2 * max_depth products, not one product per letter
    # of every length tried
    products = []
    compose = Homography.__mul__

    def counted(self, other):
        products.append(1)
        return compose(self, other)

    monkeypatch.setattr(Homography, "__mul__", counted)
    for max_depth in (64, 300):
        products.clear()
        with pytest.raises(DepthExceeded):
            g5.localize_fundamental(Word((1,)), Disk.closed_disk(100, -1, 5), max_depth)
        assert len(products) <= 2 * max_depth
    # a hit returns the word and the basis conjugated by its product
    w = Word((-2, 1, 1, 1, 1))
    got, basis = g5.localize_fundamental(Word((-2, 1)), g5.b_disk(w).closure())
    assert got == w
    h = g5.word_homography(w)
    assert basis == tuple(h * g * h.inverse() for g in g5.generators)


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
    # a group that fails an axiom is never built, so no operation runs on one
    with pytest.raises(AxiomViolation, match=r"^disjoint:B2\+,C2\+: "):
        SchottkyGroup(g5.ctx, g5.generators, g5.B, [g5.C[0], g5.B[1]])


def test_invalid_arguments_raise_invalid_argument(g5):
    from schottky import InvalidArgument, PrimeContext

    with pytest.raises(InvalidArgument):
        g5.b_disk(Word(()))
    with pytest.raises(InvalidArgument):
        PrimeContext(4)
    for args in ((5, 0), (5, 2, 3), (5, 2, 0), (3, 4)):
        with pytest.raises(InvalidArgument):
            sample_group(*args)


@pytest.mark.parametrize(
    "call, letter",
    (
        (lambda G: G.generator(3), 3),
        (lambda G: G.word_homography(Word((1, -3))), -3),
        (lambda G: G.b_disk(Word((3,))), 3),
        (lambda G: G.localize_fundamental(Word((2, 3)), G.B[0]), 3),
    ),
    ids=("generator", "word_homography", "b_disk", "localize_fundamental"),
)
def test_letters_outside_the_alphabet_raise_invalid_argument(g5, call, letter):
    with pytest.raises(InvalidArgument, match=f"^letter {letter} is outside .* rank 2$"):
        call(g5)


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


@pytest.mark.parametrize(
    "call",
    (
        lambda G, depth: G.limit_cover(depth),
        lambda G, depth: G.fit_proper_constants(depth),
        # (0, 1) is fixed by g1, a hit at length 1: the refusal comes first
        lambda G, depth: pair_stabilizer(G, (ProjPoint(0), ProjPoint(1)), depth),
        lambda G, depth: G.intersecting_translates(
            G.fundamental_domain(), G.fundamental_domain(), depth
        ),
        # refused at the call, before the first word is asked for
        lambda G, depth: G.iter_words_with_matrices(depth),
        lambda G, depth: G._walk(depth),
    ),
    ids=(
        "limit_cover",
        "fit_proper_constants",
        "pair_stabilizer",
        "intersecting_translates",
        "iter_words_with_matrices",
        "_walk",
    ),
)
def test_walks_past_the_word_cap_are_refused(g5, call):
    # rank 2 has 354,292 words up to length 11 and 1,062,880 up to length 12
    assert count_words_up_to(4, 3, 11, MAX_WALK_WORDS) <= MAX_WALK_WORDS
    with pytest.raises(InvalidArgument, match="^a walk to depth 12 has more than 500000 reduced"):
        call(g5, 12)


def test_negative_depths_and_lengths_are_refused(g5):
    F = g5.fundamental_domain()
    with pytest.raises(InvalidArgument, match="^depth must be >= 0"):
        g5.intersecting_translates(F, F, -1)
    with pytest.raises(InvalidArgument, match="^max_length must be >= 0"):
        count_words_up_to(4, 3, -1, MAX_WALK_WORDS)
    with pytest.raises(InvalidArgument, match="^max_length must be >= 0"):
        count_words_up_to(1, 1, -1, MAX_WALK_WORDS)
    with pytest.raises(InvalidArgument, match="^max_length must be >= 0"):
        g5.iter_words_with_matrices(-1)
    # depth 0 scans the identity alone
    scan = g5.intersecting_translates(F, F, 0)
    assert scan.words == (Word(()),)
    assert scan.depth == 0
