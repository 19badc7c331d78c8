import functools
import math
import operator
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import threshold_oracle
from conftest import cached_sample_group
from schottky.errors import InvalidArgument
from schottky.groups import sample_group
from schottky.heights import (
    MAX_SCAN_WORDS,
    _height_at_most,
    _iroot,
    _ls_slope,
    _positive_branch,
    growth_base,
    height_matrix,
    height_rational,
    height_tuple,
    upsilon_scan,
)
from schottky.proj import Homography
from schottky.words import count_words_up_to


def test_height_rational_examples():
    assert height_rational(Fraction(2, 3)) == 3
    assert height_rational(0) == 1
    assert height_rational(7) == 7
    assert height_tuple([Fraction(2, 3), 7, 0]) == 7


def test_height_matrix_examples():
    assert height_matrix(Homography(2, 4, 0, 2)) == 2  # content reduction first
    assert height_matrix(Homography(1, 0, -24, 25)) == 25
    assert height_matrix(Homography.identity()) == 1


def test_submultiplicativity_with_explicit_constant(g5):
    # raw product entries obey H <= 2 H(g) H(h); canonicalization only shrinks
    mats = [g5.word_homography(w) for w in g5.enumerate_words(2)]
    for g in mats[:8]:
        for h in mats[:8]:
            a, b, c, d = g.entries
            e, f, i, j = h.entries
            raw = max(
                abs(a * e + b * i), abs(a * f + b * j), abs(c * e + d * i), abs(c * f + d * j)
            )
            assert raw <= 2 * height_matrix(g) * height_matrix(h)
            assert height_matrix(g * h) <= raw


def test_inverse_height_equality():
    # the adjugate permutes the entries up to sign, and shares their content,
    # so the canonical inverse has exactly the same height
    for g in [Homography(1, 0, -24, 25), Homography(3, 1, 5, 10), Homography(2, 7, 1, 4)]:
        a, b, c, d = g.entries
        assert sorted(abs(e) for e in g.inverse().entries) == sorted((abs(a), abs(b), abs(c), abs(d)))
        assert height_matrix(g.inverse()) == height_matrix(g)


def test_diagonal_power_law():
    for m in (2, 5, 25):
        g = Homography(1, 0, 0, m)
        power = Homography.identity()
        for n in range(1, 7):
            power = power * g
            assert height_matrix(power) == m**n


def test_growth_lemma_bound(g5):
    c = growth_base(g5)
    assert c == 2 * 144
    for length, word, h in g5.iter_words_with_matrices(5):
        assert height_matrix(h) <= c ** (length + 1)


def test_conjugate_power_growth():
    # H(h1^n) grows like 25^n up to a bounded factor
    h1 = Homography(1, 0, -24, 25)
    power = Homography.identity()
    for n in range(1, 9):
        power = power * h1
        ratio = Fraction(height_matrix(power), 25**n)
        assert Fraction(1, 25) <= ratio <= 25


def test_positive_word_count(g5):
    scan = upsilon_scan(g5, 3)
    assert len(scan.entries) == 2 + 4 + 8  # q + q^2 + q^3
    assert all(type(h) is int for h in scan.entries)


def test_positive_branch_keeps_one_list_per_length(g5):
    """The branch of g2 holds 2**(n-1) heights of length n, each level in
    lexicographic order."""
    g1, g2 = g5.generators
    levels = _positive_branch(g5.generators, 2, 3, 0)
    assert [len(level) for level in levels] == [1, 2, 4]
    words = [[g2], [g2 * g1, g2 * g2], [g2 * u * v for u in (g1, g2) for v in (g1, g2)]]
    assert levels == [[height_matrix(h) for h in level] for level in words]


def test_upsilon_scan_slope_positive(g5):
    scan = upsilon_scan(g5, 6)
    assert scan.slope > 0
    assert scan.reference_exponent > 0
    counts = [r.count for r in scan.rows]
    assert counts == sorted(counts)  # nondecreasing in T
    assert counts[-1] == len(scan.entries)  # the top bin saturates by design


def test_upsilon_scan_workers_match(g5):
    seq = upsilon_scan(g5, 4)
    par = upsilon_scan(g5, 4, workers=2)
    assert seq.entries == par.entries
    assert seq.rows == par.rows
    assert seq.slope == par.slope
    for h in seq.entries:
        assert seq.threshold_bin(h) == par.threshold_bin(h)


def _slope(points, total):
    """The least-squares slope with each sum taken by total."""
    n = len(points)
    sx, sy = total([x for x, _ in points]), total([y for _, y in points])
    sxx, sxy = total([x * x for x, _ in points]), total([x * y for x, y in points])
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def test_ls_slope_adds_left_to_right():
    # sum() of floats rounds like this up to Python 3.11, and compensates from 3.12 on
    def left_to_right(values):
        return functools.reduce(operator.add, values, 0.0)

    # points whose sums round differently when compensated
    points = [(0.1 * l, 0.7 * l + 0.01 * l * l) for l in range(1, 11)]
    assert _slope(points, left_to_right) != _slope(points, math.fsum)
    assert _ls_slope(points) == _slope(points, left_to_right)


def test_threshold_bins(g5):
    # on rank 1 most heights tie their bin edge past float precision
    for scan in (upsilon_scan(g5, 4), upsilon_scan(sample_group(5, 1), 60)):
        bins = []
        for h in scan.entries:
            b = scan.threshold_bin(h)
            assert 1 <= b <= 4 * scan.max_length
            # the bin is the first threshold at or above the height, exactly
            assert h ** scan.max_length <= scan.peak_height ** b
            if b > 1:
                assert h ** scan.max_length > scan.peak_height ** (b - 1)
            bins.append(b)
        # row l counts exactly the heights binned at or below l
        for row in scan.rows:
            assert row.count == sum(1 <= b <= row.length_exponent for b in bins)


def test_upsilon_scan_rejects_bad_length(g5):
    with pytest.raises(ValueError):
        upsilon_scan(g5, 0)


@pytest.mark.parametrize("workers", [0, -2])
def test_upsilon_scan_rejects_fewer_than_one_worker(g5, workers):
    with pytest.raises(InvalidArgument):
        upsilon_scan(g5, 3, workers=workers)


def test_upsilon_scan_refuses_heights_past_the_text_limit():
    """A scan runs exactly when str() can write all its heights, so every
    written height reloads; the check reads the interpreter's current limit."""
    G = sample_group(5, 1, multiplier_exponent=40)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        g, h, fits = G.generators[0], Homography.identity(), 0
        while height_matrix(h * g) < 10**640:
            h, fits = h * g, fits + 1
        scan = upsilon_scan(G, fits)
        assert all(int(str(height)) == height for height in scan.entries)
        with pytest.raises(InvalidArgument, match="640 decimal digits"):
            upsilon_scan(G, fits + 1)
    finally:
        sys.set_int_max_str_digits(old)


def test_upsilon_scan_workers_refuse_heights_past_the_text_limit():
    # each pool worker stops at its first height past the limit
    G = sample_group(5, 2, multiplier_exponent=400)  # about 280 digits per letter
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert len(upsilon_scan(G, 2, workers=2).entries) == 6
        with pytest.raises(InvalidArgument, match="640 decimal digits"):
            upsilon_scan(G, 3, workers=2)
    finally:
        sys.set_int_max_str_digits(old)


def test_positive_word_count_is_exact_up_to_the_cap():
    for q in (1, 2, 3, 5):
        for L in range(1, 30):
            exact = sum(q**n for n in range(1, L + 1))
            assert count_words_up_to(q, q, L, MAX_SCAN_WORDS) == min(exact, MAX_SCAN_WORDS + 1)
    assert count_words_up_to(1, 1, 10**12, MAX_SCAN_WORDS) == MAX_SCAN_WORDS + 1
    assert count_words_up_to(2, 2, 10**12, MAX_SCAN_WORDS) == MAX_SCAN_WORDS + 1
    # the benchmark's rank-3 scan to length 9 stays far below the cap
    assert count_words_up_to(3, 3, 9, MAX_SCAN_WORDS) == 29523


@given(st.one_of(st.integers(1, 10**40), st.integers(1, 2**5000)), st.integers(1, 70))
def test_iroot_is_the_integer_root(n, k):
    r = _iroot(n, k)
    assert r**k <= n < (r + 1) ** k


# roots small and large, so that the root estimate also runs past float range
_ROOTS = st.one_of(st.integers(2, 60), st.integers(2, 2**1500))


@given(
    st.integers(1, 40), st.integers(1, 160), _ROOTS,
    st.sampled_from([-1, 0, 1, None]), st.sampled_from([-1, 0, 1, None]), st.data(),
)
def test_height_at_most_matches_the_powers(L, l, r, dh, dpeak, data):
    """Exact ties h**a == peak**b, a = L/g, b = l/g, are decided through
    the integer a-th root of the peak; every answer must equal the plain
    comparison of the powers.  The draws put h and the peak at r**b and
    r**a, one off them, or anywhere."""
    l = min(l, 4 * L)
    g = math.gcd(l, L)
    a, b = L // g, l // g
    peak = r**a + dpeak if dpeak is not None else data.draw(st.integers(2, r**a + 1))
    h = r**b + dh if dh is not None else data.draw(st.integers(1, r**b + 1))
    assert _height_at_most(h, peak, l, L) == (h**a <= peak**b)


def test_rank_one_scan_settles_every_tie_without_big_powers():
    # g1**n has height 25**n, so every row's edge ties a height exactly;
    # the plain comparison would raise 1,400-digit heights to powers up to 1,000
    start = time.perf_counter()
    scan = upsilon_scan(sample_group(5, 1), 1000)
    assert [row.count for row in scan.rows] == list(range(1, 1001))
    assert [scan.threshold_bin(h) for h in scan.entries] == list(range(1, 1001))
    assert time.perf_counter() - start < 10


@functools.lru_cache(maxsize=None)
def _scan(p, rank, L):
    return upsilon_scan(cached_sample_group(p, rank), L)


# the longest scan drawn for each rank keeps the oracle's powers small
_MAX_LENGTH = {1: 40, 2: 7, 3: 5}


@given(st.sampled_from([3, 5, 7]), st.integers(1, 3), st.data())
def test_threshold_bin_matches_the_oracle(p, rank, data):
    """Every scan height, and heights the scan never saw (1, the peak, one
    past it, values between scan heights and anywhere up to twice the peak),
    get the bin of the log-estimate search with plain integer powers."""
    L = data.draw(st.integers(1, _MAX_LENGTH[rank]))
    scan = _scan(p, rank, L)
    peak = scan.peak_height
    heights = sorted(set(scan.entries))
    unseen = [1, peak, peak + 1, 2 * peak]
    unseen += [(x + y) // 2 for x, y in zip(heights, heights[1:])]
    unseen += data.draw(st.lists(st.integers(1, 2 * peak), max_size=8))
    for h in heights + unseen:
        assert scan.threshold_bin(h) == threshold_oracle.threshold_bin(h, peak, L), h


class _HeightsAbovePeak:
    """A rank-1 stand-in for a group, never verified: the powers of its
    generator have heights 5, 5, 15, 6, so a scan to length 4 has a height
    above its peak.  upsilon_scan reads only these two names."""

    rank = 1
    generators = (Homography(-5, -5, 2, 0),)


def test_threshold_bin_of_a_scan_height_above_the_peak():
    scan = upsilon_scan(_HeightsAbovePeak(), 4)
    assert scan.entries == (5, 5, 15, 6)
    assert scan.threshold_bin(15) == 7  # 15**4 <= 6**7, past the rows' lengths
    for h in scan.entries:
        assert scan.threshold_bin(h) == threshold_oracle.threshold_bin(h, 6, 4)


@pytest.mark.parametrize(
    "scan",
    [
        _scan(5, 1, 40),
        _scan(3, 2, 7),
        _scan(5, 3, 5),
        upsilon_scan(_HeightsAbovePeak(), 4),
    ],
    ids=["rank1", "rank2", "rank3", "above-peak"],
)
def test_bin_table_at_the_row_cuts(scan):
    """The table holds the oracle's bin for the last height within each
    row's cut and the first beyond it; a height above the peak, here a
    shorter word's, is not in the table and still gets the oracle's bin."""
    L, peak = scan.max_length, scan.peak_height
    heights = sorted(scan.entries)
    assert set(scan.bins) == {h for h in heights if h <= peak}
    for row in scan.rows:
        for i in (row.count - 1, row.count):
            if 0 <= i < len(heights):
                h = heights[i]
                want = threshold_oracle.threshold_bin(h, peak, L)
                assert scan.bins.get(h) == (want if h <= peak else None), (row, h)
                assert scan.threshold_bin(h) == want, (row, h)


@pytest.mark.parametrize("height", [0, -1, -(10**30)])
def test_threshold_bin_rejects_heights_below_one(g5, height):
    with pytest.raises(InvalidArgument):
        upsilon_scan(g5, 3).threshold_bin(height)
