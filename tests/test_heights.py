import sys
from fractions import Fraction

import pytest

from schottky.errors import InvalidArgument
from schottky.groups import sample_group
from schottky.heights import (
    growth_base,
    height_matrix,
    height_rational,
    height_tuple,
    upsilon_scan,
)
from schottky.proj import Homography


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
    assert sum(1 for length, _, _ in scan.entries if length == 3) == 8  # q^3


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


def test_threshold_bins(g5):
    # on rank 1 most heights tie their bin edge past float precision
    for scan in (upsilon_scan(g5, 4), upsilon_scan(sample_group(5, 1), 60)):
        for length, word, h in scan.entries:
            b = scan.threshold_bin(h)
            assert 1 <= b <= 4 * scan.max_length
            # the bin is the first threshold at or above the height, exactly
            assert h ** scan.max_length <= scan.peak_height ** b
            if b > 1:
                assert h ** scan.max_length > scan.peak_height ** (b - 1)


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
        assert all(int(str(height)) == height for _, _, height in scan.entries)
        with pytest.raises(InvalidArgument, match="640 decimal digits"):
            upsilon_scan(G, fits + 1)
    finally:
        sys.set_int_max_str_digits(old)
