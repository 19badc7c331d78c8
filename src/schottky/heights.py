"""Height functions on Q and PGL(2, Q), and the positive-word counting scan.

The height of a/b in lowest terms is max(|a|, |b|); the height of a
homography is the largest entry of its content-1 integer matrix.  Under
this normalization products satisfy H(gh) <= 2 H(g) H(h) before content
reduction, and content reduction only shrinks the height.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import repeat
from typing import Dict, Iterable, Optional, Tuple

from ._record import record
from .errors import InvalidArgument, integer_text_limit, past_integer_text_limit
from .proj import Homography
from .words import count_words_up_to, walk


def height_rational(x) -> int:
    x = Fraction(x)
    return max(abs(x.numerator), x.denominator)


def height_tuple(values: Iterable) -> int:
    heights = [height_rational(v) for v in values]
    if not heights:
        raise ValueError("empty tuple has no height")
    return max(heights)


def height_matrix(g: Homography) -> int:
    return max(map(abs, g.entries))


def growth_base(G) -> int:
    """The constant c = 2 * max generator height; every word w satisfies
    H(w) <= c**(len(w) + 1) by submultiplicativity."""
    return 2 * max(height_matrix(g) for g in G.generators)


@record
class CountRow:
    length_exponent: int
    threshold: Optional[float]  # None when peak**(l/L) is beyond float range
    count: int


@record(hidden=("bins",))
class CountingScan:
    """Counts of positive words below height thresholds c**l.

    ``growth`` is the measured per-letter height growth over the scan,
    the L-th root of the largest height at the deepest length; threshold
    comparisons H <= growth**l are performed exactly as H**L <= M**l.

    Entry i of ``entries`` is the height of the i-th positive word in the
    order of ``product()``: by length, then lexicographically in the
    generator indices.  ``bins`` maps each scan height at most the peak to its
    threshold bin; row l counts the heights at most peak**(l/L), so the
    sorted heights sliced at the row counts fill it.
    """

    max_length: int
    q: int
    peak_height: int
    growth: float
    rows: Tuple[CountRow, ...]
    slope: float
    reference_exponent: float
    entries: Tuple[int, ...]
    bins: Dict[int, int]

    def threshold_bin(self, height: int) -> int:
        """The least l in 1 .. 4L with H**L <= peak**l, or -1 if none.

        A scan height at most the peak is read from ``bins``.
        """
        if height < 1:
            raise InvalidArgument("a height is at least 1")
        found = self.bins.get(height)
        if found is not None:
            return found
        # a height the scan never saw, or one above the peak: the comparison
        # holds from its bin on, so the bin is found by bisection
        L, peak = self.max_length, self.peak_height
        l = 1 + bisect_left(
            range(1, 4 * L + 1), True, key=lambda l: _height_at_most(height, peak, l, L)
        )
        return l if l <= 4 * L else -1

    def summary_dict(self):
        return {
            "max_length": self.max_length,
            "generators": self.q,
            "peak_height": str(self.peak_height),
            "growth": self.growth,
            "slope": self.slope,
            "reference_exponent": self.reference_exponent,
            "rows": [
                {"length_exponent": r.length_exponent, "threshold": r.threshold, "count": r.count}
                for r in self.rows
            ],
        }


def _positive_branch(generators, first: int, max_length: int, digit_limit: int):
    """The heights of the positive words that start with ``first``, one
    list per length, each in lexicographic order."""
    step = {i: g for i, g in enumerate(generators, 1)}
    too_long = 10**digit_limit if digit_limit else None
    levels = [[] for _ in range(max_length)]
    for length, _, h in walk([((first,), step[first])], step, max_length):
        height = height_matrix(h)
        if too_long is not None and height >= too_long:
            raise past_integer_text_limit("a height", digit_limit, "lower max_length")
        levels[length - 1].append(height)
    return levels


def _branch_worker(payload):
    matrices, first, max_length, digit_limit = payload
    return _positive_branch([Homography(*m) for m in matrices], first, max_length, digit_limit)


# 0.2-0.35 KB of memory per word (heights-scan peak RSS on rank-2 sample
# groups at lengths 14 to 18 and rank-3 at 10 to 12), so the largest
# admitted scan needs about 0.35 GB
MAX_SCAN_WORDS = 10**6


def upsilon_scan(G, max_length: int, workers: int = 1) -> CountingScan:
    """Enumerate positive words (generators only, no inverses) up to the
    length, count them under height thresholds, and fit the log-log slope.

    The witnessed slope is compared with log(q)/log(c): q**l positive
    words of length l against the height bound c**l.  A scan of more than
    MAX_SCAN_WORDS words, or with a height too long for integer text, is
    refused with InvalidArgument.
    """
    if max_length < 1:
        raise InvalidArgument("max_length must be >= 1")
    if workers < 1:
        raise InvalidArgument("workers must be >= 1")
    q = G.rank
    if count_words_up_to(q, q, max_length, MAX_SCAN_WORDS) > MAX_SCAN_WORDS:
        raise InvalidArgument(
            f"a scan to length {max_length} has more than {MAX_SCAN_WORDS} positive words;"
            " lower max_length"
        )
    digit_limit = integer_text_limit()
    if workers > 1 and q > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a pooled scan

        matrices = tuple(g.entries for g in G.generators)
        payloads = [(matrices, first, max_length, digit_limit) for first in range(1, q + 1)]
        with ProcessPoolExecutor(max_workers=min(workers, q)) as pool:
            branches = list(pool.map(_branch_worker, payloads))
    else:
        branches = [
            _positive_branch(G.generators, first, max_length, digit_limit)
            for first in range(1, q + 1)
        ]
    # taking the branches in turn at each length gives the words in
    # lexicographic order, which is the order of product()
    entries = [h for levels in zip(*branches) for level in levels for h in level]

    L = max_length
    peak = max(max(levels[-1]) for levels in branches)
    huge = peak >= _FLOAT_OVERFLOW  # then its powers are taken in the log domain
    growth = math.exp(math.log(peak) / L) if huge else peak ** (1.0 / L)
    heights = sorted(entries)
    rows = []
    pts = []
    bins = {}
    cut = 0
    for l in range(1, L + 1):
        count = _count_below(heights, peak, l, L)
        bins.update(zip(heights[cut:count], repeat(l)))  # above row l-1's cut, within row l's
        cut = count
        log_t = l / L * math.log(peak) if huge else math.log(peak ** (l / L))
        rows.append(CountRow(l, _exp_or_none(log_t) if huge else peak ** (l / L), count))
        if count > 0:
            pts.append((log_t, math.log(count)))
    slope = _ls_slope(pts)
    reference = math.log(q) / math.log(growth) if q > 1 and growth > 1 else 0.0
    return CountingScan(
        max_length, q, peak, growth, tuple(rows), slope, reference, tuple(entries), bins
    )


# the least integer that float() rejects: 2**1024 less half an ulp of the largest float
_FLOAT_OVERFLOW = 2**1024 - 2**970


def _exp_or_none(x: float) -> Optional[float]:
    try:
        return math.exp(x)
    except OverflowError:
        return None


def _height_at_most(h: int, peak: int, l: int, L: int) -> bool:
    """H**L <= peak**l, decided exactly: by logarithms, or by the integers
    where the logarithms nearly tie."""
    log_bound = l * math.log(peak)
    gap = L * math.log(h) - log_bound
    if abs(gap) > 1e-9 * (1 + log_bound):  # far beyond the rounding of math.log
        return gap < 0
    g = math.gcd(l, L)  # x -> x**g is increasing, so compare the g-th roots
    a, b = L // g, l // g
    # a and b are coprime, so h**a == peak**b exactly when h = r**b and
    # peak = r**a for an integer r; only a near tie that is not equal is
    # decided by the powers themselves
    r = _iroot(peak, a)
    if r**a == peak and r**b == h:
        return True
    return h**a <= peak**b


def _iroot(n: int, k: int) -> int:
    """The largest r with r**k <= n, for n >= 1 and k >= 1."""
    if k == 1:
        return n
    # a float estimate a little above the root, scaled by 2**shift to stay in range
    shift = max(0, n.bit_length() // k - 960)
    estimate = math.exp(math.log(n) / k - shift * math.log(2))
    r = (int(estimate * (1 + 1e-9)) + 1) << shift
    while r**k <= n:  # the iteration below needs a start above the root
        r *= 2
    # Newton's iteration from above decreases to the root, and stops there
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _count_below(heights, peak: int, l: int, L: int) -> int:
    """The number of sorted heights H with H**L <= peak**l."""
    return bisect_left(heights, True, key=lambda h: not _height_at_most(h, peak, l, L))


def _ls_slope(points) -> float:
    n = len(points)
    if n < 2:
        return 0.0
    # Plain left-to-right float sums: from Python 3.12 on, sum() compensates
    # its rounding, which would change the printed slope between versions.
    sx = sy = sxx = sxy = 0.0
    for x, y in points:
        sx += x
        sy += y
        sxx += x * x
        sxy += x * y
    denom = n * sxx - sx * sx
    return 0.0 if denom == 0 else (n * sxy - sx * sy) / denom
