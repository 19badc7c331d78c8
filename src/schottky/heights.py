"""Height functions on Q and PGL(2, Q), and the positive-word counting scan.

The height of a/b in lowest terms is max(|a|, |b|); the height of a
homography is the largest entry of its content-1 integer matrix.  Under
this normalization products satisfy H(gh) <= 2 H(g) H(h) before content
reduction, and content reduction only shrinks the height.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple

from .errors import InvalidArgument
from .proj import Homography
from .words import Word, walk


def height_rational(x) -> int:
    x = Fraction(x)
    return max(abs(x.numerator), x.denominator)


def height_tuple(values: Iterable) -> int:
    heights = [height_rational(v) for v in values]
    if not heights:
        raise ValueError("empty tuple has no height")
    return max(heights)


def height_matrix(g: Homography) -> int:
    return max(abs(e) for e in g.entries)


def growth_base(G) -> int:
    """The constant c = 2 * max generator height; every word w satisfies
    H(w) <= c**(len(w) + 1) by submultiplicativity."""
    return 2 * max(height_matrix(g) for g in G.generators)


@dataclass(frozen=True)
class CountRow:
    length_exponent: int
    threshold: Optional[float]  # None when peak**(l/L) is beyond float range
    count: int


@dataclass(frozen=True)
class CountingScan:
    """Counts of positive words below height thresholds c**l.

    ``growth`` is the measured per-letter height growth over the scan,
    the L-th root of the largest height at the deepest length; threshold
    comparisons H <= growth**l are performed exactly as H**L <= M**l.
    """

    max_length: int
    q: int
    peak_height: int
    growth: float
    rows: Tuple[CountRow, ...]
    slope: float
    reference_exponent: float
    entries: Tuple[Tuple[int, Word, int], ...]

    def threshold_bin(self, height: int) -> int:
        """The least l in 1 .. 4L with H**L <= peak**l, or -1 if none."""
        L, peak = self.max_length, self.peak_height
        # Start from the logarithmic estimate, then settle the exact bin.
        l = min(max(1, math.ceil(L * math.log(height) / math.log(peak))), 4 * L + 1)
        while l > 1 and _height_at_most(height, peak, l - 1, L):
            l -= 1
        while l <= 4 * L and not _height_at_most(height, peak, l, L):
            l += 1
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


def _positive_branch(generators, first: int, max_length: int):
    step = {i: g for i, g in enumerate(generators, 1)}
    roots = [((first,), step[first])]
    return [
        (length, letters, height_matrix(h)) for length, letters, h in walk(roots, step, max_length)
    ]


def _branch_worker(payload):
    matrices, first, max_length = payload
    return _positive_branch([Homography(*m) for m in matrices], first, max_length)


def upsilon_scan(G, max_length: int, workers: int = 1) -> CountingScan:
    """Enumerate positive words (generators only, no inverses) up to the
    length, count them under height thresholds, and fit the log-log slope.

    The witnessed slope is compared with log(q)/log(c): q**l positive
    words of length l against the height bound c**l.
    """
    G.ensure_verified()
    if max_length < 1:
        raise InvalidArgument("max_length must be >= 1")
    if workers < 1:
        raise InvalidArgument("workers must be >= 1")
    q = G.rank
    if workers > 1 and q > 1:
        matrices = tuple(g.entries for g in G.generators)
        payloads = [(matrices, first, max_length) for first in range(1, q + 1)]
        with ProcessPoolExecutor(max_workers=min(workers, q)) as pool:
            branches = list(pool.map(_branch_worker, payloads))
    else:
        branches = [_positive_branch(G.generators, first, max_length) for first in range(1, q + 1)]
    raw = [row for branch in branches for row in branch]
    raw.sort(key=lambda row: (row[0], row[1]))
    entries = tuple((length, Word(letters), h) for length, letters, h in raw)

    L = max_length
    peak = max(h for length, _, h in entries if length == L)
    huge = peak >= _FLOAT_OVERFLOW  # then its powers are taken in the log domain
    growth = math.exp(math.log(peak) / L) if huge else peak ** (1.0 / L)
    heights = sorted(h for _, _, h in entries)
    # a height that str() cannot write could not be printed or reloaded either
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and heights[-1] >= 10**limit:
        raise InvalidArgument(
            f"a height has more than {limit} decimal digits, the limit for integer text;"
            " lower max_length"
        )
    rows = []
    pts = []
    for l in range(1, L + 1):
        count = _count_below(heights, peak, l, L)
        log_t = l / L * math.log(peak) if huge else math.log(peak ** (l / L))
        rows.append(CountRow(l, _exp_or_none(log_t) if huge else peak ** (l / L), count))
        if count > 0:
            pts.append((log_t, math.log(count)))
    slope = _ls_slope(pts)
    reference = math.log(q) / math.log(growth) if q > 1 and growth > 1 else 0.0
    return CountingScan(
        max_length, q, peak, growth, tuple(rows), slope, reference, entries
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
    return h ** (L // g) <= peak ** (l // g)


def _count_below(sorted_heights, peak: int, l: int, L: int) -> int:
    """The number of heights H with H**L <= peak**l."""
    return bisect_left(sorted_heights, True, key=lambda h: not _height_at_most(h, peak, l, L))


def _ls_slope(points) -> float:
    n = len(points)
    if n < 2:
        return 0.0
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    denom = n * sxx - sx * sx
    return 0.0 if denom == 0 else (n * sxy - sx * sy) / denom
