"""Height functions on Q and PGL(2, Q), and the positive-word counting scan.

The height of a/b in lowest terms is max(|a|, |b|); the height of a
homography is the largest entry of its content-1 integer matrix.  Under
this normalization products satisfy H(gh) <= 2 H(g) H(h) before content
reduction, and content reduction only shrinks the height.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple

from .errors import InvalidArgument
from .proj import Homography
from .words import Word


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
    threshold: float
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
        l = 1
        while height**self.max_length > self.peak_height**l:
            l += 1
            if l > 4 * self.max_length:
                return -1
        return l

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


def _positive_branch(G, first: int, max_length: int):
    out = []
    level = [((first,), G.generators[first - 1])]
    length = 1
    while True:
        out.extend((length, letters, height_matrix(h)) for letters, h in level)
        if length == max_length:
            return out
        length += 1
        level = [
            (letters + (i,), h * G.generators[i - 1])
            for letters, h in level
            for i in range(1, G.rank + 1)
        ]


def _branch_worker(payload):
    from .serialize import group_from_dict

    group_dict, first, max_length = payload
    G = group_from_dict(json.loads(group_dict))
    return _positive_branch(G, first, max_length)


def upsilon_scan(G, max_length: int, workers: Optional[int] = None) -> CountingScan:
    """Enumerate positive words (generators only, no inverses) up to the
    length, count them under height thresholds, and fit the log-log slope.

    The witnessed slope is compared with log(q)/log(c): q**l positive
    words of length l against the height bound c**l.
    """
    G.ensure_verified()
    if max_length < 1:
        raise InvalidArgument("max_length must be >= 1")
    q = G.rank
    if workers and workers > 1 and q > 1:
        from .serialize import group_to_dict

        payloads = [
            (json.dumps(group_to_dict(G)), first, max_length) for first in range(1, q + 1)
        ]
        with ProcessPoolExecutor(max_workers=min(workers, q)) as pool:
            branches = list(pool.map(_branch_worker, payloads))
        raw = [row for branch in branches for row in branch]
    else:
        raw = [row for first in range(1, q + 1) for row in _positive_branch(G, first, max_length)]
    raw.sort(key=lambda row: (row[0], row[1]))
    entries = tuple((length, Word(letters), h) for length, letters, h in raw)

    peak = max(h for length, _, h in entries if length == max_length)
    growth = peak ** (1.0 / max_length)
    heights = sorted(h for _, _, h in entries)
    rows = []
    for l in range(1, max_length + 1):
        # exact comparison H <= peak**(l/L):  H**L <= peak**l
        bound = peak**l
        count = _count_below(heights, bound, max_length)
        rows.append(CountRow(l, peak ** (l / max_length), count))

    pts = [
        (math.log(r.threshold), math.log(r.count)) for r in rows if r.count > 0
    ]
    slope = _ls_slope(pts)
    reference = math.log(q) / math.log(growth) if q > 1 and growth > 1 else 0.0
    return CountingScan(
        max_length, q, peak, growth, tuple(rows), slope, reference, entries
    )


def _count_below(sorted_heights, bound, L):
    lo, hi = 0, len(sorted_heights)
    while lo < hi:
        mid = (lo + hi) // 2
        if sorted_heights[mid] ** L <= bound:
            lo = mid + 1
        else:
            hi = mid
    return lo


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
