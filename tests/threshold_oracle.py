"""The reference threshold bin: a search from the logarithmic estimate.

``CountingScan.threshold_bin`` reads the bin of a scan height off the
row counts.  This is the search it replaced, deciding every comparison
by the plain integer powers, so it shares no code with the library.
"""

import math


def height_at_most(h, peak, l, L):
    """H**L <= peak**l, by the powers of the g-th roots, g = gcd(l, L)."""
    g = math.gcd(l, L)
    return h ** (L // g) <= peak ** (l // g)


def threshold_bin(height, peak, L):
    """The least l in 1 .. 4L with H**L <= peak**l, or -1 if none."""
    l = min(max(1, math.ceil(L * math.log(height) / math.log(peak))), 4 * L + 1)
    while l > 1 and height_at_most(height, peak, l - 1, L):
        l -= 1
    while l <= 4 * L and not height_at_most(height, peak, l, L):
        l += 1
    return l if l <= 4 * L else -1
