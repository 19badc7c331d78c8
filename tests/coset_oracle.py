"""Reference word-by-word double-coset count.

This is the scan that ``schottky.geodesy._coset_counts`` replaced: every
reduced word w of G1 up to the depth is walked with its product, and the
coset key of g * w in G2 is computed from scratch.  The library now
expands each (coset key, last letter) state once; ``test_coset_probe.py``
compares the two.  The words come by length, from the level order of
``walk_oracle``.
"""

from walk_oracle import group_walk


def coset_counts(G1, g, G2, depth):
    """Distinct cosets G2 * (g * w) over words w of G1, cumulative by length."""
    seen = {G2.coset_key(g)[1]}
    counts = [1] * (depth + 1)
    for length, _, h in group_walk(G1, depth):
        seen.add(G2.coset_key(g * h)[1])
        counts[length] = len(seen)
    return tuple(counts)
