"""Reference envelope samples, one branch-and-bound search per sample.

This is the loop that ``SchottkyGroup.envelope_samples`` replaced for
nonempty words: each sample's t is read from ``delta_to_limit`` at cover
depth n + 1 for infinity and n + 2 for a boundary base point.  The
library now reads t from the word's own subtree; ``test_envelope.py``
compares the two.
"""

from schottky.proj import INFINITY


def envelope_samples(G, depth):
    """(word length, t) pairs in the order the library lists them."""
    bases = G._envelope_base_points()

    def t_value(x, length, interior):
        cover_depth = length + (1 if interior else 2)
        return -G.delta_to_limit(x, cover_depth).upper_exponent

    samples = [(0, t_value(x, 0, x is INFINITY)) for x in bases]
    for length, _, h in G.iter_words_with_matrices(depth):
        for x in bases:
            samples.append((length, t_value(h.apply(x), length, x is INFINITY)))
    return samples
