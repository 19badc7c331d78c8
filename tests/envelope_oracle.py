"""Reference envelope samples, one best-first search per sample.

Each sample's t is read from ``search_oracle.delta_to_limit`` at cover
depth n + 1 for infinity and n + 2 for a boundary base point.  The
library reads t from one descent per sample, started at the word when
its closed cover disk is a chordal ball; ``test_envelope.py`` compares
the two.
"""

import search_oracle
from schottky.proj import INFINITY


def envelope_samples(G, depth):
    """(word length, t) pairs in the order the library lists them."""
    bases = G._envelope_base_points()

    def t_value(x, length, interior):
        cover_depth = length + (1 if interior else 2)
        return -search_oracle.delta_to_limit(G, x, cover_depth).upper_exponent

    samples = [(0, t_value(x, 0, x is INFINITY)) for x in bases]
    for length, _, h in G.iter_words_with_matrices(depth):
        for x in bases:
            samples.append((length, t_value(h.apply(x), length, x is INFINITY)))
    return samples
