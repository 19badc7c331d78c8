"""Reference reduction, coset key and membership.

These are the bodies that ``SchottkyGroup.reduce_point`` and
``SchottkyGroup.coset_key`` replaced: the reduction composes the tiling
word's homography m once the point has arrived in the fundamental
domain, and the coset key inverts it, m.inverse() * g.  The library now
composes nothing in the reduction and builds m^-1 * g from the
pull-back's inverse steps; ``test_groups.py`` compares the two.  The
pull-back loop ``G._pull_back`` is shared.
"""

import operator

from schottky.errors import InvalidArgument, MaxStepsExceeded
from schottky.groups import Membership
from schottky.proj import INFINITY, Homography
from schottky.words import Word


def reduce_with_matrix(G, x, max_steps):
    """(word, y, homography of the word) with x = word(y), y in the domain."""
    max_steps = operator.index(max_steps)
    if max_steps < 0:
        raise InvalidArgument("max_steps must be >= 0")
    G.ensure_verified()
    letters, y, letter = G._pull_back(x, max_steps)
    if letter is not None:
        raise MaxStepsExceeded(
            f"{x} did not reach the fundamental domain in {max_steps} steps"
        )
    h = Homography.identity()
    for letter in letters:
        h = h * G._steps[letter]
    return Word(letters), y, h


def coset_key(G, g, max_steps=96):
    """(m, key): the tiling word of g(infinity) and the key m^-1 * g, with
    the entrywise-smaller of key and generator(l) * key on a boundary
    landing at letter l."""
    word, t, m = reduce_with_matrix(G, g.apply(INFINITY), max_steps)
    key = m.inverse() * g
    letter = G.boundary_letter(t)
    if letter is not None:
        alt = G.generator(letter) * key
        if alt.entries < key.entries:
            key = alt
    return word, key


def is_member(G, g, max_steps=64):
    word, key = coset_key(G, g, max_steps)
    if key.is_identity:
        return Membership(True, word)
    return Membership(False, None)
