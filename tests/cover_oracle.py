"""Reference limit cover: each leaf disk closes the leaf word's own disk.

This is the rule ``SchottkyGroup.limit_cover`` followed before it imaged
the closed domain disks by the parent word: walk the word tree to the
depth and close the image of P^1 - K_-l under the homography of the whole
word w * l, where K_-l is the closed domain disk of the inverse of the
last letter.  ``_cover_node`` still builds its disks this way, and
``search_oracle.py`` builds its nodes with ``closed_word_disk``.
``test_groups.py`` compares the library with it.
"""

from schottky.disks import image
from schottky.groups import LimitCover
from schottky.words import Word


def closed_word_disk(G, letters, h):
    """The closed word disk of the nonempty word with these letters and
    homography h: the closure of h(P^1 - K_-l) for the last letter l."""
    l = letters[-1]
    # generator l maps the complement of K_-l onto the open disk of l
    K = (G.B[l - 1] if l > 0 else G.C[-l - 1]).closure()
    return image(h, K.complement()).closure()


def leaves(G, depth):
    """(letters, homography, closed word disk) for each word of the depth,
    in the order of ``G._walk``."""
    for length, letters, h in G._walk(depth):
        if length == depth:
            yield letters, h, closed_word_disk(G, letters, h)


def limit_cover(G, depth):
    """The library's ``G.limit_cover(depth)``."""
    entries = tuple((Word(letters), D) for letters, _, D in leaves(G, depth))
    return LimitCover(depth, entries, max(D.radius_exp for _, D in entries))
