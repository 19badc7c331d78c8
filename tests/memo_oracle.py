"""Reference envelope samples: the descent over a global cover memo.

This is how ``SchottkyGroup.envelope_samples`` read its samples before
the path store.  Every cover node is memoized by its letters for the
whole call, and each is built from the word's own homography: the closed
disk by ``cover_oracle.closed_word_disk`` and the open disk as the image
of P^1 - K_-l, where l is the last letter.  The identity's samples
descend from the identity, as ``delta_to_limit`` does for a point of the
fundamental domain, and read t at the center of the disk found; every
word's samples descend from the word when its closed cover disk is a
chordal ball, and from the identity otherwise.  ``test_envelope.py``
compares the library with it.
"""

from cover_oracle import closed_word_disk
from schottky.disks import image, point_to_disk_delta
from schottky.errors import PointNearLimitSet
from schottky.padic import NEG_INF, POS_INF
from schottky.proj import INFINITY, Homography, delta


def cover_node(G, letters, h):
    """(h, closed, open) word disks of the nonempty word with these letters
    and its own homography h."""
    l = letters[-1]
    K = (G.B[l - 1] if l > 0 else G.C[-l - 1]).closure()
    return h, closed_word_disk(G, letters, h), image(h, K.complement())


def envelope_samples(G, depth):
    """(word length, t) pairs in the order the library lists them."""
    memo = {}
    identity = Homography.identity()

    def node(letters, h):
        if letters not in memo:
            memo[letters] = cover_node(G, letters, h)
        return memo[letters]

    def descend(x, cover_depth, letters, h):
        lower, nearest = POS_INF, None
        while len(letters) < cover_depth:
            inside = None
            for l in G.letters():
                if letters and l == -letters[-1]:
                    continue
                child = letters + (l,)
                child_node = node(child, h * G.generator(l))
                bound = point_to_disk_delta(x, child_node[1])
                if bound == NEG_INF:
                    inside = child, child_node
                elif bound < lower:
                    lower, nearest = bound, child_node[1]
            if inside is None:
                return lower, nearest
            letters, (h, disk, open_disk) = inside
            if len(letters) < cover_depth and disk.in_residue_disk:
                bound = point_to_disk_delta(x, open_disk)
                if bound != NEG_INF:
                    return bound, open_disk
        raise PointNearLimitSet(f"{x} lies in a depth-{cover_depth} cover disk")

    bases = G._envelope_base_points()
    below = [1 if x is INFINITY else 2 for x in bases]
    samples = []
    for x, n in zip(bases, below):
        _, disk = descend(x, n, (), identity)
        samples.append((0, -delta(x, disk.center_point(), G.ctx)))
    for length, word, h in G.iter_words_with_matrices(depth):
        letters = word.letters
        start = (letters, h) if node(letters, h)[1].in_residue_disk else ((), identity)
        for x, n in zip(bases, below):
            bound, _ = descend(h.apply(x), length + n, *start)
            samples.append((length, -bound))
    return samples
