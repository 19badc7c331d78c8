"""Reference distance to the limit set: a best-first cover search.

This is the branch-and-bound search that ``SchottkyGroup.delta_to_limit``
ran before it became one descent down the chain of cover disks that
contain the point.  It expands word-tree nodes in order of their
point-to-disk bound until no open node can beat the best center distance
found at the depth.  It builds each node itself, by the rule of
``cover_oracle.closed_word_disk`` (the closure of the word's own open
disk), so it shares no node builder with the descent it checks.
``envelope_oracle.py`` and the tests compare the library with it.
"""

import heapq

from cover_oracle import closed_word_disk
from schottky.disks import point_to_disk_delta
from schottky.errors import PointNearLimitSet
from schottky.groups import DeltaGammaBound
from schottky.padic import NEG_INF, POS_INF
from schottky.proj import Homography, delta
from schottky.words import Word


def delta_to_limit(G, x, depth):
    """The library's ``delta_to_limit(x, depth)``, by best-first search.

    Bounds only grow from a word to its children and the cover disks of
    one depth are disjoint, so the result, and the word named when x lies
    in a cover disk, do not depend on how ties are popped.
    """
    heap = []

    def push_children(letters, h):
        for l in G.letters():
            if letters and l == -letters[-1]:
                continue
            child = letters + (l,)
            h2 = h * G.generator(l)
            d2 = closed_word_disk(G, child, h2)
            heapq.heappush(heap, (point_to_disk_delta(x, d2), child, h2, d2))

    push_children((), Homography.identity())
    lower = None
    upper = POS_INF
    while heap and (lower is None or heap[0][0] < upper):
        b, letters, h, disk = heapq.heappop(heap)
        if len(letters) == depth:
            if b == NEG_INF:
                raise PointNearLimitSet(
                    f"{x} lies in the depth-{depth} cover disk of {Word(letters)}"
                )
            if lower is None:
                lower = b
            d = delta(x, disk.center_point(), G.ctx)
            if d < upper:
                upper = d
            continue
        push_children(letters, h)
    return DeltaGammaBound(lower, upper, depth)
