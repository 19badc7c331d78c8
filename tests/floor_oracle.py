"""Reference distance floor of a region over a limit cover.

This is ``SchottkyGroup._delta_floor`` as it was while the disk distances
were defined for disjoint disks only: it measures a hole's complement when
the hole contains the cover disk, and a constraint when it misses the
cover disk, and finds no bound when neither happens.  ``test_groups.py``
compares the library with it.
"""

from schottky.disks import contains_disk, disjoint, min_delta_disjoint_disks


def delta_floor(G, region, cover_depth):
    """The library's ``G._delta_floor(region, cover_depth)``."""
    constraints, holes = region._normalized()
    bounds = []
    for _, D in G.limit_cover(cover_depth).entries:
        candidates = []
        for hole in holes:
            if contains_disk(hole, D):
                candidates.append(min_delta_disjoint_disks(hole.complement(), D))
        for K in constraints:
            if disjoint(K, D):
                candidates.append(min_delta_disjoint_disks(K, D))
        if not candidates:
            return None
        bounds.append(max(candidates))
    return min(bounds)
