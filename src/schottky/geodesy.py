"""Flat coordinate specifications, pair stabilizers, and the bounded
double-coset commensurability probe.

The probe is one-sided evidence: coset counts that stop growing over the
trailing window report Stabilized, anything else GrowingNoEvidence.  A
growing scan never certifies non-commensurability; the underlying
criterion quantifies over the whole group.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from . import groups
from ._record import record
from .errors import CyclicLinks, InvalidArgument
from .groups import SchottkyGroup, _refuse_long_walk
from .proj import Homography, ProjPoint
from .words import Word


@record
class Free:
    pass


@record
class Fixed:
    point: ProjPoint


@record
class Linked:
    source: int
    map: Homography


CoordSpec = Union[Free, Fixed, Linked]


def _check_link_sources(coords: Tuple[CoordSpec, ...]):
    """InvalidArgument unless every link's source is an index of coords."""
    n = len(coords)
    for c in coords:
        if isinstance(c, Linked) and not (type(c.source) is int and 0 <= c.source < n):
            raise InvalidArgument(f"link source {c.source!r} is not in 0..{n - 1}")


@record
class FlatSpec:
    coords: Tuple[CoordSpec, ...]
    groups: Tuple[SchottkyGroup, ...]

    def __init__(self, coords, groups):
        coords, groups = tuple(coords), tuple(groups)
        if len(coords) != len(groups):
            raise ValueError("need one group per coordinate")
        _check_link_sources(coords)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "groups", groups)

    @property
    def n(self) -> int:
        return len(self.coords)


@record
class NormalizedFlat:
    """Every link rewired directly to its free root; dimension = #free."""

    coords: Tuple[CoordSpec, ...]
    groups: Tuple[SchottkyGroup, ...]
    free_indices: Tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.free_indices)


def _resolve(coords: Tuple[CoordSpec, ...]) -> List[Tuple[int, Homography]]:
    """(j, h) for each coordinate i: the index j of the Free or Fixed
    coordinate its link chain ends at, and the composed map with
    z_i = h(z_j).  A link cycle raises CyclicLinks."""
    roots = []
    for i in range(len(coords)):
        trail = []
        j, h = i, Homography.identity()
        while isinstance(coords[j], Linked):
            if j in trail:
                raise CyclicLinks(f"coordinates {trail} form a link cycle")
            trail.append(j)
            h = h * coords[j].map
            j = coords[j].source
        roots.append((j, h))
    return roots


def normalize_flat(spec: FlatSpec) -> NormalizedFlat:
    """Compose link chains down to their roots.

    Chains ending at a fixed coordinate fold into fixed points; cycles
    raise CyclicLinks.  Fixed values are checked to reduce into the
    fundamental domain, certifying they avoid the limit set.
    """
    resolved: List[CoordSpec] = []
    for i, (j, h) in enumerate(_resolve(spec.coords)):
        root = spec.coords[j]
        if i == j:
            resolved.append(root)
        elif isinstance(root, Fixed):
            resolved.append(Fixed(h.apply(root.point)))
        else:
            resolved.append(Linked(j, h))

    for i, c in enumerate(resolved):
        if isinstance(c, Fixed):
            spec.groups[i].reduce_point(c.point)  # raises near the limit set
    free = tuple(i for i, c in enumerate(resolved) if isinstance(c, Free))
    return NormalizedFlat(tuple(resolved), spec.groups, free)


def apply_flat(coords: Tuple[CoordSpec, ...], free_values) -> Tuple[ProjPoint, ...]:
    """Fill all coordinates from values at the free ones: each is its
    root's value, the free value or the fixed point, under the composed
    link map.  A link source out of range raises InvalidArgument, and a
    link cycle CyclicLinks."""
    _check_link_sources(coords)
    values = dict(free_values)
    return tuple(
        h.apply(values[j] if isinstance(coords[j], Free) else coords[j].point)
        for j, h in _resolve(coords)
    )


@record
class StabilizerResult:
    word: Optional[Word]
    multiplier: Optional[Fraction]


def pair_stabilizer(G: SchottkyGroup, pair, depth: int) -> StabilizerResult:
    """The shortest word fixing both points of the pair, the first of its
    length in lexicographic order.

    Stab(x) is trivial or cyclic.  Two hyperbolic elements with a common
    fixed point commute: conjugated to fix infinity they are affine, their
    commutator is a translation fixing that point, and a Schottky group
    has no parabolic elements.  Commuting elements of a free group lie in
    one cyclic group <gamma>, and with gamma = u c u^-1, c cyclically
    reduced, |gamma^k| = 2|u| + |k||c| > |gamma| for |k| >= 2.  So the
    shortest words fixing x are gamma and gamma^-1, and they fix y or none
    does.

    gamma is read off the pull-back z_0 = x, z_k = generator(-l_k)(z_{k-1})
    of ``_pull_back``.  A z in the fundamental domain is off the limit set,
    which lies in the open domain disks and is G-invariant, so no element
    fixes x.  At the first repeat z_j = z_i, i < j, with u = l_1..l_i and
    c = l_{i+1}..l_j, c fixes z_i and gamma = u c u^-1 fixes x; gamma is
    reduced (the pull-back letters are, and l_i != l_j as the repeat is
    the first), c is primitive, and gamma generates Stab(x), of length
    i + j.  A stabilizer u c u^-1 makes the pull-back repeat by step
    |u| + |c|, so depth steps, one word product and no walk decide it.

    The multiplier is the eigenvalue ratio (tr + s) / (tr - s) of h, the
    word's matrix, of archimedean size >= 1: s**2 = tr^2 - 4 det is a
    rational square, as h fixes the distinct rational points x and y, and
    (tr + s)(tr - s) = 4 det != 0.  h is hyperbolic, as a group is verified
    when it is built, so the p-adic size is not 1.  A depth with more than
    MAX_WALK_WORDS words up to it is refused with InvalidArgument, as a
    walk of the word tree is: that keeps every CLI answer, and it bounds
    the pull-back of a point whose height grows.
    """
    x, y = pair
    if x == y:
        raise InvalidArgument("need two distinct points")
    if depth < 1:
        raise InvalidArgument("depth must be >= 1")
    _refuse_long_walk(G.rank, depth)
    letters, z, first = [], x, {x: 0}
    for _ in range(depth):
        step, z, letter = G._pull_back(z, 1)
        letters += step
        if first.setdefault(z, len(letters)) < len(letters) or letter is None:
            break  # a repeat, or z is in the fundamental domain
    u = letters[: first[z]]  # every letter when z is new, and gamma = 1
    gamma = Word.reduced(letters + [-l for l in reversed(u)])
    word = min(gamma, gamma.inverse())
    h = G.word_homography(word)
    if not word or len(word) > depth or h.apply(y) != y:
        return StabilizerResult(None, None)
    s = math.isqrt(h.trace**2 - 4 * h.det)
    lam = Fraction(h.trace + s, h.trace - s)
    return StabilizerResult(word, lam if abs(lam) >= 1 else 1 / lam)


class Verdict(enum.Enum):
    STABILIZED = "Stabilized"
    GROWING_NO_EVIDENCE = "GrowingNoEvidence"


@record
class CommensurabilityReport:
    depth: int
    coset_counts: Tuple[int, ...]  # forward scan, index = word length 0..depth
    reverse_counts: Tuple[int, ...]
    window: int
    forward_verdict: Verdict
    reverse_verdict: Verdict

    @property
    def verdict(self) -> Verdict:
        if (
            self.forward_verdict is Verdict.STABILIZED
            and self.reverse_verdict is Verdict.STABILIZED
        ):
            return Verdict.STABILIZED
        return Verdict.GROWING_NO_EVIDENCE

    def to_dict(self):
        return {
            "depth": self.depth,
            "coset_counts": list(self.coset_counts),
            "reverse_counts": list(self.reverse_counts),
            "window": self.window,
            "forward_verdict": self.forward_verdict.value,
            "reverse_verdict": self.reverse_verdict.value,
            "verdict": self.verdict.value,
        }


def _coset_counts(
    G1: SchottkyGroup, g: Homography, G2: SchottkyGroup, depth: int
) -> Tuple[int, ...]:
    """Distinct cosets G2 * (g * w) over words w of G1, cumulative by length,
    told apart exactly by their coset keys in G2.

    The search runs level by level over states (key, last letter), not
    over words.  A key is m^-1 * g * w with m in G2 (times a generator of
    G2 after a tie-break), so G2 * (g * w * l) = G2 * (key * l): a child's
    key is coset_key(key * step[l]) and depends only on the state, and its
    letters l are the word tree's child rule ``G1._after[last]``.  A state
    first reached at length n yields at length n + j every key that a later
    copy of it, reached at n' >= n, yields at n' + j >= n + j.  So
    expanding each state once, at its first length, reaches by length n
    exactly the keys of the words of length at most n, and the cumulative
    counts equal the word-by-word scan's.  Once no new state appears, the
    counts are constant and the rest are filled in.  More than
    MAX_WALK_WORDS states are refused with InvalidArgument.
    """
    root = G2.coset_key(g)[1]
    keys = {root}
    visited = {(root, 0)}
    frontier = [(root, 0)]
    counts = [1]
    for _ in range(depth):
        level = []
        for key, last in frontier:
            for l in G1._after[last]:
                child = (G2.coset_key(key * G1._steps[l])[1], l)
                if child not in visited:
                    if len(visited) >= groups.MAX_WALK_WORDS:
                        raise InvalidArgument(
                            f"a coset search to depth {depth} visits more than"
                            f" {groups.MAX_WALK_WORDS} states; lower depth"
                        )
                    visited.add(child)
                    keys.add(child[0])
                    level.append(child)
        counts.append(len(keys))
        if not level:
            break
        frontier = level
    counts += counts[-1:] * (depth + 1 - len(counts))
    return tuple(counts)


def _window_verdict(counts: Tuple[int, ...], window: int) -> Verdict:
    depth = len(counts) - 1
    lo = max(0, depth - window)
    if counts[lo] == counts[depth]:
        return Verdict.STABILIZED
    return Verdict.GROWING_NO_EVIDENCE


def double_coset_scan(
    G1: SchottkyGroup,
    g: Homography,
    G2: SchottkyGroup,
    depth: int,
    window: Optional[int] = None,
) -> CommensurabilityReport:
    """Probe finiteness of both orbit sets of the double coset of g.

    Scans words of G1 against cosets of G2 (and symmetrically for the
    inverse); Stabilized means the cumulative coset counts are constant
    over the trailing window of at least one length (default: the last
    third of depths).  A depth past MAX_WALK_WORDS is refused before any
    key: each level of an open search adds a state, so it would pass the
    state cap, and a closed search would only be padded to the depth.
    """
    if depth < 1:
        raise InvalidArgument("depth must be >= 1")
    if depth > groups.MAX_WALK_WORDS:
        raise InvalidArgument(f"depth must be <= {groups.MAX_WALK_WORDS}")
    if window is None:
        window = math.ceil(depth / 3)
    if window < 1:
        raise InvalidArgument("window must be >= 1")
    forward = _coset_counts(G1, g, G2, depth)
    reverse = _coset_counts(G2, g.inverse(), G1, depth)
    return CommensurabilityReport(
        depth,
        forward,
        reverse,
        window,
        _window_verdict(forward, window),
        _window_verdict(reverse, window),
    )


@record
class GeodesicReport:
    depth: int
    pairs: Tuple[Tuple[int, int, CommensurabilityReport], ...]
    consistent: bool

    def to_dict(self):
        return {
            "depth": self.depth,
            "consistent": self.consistent,
            "pairs": [
                {"source": i, "target": j, "report": r.to_dict()} for i, j, r in self.pairs
            ],
        }


def geodesic_report(spec: FlatSpec, depth: int, window: Optional[int] = None) -> GeodesicReport:
    """Run the double-coset probe on every link of a flat specification.

    The flat is geodesic-consistent at this depth only if every linked
    pair stabilizes; a growing pair is reported as no-evidence, never as
    a disproof.
    """
    normal = normalize_flat(spec)
    pairs = []
    consistent = True
    for j, c in enumerate(normal.coords):
        if not isinstance(c, Linked):
            continue
        i = c.source
        report = double_coset_scan(normal.groups[i], c.map, normal.groups[j], depth, window)
        pairs.append((i, j, report))
        consistent = consistent and report.verdict is Verdict.STABILIZED
    return GeodesicReport(depth, tuple(pairs), consistent)
