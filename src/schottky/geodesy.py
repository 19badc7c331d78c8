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
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .errors import CyclicLinks, InvalidArgument, SchottkyError
from .groups import SchottkyGroup
from .padic import valuation
from .proj import Homography, ProjPoint
from .words import Word


@dataclass(frozen=True)
class Free:
    pass


@dataclass(frozen=True)
class Fixed:
    point: ProjPoint


@dataclass(frozen=True)
class Linked:
    source: int
    map: Homography


CoordSpec = Union[Free, Fixed, Linked]


@dataclass(frozen=True)
class FlatSpec:
    coords: Tuple[CoordSpec, ...]
    groups: Tuple[SchottkyGroup, ...]

    def __init__(self, coords, groups):
        coords, groups = tuple(coords), tuple(groups)
        if len(coords) != len(groups):
            raise ValueError("need one group per coordinate")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "groups", groups)

    @property
    def n(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class NormalizedFlat:
    """Every link rewired directly to its free root; dimension = #free."""

    coords: Tuple[CoordSpec, ...]
    groups: Tuple[SchottkyGroup, ...]
    free_indices: Tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.free_indices)


def normalize_flat(spec: FlatSpec) -> NormalizedFlat:
    """Compose link chains down to their roots.

    Chains ending at a fixed coordinate fold into fixed points; cycles
    raise CyclicLinks.  Fixed values are checked to reduce into the
    fundamental domain, certifying they avoid the limit set.
    """
    n = spec.n
    resolved: List[Optional[CoordSpec]] = [None] * n
    for i in range(n):
        trail = []
        j, h = i, Homography.identity()
        while isinstance(spec.coords[j], Linked):
            if j in trail:
                raise CyclicLinks(f"coordinates {trail} form a link cycle")
            trail.append(j)
            h = h * spec.coords[j].map
            j = spec.coords[j].source
        root = spec.coords[j]
        if i == j:
            resolved[i] = root
        elif isinstance(root, Fixed):
            resolved[i] = Fixed(h.apply(root.point))
        else:
            resolved[i] = Linked(j, h)

    for i, c in enumerate(resolved):
        if isinstance(c, Fixed):
            spec.groups[i].reduce_point(c.point)  # raises near the limit set
    free = tuple(i for i, c in enumerate(resolved) if isinstance(c, Free))
    return NormalizedFlat(tuple(resolved), spec.groups, free)


def apply_flat(coords: Tuple[CoordSpec, ...], free_values) -> Tuple[ProjPoint, ...]:
    """Fill all coordinates from values at the free ones."""
    out: List[Optional[ProjPoint]] = [None] * len(coords)
    values = dict(free_values)
    for i, c in enumerate(coords):
        if isinstance(c, Free):
            out[i] = values[i]
        elif isinstance(c, Fixed):
            out[i] = c.point

    changed = True
    while changed:
        changed = False
        for i, c in enumerate(coords):
            if out[i] is None and isinstance(c, Linked) and out[c.source] is not None:
                out[i] = c.map.apply(out[c.source])
                changed = True
    if any(v is None for v in out):
        raise ValueError("unresolvable coordinates; normalize the spec first")
    return tuple(out)


@dataclass(frozen=True)
class StabilizerResult:
    word: Optional[Word]
    multiplier: Optional[Fraction]


def pair_stabilizer(G: SchottkyGroup, pair, depth: int) -> StabilizerResult:
    """Search words up to the depth for elements fixing the pair.

    Conjugating a find so the pair becomes (0, inf) turns it into
    z -> lambda z; the element with multiplier slowest p-adically
    (|v_p(lambda)| minimal) is returned, with lambda normalized to the
    orientation of archimedean size >= 1.  Its p-adic absolute value is
    never 1: nontrivial stabilizing elements are hyperbolic.
    """
    G.ensure_verified()
    x, y = pair
    if x == y:
        raise InvalidArgument("need two distinct points")
    if depth < 1:
        raise InvalidArgument("depth must be >= 1")
    conj = _pair_to_zero_infinity(x, y)
    conj_inv = conj.inverse()
    best = None
    order = 0
    for _, word, h in G.iter_words_with_matrices(depth):
        if not (h.apply(x) == x and h.apply(y) == y):
            continue
        d = conj * h * conj_inv
        if d.b != 0 or d.c != 0:  # setwise swap; impossible without torsion
            continue
        lam = Fraction(d.a, d.d)
        v = valuation(lam, G.p)
        if v == 0:
            raise SchottkyError(f"stabilizer {word} has |multiplier| = 1; group is not Schottky")
        key = (abs(v), order)
        if best is None or key < best[0]:
            best = (key, word, lam if abs(lam) >= 1 else 1 / lam)
        order += 1
    if best is None:
        return StabilizerResult(None, None)
    return StabilizerResult(best[1], best[2])


def _pair_to_zero_infinity(x: ProjPoint, y: ProjPoint) -> Homography:
    if y.is_infinity:
        return Homography(1, -x.value, 0, 1)
    if x.is_infinity:
        return Homography(0, 1, 1, -y.value)
    return Homography(1, -x.value, 1, -y.value)


class Verdict(enum.Enum):
    STABILIZED = "Stabilized"
    GROWING_NO_EVIDENCE = "GrowingNoEvidence"


@dataclass(frozen=True)
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
    told apart exactly by their coset keys in G2."""
    seen = {G2.coset_key(g)[1]}
    counts = [1] * (depth + 1)
    for length, _, h in G1._walk(depth):
        seen.add(G2.coset_key(g * h)[1])
        counts[length] = len(seen)
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
    third of depths).
    """
    G1.ensure_verified()
    G2.ensure_verified()
    if depth < 1:
        raise InvalidArgument("depth must be >= 1")
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


@dataclass(frozen=True)
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
