"""Schottky groups presented by generators with good fundamental-domain disks.

A group comes with bounded open disks B_1..B_g, C_1..C_g; verification
checks, exactly, that the closed disks are pairwise disjoint and that
each generator maps the complement of B_i onto the closure of C_i (and
the complement of the closure onto C_i itself).  All further operations
require a verified group.

The word disk B(w) attached to a nonempty reduced word is the image of
the complement of B_i^+ or C_i^+ (by the sign of the last letter) under
the word's homography; w * infinity always lies in B(w), chains of these
disks shrink onto limit points, and their closures at a fixed length
cover the limit set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
import math
import operator
from typing import Iterator, List, Optional, Sequence, Tuple

from .disks import (
    Affinoid,
    Disk,
    contains_disk,
    disjoint,
    image,
    min_delta_disjoint_disks,
    point_to_disk_delta,
)
from .errors import (
    AxiomViolation,
    DepthExceeded,
    InvalidArgument,
    MaxStepsExceeded,
    PointInsideDisk,
    PointNearLimitSet,
)
from .padic import NEG_INF, POS_INF, Exponent, PrimeContext, valuation
from .proj import INFINITY, Homography, ProjPoint, delta
from .words import Word, alphabet, extensions, reduced_words, walk

_COVER_CACHE_CAP = 1 << 15


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
    checks: Tuple[AxiomCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> Tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_dict(self):
        return {
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


@dataclass(frozen=True)
class LimitCover:
    """Closed word disks at a fixed word length; they cover the limit set."""

    depth: int
    entries: Tuple[Tuple[Word, Disk], ...]
    max_radius_exponent: Exponent


@dataclass(frozen=True)
class DeltaGammaBound:
    """A certified interval around the chordal distance to the limit set."""

    lower_exponent: Exponent
    upper_exponent: Exponent
    depth: int


@dataclass(frozen=True)
class Membership:
    member: bool
    word: Optional[Word]

    def __bool__(self):
        return self.member


@dataclass(frozen=True)
class ProperFit:
    """Envelope constants (a, b) with length <= a - b*log_p(delta) on all
    enumerated samples; exact rationals, empirical by construction."""

    a: Fraction
    b: Fraction
    depth: int
    sample_count: int


@dataclass(frozen=True)
class TranslateScan:
    """Words w up to the depth with w(A) meeting A2, plus an empirical
    completeness certificate from the envelope constants."""

    words: Tuple[Word, ...]
    depth: int
    certified: bool
    length_bound: Optional[Fraction]
    delta_floor_exponent: Optional[Exponent]


class SchottkyGroup:
    """Generators plus candidate fundamental-domain disks (B_i, C_i)."""

    def __init__(
        self,
        ctx: PrimeContext,
        generators: Sequence[Homography],
        B: Sequence[Disk],
        C: Sequence[Disk],
    ):
        generators = tuple(generators)
        B, C = tuple(B), tuple(C)
        if not generators:
            raise ValueError("need at least one generator")
        if not (len(generators) == len(B) == len(C)):
            raise ValueError("generators, B and C must have equal lengths")
        for D in B + C:
            if not (D.bounded and D.is_open and D.p == ctx.p):
                raise ValueError("B_i and C_i must be bounded open disks at the group prime")
        for g in generators:
            if g.is_identity:
                raise ValueError("identity is not a valid generator")
        self.ctx = ctx
        self.generators = generators
        self.B = B
        self.C = C
        self._report: Optional[AxiomReport] = None
        # letters -> (homography, closed word disk): the one word-disk memo
        self._cover_cache = {}
        # always empty; perfbench/tracer.py still reports its size
        self._bdisk_cache = {}
        # letter -> generator or inverse, in alphabet order: the step of every walk
        self._steps = {}
        for i, g in enumerate(generators, 1):
            self._steps[i], self._steps[-i] = g, g.inverse()
        self._after = extensions(self._steps)
        # (letter, open disk, closed disk): B_1..B_g as -1..-g, then C_1..C_g
        # as 1..g; generator(l) maps P1 minus closed disk -l onto open disk l
        self._domain = tuple((-i, D, D.closure()) for i, D in enumerate(B, 1))
        self._domain += tuple((i, D, D.closure()) for i, D in enumerate(C, 1))
        self._base_complements = {-l: K.complement() for l, _, K in self._domain}

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def p(self) -> int:
        return self.ctx.p

    def letters(self) -> Tuple[int, ...]:
        return alphabet(self.rank)

    def generator(self, letter: int) -> Homography:
        return self._steps[letter]

    # -- verification ---------------------------------------------------

    def verify(self) -> AxiomReport:
        """Check the good-domain axioms exactly; the report is cached."""
        if self._report is not None:
            return self._report
        checks: List[AxiomCheck] = []
        closed = [(f"B{-l}" if l < 0 else f"C{l}", K) for l, _, K in self._domain]
        for i in range(len(closed)):
            for j in range(i + 1, len(closed)):
                (n1, D1), (n2, D2) = closed[i], closed[j]
                ok = disjoint(D1, D2)
                checks.append(
                    AxiomCheck(
                        f"disjoint:{n1}+,{n2}+",
                        ok,
                        "" if ok else f"{D1} meets {D2}",
                    )
                )
        for g, B, (l, C, K) in zip(self.generators, self.B, self._domain[self.rank :]):
            got_closed = image(g, B.complement())
            ok = got_closed == K
            checks.append(
                AxiomCheck(
                    f"image:g{l}(P1-B{l})=C{l}+",
                    ok,
                    "" if ok else f"got {got_closed}, want {K}",
                )
            )
            got_open = image(g, self._base_complements[l])
            ok = got_open == C
            checks.append(
                AxiomCheck(
                    f"image:g{l}(P1-B{l}+)=C{l}",
                    ok,
                    "" if ok else f"got {got_open}, want {C}",
                )
            )
        self._report = AxiomReport(tuple(checks))
        return self._report

    def ensure_verified(self):
        report = self.verify()
        if not report.all_passed:
            first = report.failures[0]
            raise AxiomViolation(f"{first.name}: {first.detail}")

    # -- words ----------------------------------------------------------

    def enumerate_words(self, length: int) -> Iterator[Word]:
        return reduced_words(self.rank, length)

    def word_homography(self, word: Word) -> Homography:
        h = Homography.identity()
        for letter in word:
            h = h * self.generator(letter)
        return h

    def _walk(self, max_length: int):
        """``iter_words_with_matrices`` over letter tuples, building no words."""
        return walk([((l,), g) for l, g in self._steps.items()], self._steps, max_length)

    def iter_words_with_matrices(self, max_length: int):
        """(length, word, homography) for all reduced words of length
        1..max_length, by length then lexicographically, with incremental
        products."""
        for length, letters, h in self._walk(max_length):
            yield length, Word(letters), h

    # -- word disks and covers -------------------------------------------

    def _word_disk(self, h: Homography, last: int) -> Disk:
        """The open word disk of a word with homography h and last letter."""
        return image(h, self._base_complements[last])

    def b_disk(self, word: Word) -> Disk:
        """The bounded open disk attached to a nonempty reduced word."""
        self.ensure_verified()
        if not word:
            raise InvalidArgument("the identity has no word disk")
        return self._word_disk(self.word_homography(word), word.letters[-1])

    def limit_cover(self, depth: int) -> LimitCover:
        self.ensure_verified()
        if depth < 1:
            raise InvalidArgument("depth must be >= 1")
        entries = []
        max_exp = NEG_INF
        for length, letters, h in self._walk(depth):
            if length < depth:
                continue
            disk = self._word_disk(h, letters[-1]).closure()
            entries.append((Word(letters), disk))
            if disk.radius_exp > max_exp:
                max_exp = disk.radius_exp
        return LimitCover(depth, tuple(entries), max_exp)

    def _cover_node(self, letters, parent_h: Optional[Homography]):
        """Compute and memoize (homography, closed word disk) for a word
        whose parent word has the homography parent_h (None for a letter)."""
        step = self._steps[letters[-1]]
        h = step if parent_h is None else parent_h * step
        node = (h, self._word_disk(h, letters[-1]).closure())
        if len(self._cover_cache) >= _COVER_CACHE_CAP:
            self._cover_cache.clear()  # values are deterministic, recompute freely
        self._cover_cache[letters] = node
        return node

    # -- distance to the limit set ----------------------------------------

    def delta_to_limit(self, x: ProjPoint, depth: int) -> DeltaGammaBound:
        """Certified interval for the chordal distance from x to the limit
        set, from the cover at the given depth.

        The lower bound is the least point-to-disk distance over the cover;
        the upper bound is the least distance to a cover-disk center, valid
        because every cover disk contains limit points and canonical
        centers minimize |center| within their disk.  Both are computed by
        exact branch-and-bound over the word tree.

        Bounds only grow from a word to its children and the cover disks
        of one depth are disjoint, so the result, and the word named when
        x lies in a cover disk, do not depend on how ties are popped.
        """
        self.ensure_verified()
        depth = operator.index(depth)
        if depth < 1:
            raise InvalidArgument("depth must be >= 1")

        def bound_of(disk):
            try:
                return point_to_disk_delta(x, disk, self.ctx)
            except PointInsideDisk:
                return NEG_INF

        cache = self._cover_cache
        heap = []

        def push_children(letters, h):
            for l in self._after[letters[-1] if letters else 0]:
                child = letters + (l,)
                h2, d2 = cache.get(child) or self._cover_node(child, h)
                heapq.heappush(heap, (bound_of(d2), child, h2, d2))

        push_children((), None)
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
                d = delta(x, disk.center_point(), self.ctx)
                if d < upper:
                    upper = d
                continue
            push_children(letters, h)
        return DeltaGammaBound(lower, upper, depth)

    # -- reduction and membership ------------------------------------------

    def _containing_letter(self, x: ProjPoint) -> Optional[int]:
        for l, D, _ in self._domain:
            if D.contains(x):
                return l
        return None

    def _reduce_with_matrix(
        self, x: ProjPoint, max_steps: int
    ) -> Tuple[Word, ProjPoint, Homography]:
        """Reduce x in at most max_steps generator steps; a domain check
        is not a step, so a point already in the domain needs none."""
        max_steps = operator.index(max_steps)
        if max_steps < 0:
            raise InvalidArgument("max_steps must be >= 0")
        self.ensure_verified()
        letters = []
        h = Homography.identity()
        y = x
        while True:
            letter = self._containing_letter(y)
            if letter is None:
                return Word(letters), y, h
            if len(letters) == max_steps:
                raise MaxStepsExceeded(
                    f"{x} did not reach the fundamental domain in {max_steps} steps"
                )
            letters.append(letter)
            h = h * self.generator(letter)
            y = self.generator(-letter).apply(y)

    def reduce_point(self, x: ProjPoint, max_steps: int = 64) -> Tuple[Word, ProjPoint]:
        """Ping-pong a point into the fundamental domain.

        Returns (w, y) with x = w(y) and y in the domain; boundary circles
        belong to the domain, so they are terminal.  The returned word is
        reduced by construction, and unique whenever y is interior.
        """
        word, y, _ = self._reduce_with_matrix(x, max_steps)
        return word, y

    def boundary_letter(self, x: ProjPoint) -> Optional[int]:
        """The letter l with generator(l)(x) also in the domain, for x on a
        boundary circle; None for interior or off-domain points.

        Domain translates only meet along these circles, so an orbit has
        either one domain representative (interior) or exactly the pair
        x, generator(l)(x).
        """
        for l, D, K in self._domain:
            if K.contains(x) and not D.contains(x):
                return -l
        return None

    def coset_key(self, g: Homography, max_steps: int = 96) -> Tuple[Word, Homography]:
        """(m, key): the word m tiling g(infinity) into the fundamental domain
        and a canonical representative key of the coset G * g.

        The key is m^-1 * g; a boundary landing at letter l has one other
        tile, giving generator(l) * key, and the entrywise-smaller is kept.
        Two homographies lie in one coset exactly when their keys are equal.
        """
        word, t, m = self._reduce_with_matrix(g.apply(INFINITY), max_steps)
        key = m.inverse() * g
        letter = self.boundary_letter(t)
        if letter is not None:
            alt = self.generator(letter) * key
            if alt.entries < key.entries:
                key = alt
        return word, key

    def is_member(self, g: Homography, max_steps: int = 64) -> Membership:
        """Exact membership with a word certificate: g is a member exactly
        when its coset key is the identity, and g is then the homography of
        the tiling word (members land on infinity, where no tie-break fires).
        """
        word, key = self.coset_key(g, max_steps)
        if key.is_identity:
            return Membership(True, word)
        return Membership(False, None)

    def in_domain(self, x: ProjPoint, interior: bool = False) -> bool:
        return not any((K if interior else D).contains(x) for _, D, K in self._domain)

    def fundamental_domain(self) -> Affinoid:
        return Affinoid(None, self.B + self.C)

    # -- localization -------------------------------------------------------

    def localize_fundamental(
        self, prefix: Word, U: Disk, max_depth: int = 64
    ) -> Tuple[Word, Tuple[Homography, ...]]:
        """Extend the prefix until the closed word disk fits inside U.

        Returns the extended word w and the conjugated basis w g_i w^-1;
        every translate of the fundamental domain by a word starting with
        w then lies inside U.  Extension repeats the last letter, staying
        in the prefix direction.
        """
        self.ensure_verified()
        word = prefix if prefix else Word((self.letters()[0],))
        while True:
            if contains_disk(U, self.b_disk(word).closure()):
                h = self.word_homography(word)
                hinv = h.inverse()
                return word, tuple(h * g * hinv for g in self.generators)
            if len(word) >= max_depth:
                raise DepthExceeded(f"no word disk inside {U} up to length {max_depth}")
            word = word.append(word.letters[-1])

    # -- properness constants ------------------------------------------------

    def _envelope_base_points(self) -> Tuple[ProjPoint, ...]:
        """Infinity plus one rational point on each boundary circle.

        Boundary circles belong to the fundamental domain and carry the
        translate-intersection witnesses, so the envelope must be pinned
        there, not only at interior orbit points.
        """
        points = [INFINITY]
        for D in self.B + self.C:
            x = ProjPoint(D.center + Fraction(self.p) ** math.floor(-D.radius_exp))
            if self.in_domain(x):
                points.append(x)
        return tuple(points)

    def envelope_samples(self, depth: int):
        """(word length, -log_p distance-upper-bound) pairs for the fit.

        One sample per word up to the depth and per base point: infinity
        plus a point on each boundary circle, pushed around by the word.
        Boundary samples sit inside closed cover disks one level deeper
        than the word, so their distance bound uses a one-deeper cover.
        """
        self.ensure_verified()
        if depth < 1:
            raise InvalidArgument("depth must be >= 1")
        bases = self._envelope_base_points()

        def t_value(x: ProjPoint, length: int, interior: bool) -> int:
            cover_depth = length + (1 if interior else 2)
            return -self.delta_to_limit(x, cover_depth).upper_exponent

        samples = [(0, t_value(x, 0, x is INFINITY)) for x in bases]
        for length, word, h in self.iter_words_with_matrices(depth):
            for x in bases:
                samples.append((length, t_value(h.apply(x), length, x is INFINITY)))
        return samples

    def fit_proper_constants(self, depth: int) -> ProperFit:
        """Fit (a, b) with length(w) <= a + b * (-log_p delta) on samples.

        The slope is an exact least-squares fit over envelope_samples,
        clamped at 0; a is the exact maximum of length - b * t, so the
        inequality holds with equality somewhere and everywhere else
        strictly.  Lengths and t-values are integers, so b = num / denom
        and a = max(l * denom - num * t) / denom are summed in integers.
        """
        samples = self.envelope_samples(depth)
        n = len(samples)
        st = sum(t for _, t in samples)
        sl = sum(l for l, _ in samples)
        stt = sum(t * t for _, t in samples)
        stl = sum(t * l for l, t in samples)
        # denom >= 0 by Cauchy-Schwarz; it is 0 only when all t are equal,
        # and then the numerator is 0 too
        denom = n * stt - st * st or 1
        num = max(n * stl - st * sl, 0)
        a = Fraction(max(l * denom - num * t for l, t in samples), denom)
        return ProperFit(a, Fraction(num, denom), depth, n)

    # -- intersecting translates ----------------------------------------------

    def _delta_floor(self, region: Affinoid, cover_depth: int) -> Optional[Exponent]:
        """Exponent of a positive lower bound for the distance to the limit
        set over the region, or None when the cover is not separated from it."""
        constraints, holes = region._normalized()
        bounds = []
        for _, D in self.limit_cover(cover_depth).entries:
            candidates = []
            for hole in holes:
                if contains_disk(hole, D):
                    candidates.append(
                        min_delta_disjoint_disks(hole.complement(), D, self.ctx)
                    )
            for K in constraints:
                if disjoint(K, D):
                    candidates.append(min_delta_disjoint_disks(K, D, self.ctx))
            if not candidates:
                return None
            bounds.append(max(candidates))
        return min(bounds)

    def intersecting_translates(self, A: Affinoid, A2: Affinoid, depth: int) -> TranslateScan:
        """All words w up to the depth with w(A) meeting A2, decided exactly.

        The completeness certificate applies the properness envelope fitted
        at depth 4 to the distance floor of A2 over the depth-2 cover: if
        a + b * (-log_p floor) does not exceed the scanned depth, no longer
        word can produce an intersection witness inside A2 (empirically,
        since (a, b) are envelope constants over orbit samples).
        """
        self.ensure_verified()
        hits = []
        if A.intersects(A2):
            hits.append(Word(()))
        for _, word, h in self.iter_words_with_matrices(depth):
            if A.transform(h).intersects(A2):
                hits.append(word)
        floor = self._delta_floor(A2, 2)
        length_bound = None
        certified = False
        if floor is not None and floor != NEG_INF:
            fit = self.fit_proper_constants(4)
            length_bound = fit.a - fit.b * floor
            longest_hit = max((len(w) for w in hits), default=0)
            certified = length_bound <= depth and longest_hit <= length_bound
        return TranslateScan(tuple(hits), depth, certified, length_bound, floor)


def sample_group(p: int, rank: int, multiplier_exponent: int = 2) -> SchottkyGroup:
    """A verified rank-g group built from conjugates of diag(1, p^(2k)).

    Generator i conjugates the scaling by the matrix sending (0, inf) to
    a pair of centers at distance 1; its disks are the open disks of
    radius p^-k around the two centers.  Integer centers 0, 1, 2, ... are
    used when they keep the closed disks disjoint; otherwise pairs are
    offset by multiples of 1/p, which restores distance > p^-k exactly.
    """
    if rank < 1:
        raise InvalidArgument("rank must be >= 1")
    if multiplier_exponent < 2 or multiplier_exponent % 2 != 0:
        raise InvalidArgument("multiplier exponent must be an even integer >= 2")
    k = multiplier_exponent // 2
    ctx = PrimeContext(p)

    centers = [(2 * i, 2 * i + 1) for i in range(rank)]
    flat = [c for pair in centers for c in pair]

    def separated(cs):
        return all(
            valuation(a - b, p) < k for i, a in enumerate(cs) for b in cs[i + 1 :]
        )

    if not separated(flat):
        per_layer = p // 2
        if per_layer < 1 or rank > per_layer * p:
            raise InvalidArgument(f"cannot place {rank} disk pairs at p = {p}")
        centers = []
        for i in range(rank):
            layer, slot = divmod(i, per_layer)
            alpha = 2 * slot + Fraction(layer, p)
            centers.append((alpha, alpha + 1))

    scaling = Homography(1, 0, 0, p**multiplier_exponent)
    generators, B, C = [], [], []
    for alpha, beta in centers:
        m = Homography(beta, alpha, 1, 1)
        generators.append(m * scaling * m.inverse())
        B.append(Disk.open_disk(alpha, -k, p))
        C.append(Disk.open_disk(beta, -k, p))
    group = SchottkyGroup(ctx, generators, B, C)
    group.ensure_verified()
    return group
