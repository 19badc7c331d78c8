"""Schottky groups presented by generators with good fundamental-domain disks.

A group comes with bounded open disks B_1..B_g, C_1..C_g; verification
checks, exactly, that the closed disks are pairwise disjoint and that
each generator maps the complement of B_i onto the closure of C_i (and
the complement of the closure onto C_i itself).  A group is verified when
it is built: the constructor raises AxiomViolation, naming the first
failed check and holding the whole report as ``report``, so every
operation runs on a good fundamental domain.

The word disk B(w) attached to a nonempty reduced word is the image of
the complement of B_i^+ or C_i^+ (by the sign of the last letter) under
the word's homography; w * infinity always lies in B(w), chains of these
disks shrink onto limit points, and their closures at a fixed length
cover the limit set.

Write D_l and K_l for the open and closed domain disks of a letter l
(C_i and its closure for l = i, B_i and its closure for l = -i).  For
w = v * l, generator l maps the complement of K_-l onto D_l, so B(w) is
h_v(D_l).  The pole h_v^-1(infinity) = v^-1(infinity) lies in the domain
disk of the inverse of v's last letter, which is disjoint from K_l
because w is reduced; so h_v maps D_l and K_l to an open and a closed
disk with one center and radius, and the closed cover disk of w is
h_v(K_l).
"""

from __future__ import annotations

from fractions import Fraction
import math
import operator
from typing import Iterator, List, Optional, Sequence, Tuple

from ._record import record
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
    PointNearLimitSet,
    integer_text_limit,
    past_integer_text_limit,
)
from .padic import NEG_INF, POS_INF, Exponent, PrimeContext
from .proj import INFINITY, Homography, ProjPoint, delta
from .words import (
    Word,
    _trusted_word,
    alphabet,
    count_words_up_to,
    extensions,
    reduced_words,
    walk,
)

_COVER_CACHE_CAP = 1 << 15

# A limit cover holds about 0.5 KB per word up to its depth, and an envelope
# fit about 0.35 KB per word past the cover cache's cap (CLI peak RSS on
# rank-2 sample groups at depths 9 to 11 and rank 3 at depth 7), so the
# largest admitted request needs about 0.2 GB: 185 MB for a rank-2 cover at
# depth 11, 162 MB for the fit.
MAX_WALK_WORDS = 5 * 10**5

# (letters, homography) of the identity, where a descent from the root starts
_ROOT = (), Homography.identity()


def _near_limit(x: ProjPoint, depth: int, letters) -> PointNearLimitSet:
    return PointNearLimitSet(f"{x} lies in the depth-{depth} cover disk of {Word(letters)}")


def _refuse_long_walk(rank: int, depth: int):
    """InvalidArgument if the reduced words up to the depth are more than
    MAX_WALK_WORDS; the count is exact and takes no product."""
    if count_words_up_to(2 * rank, 2 * rank - 1, depth, MAX_WALK_WORDS) > MAX_WALK_WORDS:
        raise InvalidArgument(
            f"a walk to depth {depth} has more than {MAX_WALK_WORDS} reduced words; lower depth"
        )


def _refuse_large_rank(rank: int):
    """InvalidArgument if the 2r^2 + r axiom checks of rank r are more than MAX_WALK_WORDS."""
    if 2 * rank * rank + rank > MAX_WALK_WORDS:
        raise InvalidArgument(f"rank {rank} needs more than {MAX_WALK_WORDS} axiom checks")


@record
class AxiomCheck:
    name: str
    passed: bool
    detail: str = ""


@record
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


@record
class LimitCover:
    """Closed word disks at a fixed word length; they cover the limit set."""

    depth: int
    entries: Tuple[Tuple[Word, Disk], ...]
    max_radius_exponent: Exponent


@record
class DeltaGammaBound:
    """A certified interval around the chordal distance to the limit set.

    The cover is ultrametric, so a nearest cover disk is a chordal ball
    whose points all lie at one distance from the query point, limit
    points among them: the lower and upper exponents are equal, and they
    are the exponent of delta(x, Lambda) itself, the same at every depth
    from the first one that answers.  ``delta_to_limit`` starts its
    descent at the point's reduction word when that word's closed cover
    disk is a chordal ball, so it costs the word's pull-back steps and at
    most 4r - 1 cover nodes."""

    lower_exponent: Exponent
    upper_exponent: Exponent
    depth: int


@record
class Membership:
    member: bool
    word: Optional[Word]

    def __bool__(self):
        return self.member


@record
class ProperFit:
    """Envelope constants (a, b) with length <= a - b*log_p(delta) on all
    enumerated samples; exact rationals, empirical by construction."""

    a: Fraction
    b: Fraction
    depth: int
    sample_count: int


@record
class TranslateScan:
    """Words w up to the depth with w(A) meeting A2, the identity first
    and then in the walk's preorder, plus an empirical completeness
    certificate from the envelope constants."""

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
        _refuse_large_rank(len(generators))
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
        self._report = self._check_axioms()
        if not self._report.all_passed:
            first = self._report.failures[0]
            raise AxiomViolation(f"{first.name}: {first.detail}", self._report)

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def p(self) -> int:
        return self.ctx.p

    def letters(self) -> Tuple[int, ...]:
        return alphabet(self.rank)

    def generator(self, letter: int) -> Homography:
        try:
            return self._steps[letter]
        except KeyError:
            raise InvalidArgument(
                f"letter {letter} is outside the alphabet of rank {self.rank}"
            ) from None

    # -- verification ---------------------------------------------------

    def verify(self) -> AxiomReport:
        """The good-domain axiom report; every check passed when the group was built."""
        return self._report

    def ensure_verified(self):
        """Nothing: a group is verified when it is built.  perfbench/workloads.py
        calls this name; ROADMAP item 1a deletes it."""

    def _check_axioms(self) -> AxiomReport:
        """Check the good-domain axioms exactly, in a fixed order."""
        checks: List[AxiomCheck] = []
        closed = [(f"B{-l}" if l < 0 else f"C{l}", K) for l, _, K in self._domain]
        for i in range(len(closed)):
            for j in range(i + 1, len(closed)):
                (n1, D1), (n2, D2) = closed[i], closed[j]
                ok = disjoint(D1, D2)
                checks.append(
                    AxiomCheck(f"disjoint:{n1}+,{n2}+", ok, "" if ok else f"{D1} meets {D2}")
                )
        for g, B, (l, C, K) in zip(self.generators, self.B, self._domain[self.rank :]):
            for name, got, want in (
                (f"image:g{l}(P1-B{l})=C{l}+", image(g, B.complement()), K),
                (f"image:g{l}(P1-B{l}+)=C{l}", image(g, self._base_complements[l]), C),
            ):
                ok = got == want
                checks.append(AxiomCheck(name, ok, "" if ok else f"got {got}, want {want}"))
        return AxiomReport(tuple(checks))

    # -- words ----------------------------------------------------------

    def enumerate_words(self, length: int) -> Iterator[Word]:
        return reduced_words(self.rank, length)

    def word_homography(self, word: Word) -> Homography:
        """The product of the generators of the word's letters, left to
        right; a sequence of letters is taken as well."""
        h = Homography.identity()
        for letter in word:
            h = h * self.generator(letter)
        return h

    def _walk(self, max_length: int):
        """``iter_words_with_matrices`` over letter tuples, building no words;
        a length past the walk cap is refused at the call, before any word."""
        _refuse_long_walk(self.rank, max_length)
        return walk([((l,), g) for l, g in self._steps.items()], self._steps, max_length)

    def iter_words_with_matrices(self, max_length: int):
        """(length, word, homography) for all reduced words of length
        1..max_length in the walk's preorder (each word before its
        extensions, each length lexicographically), with incremental
        products.  A length with more than MAX_WALK_WORDS words up to it is
        refused with InvalidArgument at the call."""
        return ((length, Word(letters), h) for length, letters, h in self._walk(max_length))

    # -- word disks and covers -------------------------------------------

    def _word_disk(self, h: Homography, last: int) -> Disk:
        """The open word disk of a word with homography h and last letter."""
        return image(h, self._base_complements[last])

    def b_disk(self, word: Word) -> Disk:
        """The bounded open disk attached to a nonempty reduced word."""
        if not word:
            raise InvalidArgument("the identity has no word disk")
        return self._word_disk(self.word_homography(word), word.letters[-1])

    def limit_cover(self, depth: int) -> LimitCover:
        """The closed word disks of the given length, 2r(2r-1)**(depth-1)
        of them, in lexicographic order of the words; a depth with more than
        MAX_WALK_WORDS words up to it is refused with InvalidArgument.

        The walk stops one letter short: the disk of v * l is h_v(K_l),
        the closed domain disk of l imaged by the parent's homography,
        which is the closure of the open word disk h_v(D_l) because the
        pole of h_v lies in a domain disk apart from K_l (see the module
        docstring).  At depth 1 the parent is the identity and the disks
        are the K_l themselves.  The walk makes reduced letter tuples only,
        so their Words skip the checks of ``Word(...)``."""
        if depth < 1:
            raise InvalidArgument("depth must be >= 1")
        _refuse_long_walk(self.rank, depth)
        closed = {l: K for l, _, K in self._domain}
        if depth == 1:
            entries = [(_trusted_word((l,)), closed[l]) for l in self._after[0]]
        else:
            entries = [
                (_trusted_word(letters + (l,)), image(h, closed[l]))
                for length, letters, h in self._walk(depth - 1)
                if length == depth - 1
                for l in self._after[letters[-1]]
            ]
        max_exp = max(disk.radius_exp for _, disk in entries)
        return LimitCover(depth, tuple(entries), max_exp)

    def _cover_node(self, letters, h: Homography):
        """Compute and memoize (homography, closed word disk) for the word
        with these letters and homography h."""
        node = (h, self._word_disk(h, letters[-1]).closure())
        if len(self._cover_cache) >= _COVER_CACHE_CAP:
            self._cover_cache.clear()  # values are deterministic, recompute freely
        self._cover_cache[letters] = node
        return node

    # -- distance to the limit set ----------------------------------------

    def delta_to_limit(self, x: ProjPoint, depth: int) -> DeltaGammaBound:
        """Certified interval for the chordal distance from x to the limit
        set, from the cover at the given depth; PointNearLimitSet if x lies
        in a cover disk of the depth.

        The start rule: x is first pulled back toward the fundamental
        domain F, x = w(y) with y in F.  Each step lies in an open domain
        disk inside the matching closed one, so x lies in the closed cover
        disk E(v) of every prefix v of w: the first |w| levels of the chain
        that ``_descend`` follows from the identity are w's prefixes.  A
        pull-back that reaches the depth names its depth-long prefix, and
        no disk is imaged.  Otherwise the descent starts at w when E(w) is
        a chordal ball (``_start``, the rule ``envelope_samples`` also
        follows): every point outside E(w) is farther from x than every
        point inside it, and the cover disks of w's subtree lie inside it,
        so no sibling of a prefix is nearest.  When E(w) is not a chordal
        ball, no prefix's disk is either, and the descent starts at the
        identity.

        The answer is delta(x, Lambda) exactly, not only a bound: the
        nearest cover disk is a chordal ball missing x that holds limit
        points, all its points lie at one distance from x, and the limit
        set lies in the cover.  So the lower bound (the least point-to-disk
        distance) equals the upper bound (the distance to that disk's
        center), and the answer is the same at every depth from the first
        one that answers.

        The cost is |w| pull-back steps and, when the descent starts at w
        or w is empty, at most 4r - 1 cover nodes (7 at rank 2): E(w) and
        its 2r - 1 children, or the 2r letter disks, and then the 2r - 1
        children of the one of them that holds x when y lies on a boundary
        circle; those children all miss x.
        """
        depth = operator.index(depth)
        if depth < 1:
            raise InvalidArgument("depth must be >= 1")
        letters = tuple(self._pull_back(x, depth)[0])
        if len(letters) == depth:
            raise _near_limit(x, depth, letters)
        start = self._start(letters, self.word_homography(letters)) if letters else _ROOT
        lower, disk = self._descend(x, depth, *start)
        return DeltaGammaBound(lower, delta(x, disk.center_point(), self.ctx), depth)

    def _start(self, letters, h: Homography):
        """The node where a descent for a point in the closed cover disk of
        the nonempty word (letters, h) starts: the word when that disk is
        a chordal ball (``in_residue_disk``), the identity otherwise."""
        _, disk = self._cover_cache.get(letters) or self._cover_node(letters, h)
        return (letters, h) if disk.in_residue_disk else _ROOT

    def _descend(self, x: ProjPoint, depth: int, letters, h: Homography):
        """(exponent, disk): the exponent of the distance from x to the
        cover of the given depth, and a cover disk at that distance.  The
        node (letters, h) is the identity or a word whose closed cover
        disk is a chordal ball containing x.

        The walk goes down the chain of closed cover disks that contain x
        and keeps, over all levels, the sibling of the chain that misses x
        at the least point-to-disk exponent.  Each cover disk of the depth
        below the node lies in the chain or in one missed sibling.  A
        sibling that is a chordal ball (``in_residue_disk``) has all its
        points at one distance from x.  The one other shape, E(0, p^e)
        with e >= 0, is never the nearest: at most one missed sibling has
        it, another sibling is missed, and every point outside it is
        strictly nearer to x.  Raises PointNearLimitSet if x still lies in
        a cover disk at the depth.
        """
        cache = self._cover_cache
        lower, nearest = POS_INF, None
        while len(letters) < depth:
            inside = None
            for l in self._after[letters[-1] if letters else 0]:
                child = letters + (l,)
                h2, disk = cache.get(child) or self._cover_node(child, h * self._steps[l])
                bound = point_to_disk_delta(x, disk)
                if bound == NEG_INF:
                    inside = child, h2
                elif bound < lower:
                    lower, nearest = bound, disk
            if inside is None:
                return lower, nearest
            letters, h = inside
        raise _near_limit(x, depth, letters)

    # -- reduction and membership ------------------------------------------

    def _pull_back(self, x: ProjPoint, max_steps: int):
        """(letters, y, letter) with x = w(y) for the word w of the letters:
        while an open domain disk D_l holds y and fewer than max_steps
        steps are made, append l and replace y by generator(-l)(y).  The
        last item is the letter whose open domain disk still holds y, or
        None when y is in the fundamental domain; no product is made."""
        letters = []
        y = x
        while True:
            for letter, D, _ in self._domain:
                if D.contains(y):
                    break
            else:
                return letters, y, None
            if len(letters) == max_steps:
                return letters, y, letter
            letters.append(letter)
            y = self._steps[-letter].apply(y)

    def reduce_point(self, x: ProjPoint, max_steps: int = 64) -> Tuple[Word, ProjPoint]:
        """Ping-pong a point into the fundamental domain.

        Returns (w, y) with x = w(y) and y in the domain; boundary circles
        belong to the domain, so they are terminal.  The returned word is
        reduced by construction, and unique whenever y is interior.  At
        most max_steps generator steps are made; a domain check is not one.
        """
        max_steps = operator.index(max_steps)
        if max_steps < 0:
            raise InvalidArgument("max_steps must be >= 0")
        letters, y, letter = self._pull_back(x, max_steps)
        if letter is not None:
            raise MaxStepsExceeded(
                f"{x} did not reach the fundamental domain in {max_steps} steps"
            )
        return Word(letters), y

    # perfbench/tracer.py wraps this name as groups.reduce; ROADMAP item 1a
    # deletes the alias
    _reduce_with_matrix = reduce_point

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

        The key is m^-1 * g: the pull-back applies generator(-l) for each
        letter l of m in turn, and g is left-multiplied by the same steps
        (products are canonical, so this is m.inverse() * g entry for entry).
        A boundary landing at letter l has one other tile, giving
        generator(l) * key, and the entrywise-smaller is kept.
        Two homographies lie in one coset exactly when their keys are equal.
        """
        word, t = self.reduce_point(g.apply(INFINITY), max_steps)
        key = g
        for letter in word.letters:
            key = self._steps[-letter] * key
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
        word = prefix if prefix else Word((self.letters()[0],))
        last = word.letters[-1]
        h = self.word_homography(word)
        while not contains_disk(U, self._word_disk(h, last).closure()):
            if len(word) >= max_depth:
                raise DepthExceeded(f"no word disk inside {U} up to length {max_depth}")
            word = word.append(last)
            h = h * self._steps[last]
        hinv = h.inverse()
        return word, tuple(h * g * hinv for g in self.generators)

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
        The identity's samples come first, then the words' in the walk's
        preorder.
        A sample's t is -upper_exponent of delta_to_limit at cover depth
        n + 1 for a word of length n and the point infinity, and at depth
        n + 2 for a boundary point, which sits inside a closed cover disk
        one level deeper than the word.  The lower and upper bounds
        coincide, so t is read from the exponent ``_descend`` returns.

        A base point lies outside every open domain disk, so y = w(x)
        lies in the closed cover disk E(w) of a nonempty word w.  When
        E(w) is a chordal ball (``in_residue_disk``), every point outside
        it is farther from y than any point inside it, and the cover disks
        of w's subtree lie inside it; so the descent for y starts at w
        rather than at the identity.  Otherwise it starts at the identity.
        A depth with more than MAX_WALK_WORDS words up to it is refused
        with InvalidArgument before the walk starts.
        """
        if depth < 1:
            raise InvalidArgument("depth must be >= 1")
        words = self.iter_words_with_matrices(depth)  # refuses a depth past the walk cap
        bases = self._envelope_base_points()
        # cover levels below the word: children for infinity, else grandchildren
        levels = [1 if x is INFINITY else 2 for x in bases]
        samples = [(0, -self.delta_to_limit(x, n).upper_exponent) for x, n in zip(bases, levels)]
        for length, word, h in words:
            start = self._start(word.letters, h)
            for x, n in zip(bases, levels):
                bound, _ = self._descend(h.apply(x), length + n, *start)
                samples.append((length, -bound))
        return samples

    def fit_proper_constants(self, depth: int) -> ProperFit:
        """Fit (a, b) with length(w) <= a + b * (-log_p delta) on samples.

        The slope is an exact least-squares fit over envelope_samples,
        clamped at 0; a is the exact maximum of length - b * t, so the
        inequality holds with equality somewhere and everywhere else
        strictly.  Lengths and t-values are integers, so b = num / denom
        and a = max(l * denom - num * t) / denom are summed in integers.
        A depth with more than MAX_WALK_WORDS words up to it is refused.
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
        # Closed disks whose intersection is the region.
        supersets = [hole.complement() for hole in holes] + constraints
        bounds = []
        for _, D in self.limit_cover(cover_depth).entries:
            bound = max((min_delta_disjoint_disks(K, D) for K in supersets), default=NEG_INF)
            if bound == NEG_INF:
                return None
            bounds.append(bound)
        return min(bounds)

    def intersecting_translates(self, A: Affinoid, A2: Affinoid, depth: int) -> TranslateScan:
        """All words w up to the depth with w(A) meeting A2, decided exactly.

        The completeness certificate applies the properness envelope fitted
        at depth 4 to the distance floor of A2 over the depth-2 cover: if
        a + b * (-log_p floor) does not exceed the scanned depth, no longer
        word can produce an intersection witness inside A2 (empirically,
        since (a, b) are envelope constants over orbit samples).  A negative
        depth, or one with more than MAX_WALK_WORDS words up to it, is
        refused; depth 0 scans the identity alone.
        """
        if depth < 0:
            raise InvalidArgument("depth must be >= 0")
        words = self.iter_words_with_matrices(depth)  # refuses a depth past the walk cap
        hits = []
        if A.intersects(A2):
            hits.append(Word(()))
        for _, word, h in words:
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
    _refuse_large_rank(rank)
    if multiplier_exponent < 2 or multiplier_exponent % 2 != 0:
        raise InvalidArgument("multiplier exponent must be an even integer >= 2")
    k = multiplier_exponent // 2
    ctx = PrimeContext(p)
    # a generator's primitive integer matrix N has trace(N)**2 / det(N) =
    # (1 + p**e)**2 / p**e, so trace(N)**2 > p**e and an entry exceeds
    # p**(e/2) / 2: past 2 * limit + 1 digits of p**e, refuse before forming it
    digit_limit = integer_text_limit()
    hint = "lower the multiplier exponent"
    if digit_limit and multiplier_exponent > (2 * digit_limit + 1) / math.log10(p):
        raise past_integer_text_limit("a generator entry", digit_limit, hint)

    centers = [(2 * i, 2 * i + 1) for i in range(rank)]
    # the integer centers differ by 1..2r-1, so no two of them lie in one
    # closed disk of radius p^-k exactly when p^k > 2r - 1
    if p**k <= 2 * rank - 1:
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
    if digit_limit and max(abs(x) for g in generators for x in g.entries) >= 10**digit_limit:
        raise past_integer_text_limit("a generator entry", digit_limit, hint)
    return SchottkyGroup(ctx, generators, B, C)
