"""Reference flats and pair stabilizers: the rules ``geodesy`` followed
before one resolver served ``normalize_flat`` and ``apply_flat``, before
the stabilizer search returned its first hit, and before the stabilizer
was read off the pull-back of x.

``apply_flat`` propagates values along links until nothing changes.
``pair_stabilizer`` scans every word up to the depth, conjugates each
hit so the pair becomes (0, inf) through the Fraction conjugator, and
keeps the hit with the least (|v_p(lambda)|, walk order).
``walk_pair_stabilizer`` walks the word tree by length, in the level
order of ``walk_oracle``, to the first word that fixes x, after a
reduction of each point that skips the walk when the point reduces into
the fundamental domain.
``multiplier`` is the rule by which both took lambda before the
library read it off the eigenvalues: the integer conjugator
(x.den, -x.num; y.den, -y.num) sends x to 0 and y to infinity, so it
conjugates h to z -> lambda z.
``test_geodesy.py`` compares the library with all of them, and
``test_subgroups.py`` with the walk and the conjugator.
"""

from fractions import Fraction

from schottky.errors import InvalidArgument, MaxStepsExceeded, SchottkyError
from schottky.geodesy import Fixed, Free, Linked, StabilizerResult
from schottky.groups import _refuse_long_walk
from schottky.padic import valuation
from schottky.proj import Homography
from schottky.words import Word
from walk_oracle import group_walk


def apply_flat(coords, free_values):
    """The library's ``apply_flat`` on an acyclic spec."""
    out = [None] * len(coords)
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


def _pair_to_zero_infinity(x, y):
    if y.is_infinity:
        return Homography(1, -x.value, 0, 1)
    if x.is_infinity:
        return Homography(0, 1, 1, -y.value)
    return Homography(1, -x.value, 1, -y.value)


def pair_stabilizer(G, pair, depth):
    """The library's ``pair_stabilizer`` below the walk cap."""
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


def multiplier(h, x, y):
    """lambda of h, which fixes the distinct points x and y, taken with
    archimedean size >= 1: h conjugated to fix 0 and infinity."""
    conj = Homography(x.den, -x.num, y.den, -y.num)
    d = conj * h * conj.inverse()  # fixes 0 and infinity, so diagonal
    lam = Fraction(d.a, d.d)
    return lam if abs(lam) >= 1 else 1 / lam


def walk_pair_stabilizer(G, pair, depth):
    """The library's ``pair_stabilizer`` when it walked the word tree: the
    first word, by length then lexicographically, that fixes x, kept if
    it also fixes y."""
    G.ensure_verified()
    x, y = pair
    if x == y:
        raise InvalidArgument("need two distinct points")
    if depth < 1:
        raise InvalidArgument("depth must be >= 1")
    _refuse_long_walk(G.rank, depth)
    for z in pair:
        try:
            G.reduce_point(z)
        except MaxStepsExceeded:
            continue
        return StabilizerResult(None, None)
    for _, letters, h in group_walk(G, depth):
        if h.apply(x) == x:
            break
    else:
        return StabilizerResult(None, None)
    if h.apply(y) != y:
        return StabilizerResult(None, None)
    lam = multiplier(h, x, y)
    word = Word(letters)
    if valuation(lam, G.p) == 0:
        raise SchottkyError(f"stabilizer {word} has |multiplier| = 1; group is not Schottky")
    return StabilizerResult(word, lam)
