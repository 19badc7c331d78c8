import functools
import os
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import assume, event, settings, strategies as st

import schottky
from schottky import PrimeContext, sample_group
from schottky.disks import image
from schottky.errors import AxiomViolation, InvalidArgument
from schottky.groups import SchottkyGroup
from schottky.proj import INFINITY, Homography, ProjPoint

# Derandomized examples make every run check the same inputs, and no
# deadline keeps slow or throttled hosts from failing correct code.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def child_env():
    """The environment of a child Python that imports the package from
    where this process found it."""
    src = str(Path(schottky.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(scope="session")
def ctx5():
    return PrimeContext(5)


@pytest.fixture(scope="session")
def g5():
    return sample_group(5, 2)


@pytest.fixture(scope="session")
def sample_groups():
    # the worked p=5 group plus three more across primes and multipliers
    return [
        sample_group(5, 2),
        sample_group(3, 2, multiplier_exponent=4),
        sample_group(5, 2, multiplier_exponent=4),
        sample_group(7, 2, multiplier_exponent=2),
    ]


# Groups shared by the hypothesis tests, which cannot take fixtures.


@functools.lru_cache(maxsize=None)
def cached_sample_group(p, rank, exponent=2):
    """sample_group(p, rank, exponent), or None where it cannot be built."""
    try:
        return sample_group(p, rank, exponent)
    except InvalidArgument:
        return None  # p = 2 has no room for three disk pairs


CONJUGATOR_NAMES = ("x/p^3", "p^3x", "x+1/p^2", "x/(px+1)")


def conjugator(p, name):
    """The homography s named by its action x -> s(x)."""
    return {
        "x/p^3": Homography(1, 0, 0, p**3),
        "p^3x": Homography(p**3, 0, 0, 1),
        "x+1/p^2": Homography(p * p, 1, 0, p * p),
        "x/(px+1)": Homography(1, 0, p, 1),
    }[name]


@functools.lru_cache(maxsize=None)
def conjugate(G, name):
    """The group s G s^-1 with the disks moved by the named conjugator s;
    None if a moved disk is unbounded or the moved disks fail the
    good-domain axioms.  The x/p^3 conjugates have closed word disks
    that contain the closed unit disk, which are not chordal balls."""
    s = conjugator(G.p, name)
    t = s.inverse()
    try:
        return SchottkyGroup(
            G.ctx,
            [s * g * t for g in G.generators],
            [image(s, B) for B in G.B],
            [image(s, C) for C in G.C],
        )
    except (ValueError, AxiomViolation):
        return None


def count_cover_nodes(G):
    """The list, filled as G runs, of the words whose cover nodes G
    computes: G._cover_node is wrapped on the instance."""
    computed = []
    cover_node = G._cover_node

    def counted(letters, h):
        computed.append(letters)
        return cover_node(letters, h)

    G._cover_node = counted
    return computed


def permuted(G, order):
    """G with its generators, and their disks, taken in the given order."""
    return SchottkyGroup(
        G.ctx,
        [G.generators[i] for i in order],
        [G.B[i] for i in order],
        [G.C[i] for i in order],
    )


@st.composite
def drawn_groups(draw, primes):
    """A sample group of rank 1-3 at one of the primes with multiplier
    exponent 2 or 4, possibly conjugated, with its generators permuted."""
    rank = draw(st.integers(1, 3))
    G = cached_sample_group(draw(st.sampled_from(primes)), rank, draw(st.sampled_from((2, 4))))
    assume(G is not None)
    name = draw(st.sampled_from((None,) + CONJUGATOR_NAMES))
    if name is not None:
        G = conjugate(G, name)
        assume(G is not None)
    event(f"rank {rank}, {name or 'unconjugated'}")
    return permuted(G, draw(st.permutations(range(rank))))


@functools.lru_cache(maxsize=None)
def rational_fixed_pairs(G, max_length=3):
    """The two fixed points of each word up to the length whose fixed
    points are rational, from c z^2 + (d - a) z - b = 0."""
    pairs = []
    for n in range(1, max_length + 1):
        for w in G.enumerate_words(n):
            a, b, c, d = G.word_homography(w).entries
            if c == 0:
                if a != d:
                    pairs.append((INFINITY, ProjPoint(b, d - a)))
                continue
            disc = (d - a) ** 2 + 4 * b * c
            s = isqrt(max(disc, 0))
            if disc > 0 and s * s == disc:
                pairs.append((ProjPoint(a - d + s, 2 * c), ProjPoint(a - d - s, 2 * c)))
    return tuple(pairs)
