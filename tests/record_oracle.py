"""The record classes as ``@dataclass(frozen=True)`` declares them.

Each class here keeps the name, the fields in order, the defaults and the
``field(compare=False, repr=False)`` marks of the library class that
``schottky._record.record`` now builds; ``PrimeContext`` keeps its
``__post_init__`` and ``Homography`` its ``__repr__``.  Where the library class writes its own ``__init__``
(``Homography``, ``Disk``, ``Affinoid``, ``FlatSpec``), this one keeps the
generated ``__init__`` over all its fields, so that an instance can be
built from the same field values.  Other methods are left out: the
property tests in ``test_records.py`` compare what the decorator
generates, namely construction, ``==``, ``hash()``, ``repr()``, the frozen
refusals and the ``pickle`` and ``copy`` round trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from schottky.errors import InvalidArgument
from schottky.geodesy import CoordSpec, Verdict
from schottky.groups import SchottkyGroup
from schottky.padic import Exponent, is_prime
from schottky.proj import ElementClass, FixedPoint, ProjPoint
from schottky.words import Word

# padic


@dataclass(frozen=True)
class PrimeContext:
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidArgument(f"p = {self.p} is not prime")


# proj


@dataclass(frozen=True, slots=True)
class Homography:
    entries: tuple  # (a, b, c, d)

    def __repr__(self):
        a, b, c, d = self.entries
        return f"Homography({a}, {b}, {c}, {d})"


@dataclass(frozen=True)
class QuadPoint:
    x: Fraction
    D: Fraction
    r: int
    p: int


@dataclass(frozen=True)
class FixedPointPair:
    points: tuple
    element_class: ElementClass
    attracting: Optional[FixedPoint] = None
    repelling: Optional[FixedPoint] = None


# disks


@dataclass(frozen=True, slots=True)
class Disk:
    bounded: bool
    is_open: bool
    _cn: int
    _k: int
    radius_exp: Exponent
    p: int
    _m: int = field(compare=False, repr=False)
    _pk: int = field(compare=False, repr=False)
    _s: Exponent = field(compare=False, repr=False)


@dataclass(frozen=True)
class Affinoid:
    outer: Optional[Disk]
    holes: Tuple[Disk, ...]


# groups


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
    checks: Tuple[AxiomCheck, ...]


@dataclass(frozen=True)
class LimitCover:
    depth: int
    entries: Tuple[Tuple[Word, Disk], ...]
    max_radius_exponent: Exponent


@dataclass(frozen=True)
class DeltaGammaBound:
    lower_exponent: Exponent
    upper_exponent: Exponent
    depth: int


@dataclass(frozen=True)
class Membership:
    member: bool
    word: Optional[Word]


@dataclass(frozen=True)
class ProperFit:
    a: Fraction
    b: Fraction
    depth: int
    sample_count: int


@dataclass(frozen=True)
class TranslateScan:
    words: Tuple[Word, ...]
    depth: int
    certified: bool
    length_bound: Optional[Fraction]
    delta_floor_exponent: Optional[Exponent]


# geodesy


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


@dataclass(frozen=True)
class FlatSpec:
    coords: Tuple[CoordSpec, ...]
    groups: Tuple[SchottkyGroup, ...]


@dataclass(frozen=True)
class NormalizedFlat:
    coords: Tuple[CoordSpec, ...]
    groups: Tuple[SchottkyGroup, ...]
    free_indices: Tuple[int, ...]


@dataclass(frozen=True)
class StabilizerResult:
    word: Optional[Word]
    multiplier: Optional[Fraction]


@dataclass(frozen=True)
class CommensurabilityReport:
    depth: int
    coset_counts: Tuple[int, ...]  # forward scan, index = word length 0..depth
    reverse_counts: Tuple[int, ...]
    window: int
    forward_verdict: Verdict
    reverse_verdict: Verdict


@dataclass(frozen=True)
class GeodesicReport:
    depth: int
    pairs: Tuple[Tuple[int, int, CommensurabilityReport], ...]
    consistent: bool


# heights


@dataclass(frozen=True)
class CountRow:
    length_exponent: int
    threshold: Optional[float]  # None when peak**(l/L) is beyond float range
    count: int


@dataclass(frozen=True)
class CountingScan:
    max_length: int
    q: int
    peak_height: int
    growth: float
    rows: Tuple[CountRow, ...]
    slope: float
    reference_exponent: float
    entries: Tuple[int, ...]
    bins: Dict[int, int] = field(repr=False, compare=False)
