"""Exact calculus for p-adic Schottky subgroups of PGL(2, Q_p).

Everything is computed over Q read p-adically: absolute values and disk
radii live in the log domain as exact rationals, so fundamental-domain
verification, point reduction, membership, limit-set covers, height
scans and the commensurability probe are all decided without floating
error.
"""

from .disks import (
    Affinoid,
    Disk,
    contains_disk,
    disjoint,
    image,
    point_to_disk_delta,
    poly_distance_exponent,
)
from .errors import (
    AxiomViolation,
    CoefficientTooLarge,
    ConstantPolynomial,
    CyclicLinks,
    DepthExceeded,
    FormatError,
    InvalidArgument,
    MaxStepsExceeded,
    NotASquare,
    NotASquareInQp,
    OddValuation,
    PointNearLimitSet,
    PrecisionExhausted,
    SchottkyError,
    UnsupportedPrime,
)
from .geodesy import (
    CommensurabilityReport,
    Fixed,
    FlatSpec,
    Free,
    GeodesicReport,
    Linked,
    StabilizerResult,
    Verdict,
    double_coset_scan,
    geodesic_report,
    normalize_flat,
    pair_stabilizer,
)
from .groups import (
    AxiomReport,
    DeltaGammaBound,
    LimitCover,
    Membership,
    ProperFit,
    SchottkyGroup,
    TranslateScan,
    sample_group,
)
from .heights import CountingScan, height_matrix, height_rational, height_tuple, upsilon_scan
from .padic import (
    PadicApprox,
    PrimeContext,
    abs_exponent,
    hensel_sqrt,
    valuation,
)
from .proj import (
    INFINITY,
    ElementClass,
    FixedPointPair,
    Homography,
    ProjPoint,
    classify,
    delta,
    fixed_points,
)
from .words import Word

__version__ = "0.1.0"

__all__ = [
    "Affinoid",
    "AxiomReport",
    "AxiomViolation",
    "CoefficientTooLarge",
    "CommensurabilityReport",
    "ConstantPolynomial",
    "CountingScan",
    "CyclicLinks",
    "DeltaGammaBound",
    "DepthExceeded",
    "Disk",
    "ElementClass",
    "Fixed",
    "FixedPointPair",
    "FlatSpec",
    "FormatError",
    "Free",
    "GeodesicReport",
    "Homography",
    "INFINITY",
    "InvalidArgument",
    "LimitCover",
    "Linked",
    "MaxStepsExceeded",
    "Membership",
    "NotASquare",
    "NotASquareInQp",
    "OddValuation",
    "PadicApprox",
    "PointNearLimitSet",
    "PrecisionExhausted",
    "PrimeContext",
    "ProjPoint",
    "ProperFit",
    "SchottkyError",
    "SchottkyGroup",
    "StabilizerResult",
    "TranslateScan",
    "UnsupportedPrime",
    "Verdict",
    "Word",
    "abs_exponent",
    "classify",
    "contains_disk",
    "delta",
    "disjoint",
    "double_coset_scan",
    "fixed_points",
    "geodesic_report",
    "hensel_sqrt",
    "height_matrix",
    "height_rational",
    "height_tuple",
    "image",
    "normalize_flat",
    "pair_stabilizer",
    "point_to_disk_delta",
    "poly_distance_exponent",
    "sample_group",
    "upsilon_scan",
    "valuation",
]
