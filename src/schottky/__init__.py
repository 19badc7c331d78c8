"""Exact calculus for p-adic Schottky subgroups of PGL(2, Q_p).

Everything is computed over Q read p-adically: absolute values and disk
radii live in the log domain as exact rationals, so fundamental-domain
verification, point reduction, membership, limit-set covers, height
scans and the commensurability probe are all decided without floating
error.

``import schottky`` loads no submodule: each exported name imports its
module on first access, and ``schottky.<module>`` imports that module.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the names it exports here
_EXPORTS = {
    "disks": "Affinoid Disk contains_disk disjoint image point_to_disk_delta poly_distance_exponent",
    "errors": "AxiomViolation CoefficientTooLarge ConstantPolynomial CyclicLinks DepthExceeded"
    " FormatError InvalidArgument MaxStepsExceeded NotASquare NotASquareInQp PointNearLimitSet"
    " SchottkyError UnsupportedPrime",
    "geodesy": "CommensurabilityReport Fixed FlatSpec Free GeodesicReport Linked StabilizerResult"
    " Verdict double_coset_scan geodesic_report normalize_flat pair_stabilizer",
    "groups": "AxiomReport DeltaGammaBound LimitCover Membership ProperFit SchottkyGroup"
    " TranslateScan sample_group",
    "heights": "CountingScan height_matrix height_rational height_tuple upsilon_scan",
    "padic": "PrimeContext abs_exponent valuation",
    "proj": "INFINITY ElementClass FixedPointPair Homography ProjPoint QuadPoint classify delta"
    " fixed_points",
    "words": "Word",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    # not kept here: each lookup reads the module's binding at that moment, so a
    # wrapper patched into the module and later removed is not left behind
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return list(__all__)
