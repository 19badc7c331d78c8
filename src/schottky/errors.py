"""Exception types shared across the package."""


class SchottkyError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedPrime(SchottkyError):
    """Operation not implemented for this prime (p = 2 square roots)."""


class NotASquare(SchottkyError):
    """Residue is a quadratic non-residue mod p."""


class NotASquareInQp(SchottkyError):
    """Fixed-point discriminant is not a square in Q_p."""


class ConstantPolynomial(SchottkyError):
    pass


class CoefficientTooLarge(SchottkyError):
    """Polynomial coefficient with p-adic absolute value > 1."""


class AxiomViolation(SchottkyError):
    """A good-fundamental-domain axiom failed; message names the check."""


class MaxStepsExceeded(SchottkyError):
    """Point reduction ran out of budget (point too close to the limit set)."""


class PointNearLimitSet(SchottkyError):
    """Point lies inside a cover disk at the requested depth."""


class DepthExceeded(SchottkyError):
    """Word extension search exceeded its depth bound."""


class CyclicLinks(SchottkyError):
    """Coordinate links of a flat specification form a cycle."""


class FormatError(SchottkyError):
    """Malformed input file; message carries field context."""


class InvalidArgument(SchottkyError, ValueError):
    """An argument outside its documented range (a depth or length)."""
