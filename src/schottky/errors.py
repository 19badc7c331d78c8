"""Exception types shared across the package, and the refusal of an
integer too long for integer text."""

import sys


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
    """A good-fundamental-domain axiom failed: the message names the first
    failed check, and ``report`` holds the whole AxiomReport."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


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


def integer_text_limit() -> int:
    """The most decimal digits that str() writes of an int and int()
    reads back: the interpreter's limit, 0 meaning none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def past_integer_text_limit(what: str, digit_limit: int, hint: str) -> InvalidArgument:
    """The refusal of an integer with more than ``digit_limit`` decimal
    digits, which could be neither printed nor reloaded."""
    return InvalidArgument(
        f"{what} has more than {digit_limit} decimal digits, the limit for integer text; {hint}"
    )
