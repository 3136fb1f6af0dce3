"""Exception hierarchy. Every failure surfaced by this package derives from NcapError.

``number_problem`` is the one rule for a finite real, which every record
and ranking applies before it takes a number.
"""

import math


def number_problem(value) -> str | None:
    """None when ``value`` is a finite real, as math.isfinite reads it (a bool
    is the int 0 or 1); otherwise the words that name what it is instead."""
    try:
        return None if math.isfinite(value) else "non-finite value"
    except OverflowError:  # an int or a fraction beyond the float range
        return "value beyond the float range"
    except TypeError:
        return "non-real value"
    except ValueError:  # a signaling NaN Decimal, which float() refuses
        return "non-finite value"


class NcapError(Exception):
    """Base class for all errors raised by the ncap package."""


class ConfigError(NcapError):
    """Evaluation config file is malformed or inconsistent with the data."""


class FormatError(NcapError):
    """Feature matrix file violates the expected tabular format."""


class EncodingError(NcapError):
    """A cell token has no numeric value and no encoding entry."""


class MissingValueError(NcapError):
    """A missing cell was encountered under a policy that forbids it."""


class DegenerateColumnError(NcapError):
    """A feature column has no usable values."""


class EmptyColumnError(NcapError):
    """A normalization was asked for on a column with too few values."""


class DomainError(NcapError):
    """A numeric input lies outside the valid domain of an operation."""


class DimensionError(NcapError):
    """Mismatched lengths, shapes, or key sets between related inputs."""


class ProductDomainError(NcapError):
    """Weighted product requires strictly positive raw values."""


class InadmissibleProfileError(NcapError):
    """Capability profile describes a platform without perception."""


class EmptyInputError(NcapError):
    """An operation that needs at least one element received none."""


class MethodMismatchError(NcapError):
    """Coordinates built with different combination methods were mixed."""


class InsufficientMethodsError(NcapError):
    """Agreement diagnostics need at least two method columns."""
