"""Column-wise normalization techniques for heterogeneous feature values.

Four techniques are provided, all operating on one feature column at a time:
divide-by-maximum, divide-by-sum, range mapping to [0, 1], and the z-score
(standard score). Direction handling (more-is-better vs less-is-better) is
deliberately not done here; the aggregation layer applies signs.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import DomainError, EmptyColumnError


class NormalizationMethod(Enum):
    MAX = "max"
    SUM = "sum"
    MAP = "map"
    ZSC = "zsc"


class NormalizedColumn(NamedTuple):
    """A normalized feature column, same length and order as its input."""

    values: tuple[float, ...]
    method: NormalizationMethod


def _require_positive(column: Sequence[float], method: NormalizationMethod) -> None:
    for i, v in enumerate(column):
        if v <= 0:
            raise DomainError(
                f"eta_{method.value} requires strictly positive values; "
                f"got {v!r} at index {i}"
            )


def eta_max(column: Sequence[float]) -> NormalizedColumn:
    """Divide each value by the column maximum.

    The maximum maps to exactly 1.0; every output lies in (0, 1].
    """
    if not column:
        raise EmptyColumnError("eta_max: empty column")
    _require_positive(column, NormalizationMethod.MAX)
    top = max(column)
    return NormalizedColumn(tuple(v / top for v in column), NormalizationMethod.MAX)


def eta_sum(column: Sequence[float]) -> NormalizedColumn:
    """Divide each value by the column sum, yielding proportional shares."""
    if not column:
        raise EmptyColumnError("eta_sum: empty column")
    _require_positive(column, NormalizationMethod.SUM)
    total = math.fsum(column)
    return NormalizedColumn(tuple(v / total for v in column), NormalizationMethod.SUM)


def eta_map(column: Sequence[float]) -> NormalizedColumn:
    """Map the column range onto [0, 1]: minimum to 0, maximum to 1.

    An all-equal column carries no ordering information and maps to the
    neutral midpoint 0.5 everywhere. A range wider than the largest float
    raises OverflowError.
    """
    if not column:
        raise EmptyColumnError("eta_map: empty column")
    lo, hi = min(column), max(column)
    if lo == hi:
        return NormalizedColumn((0.5,) * len(column), NormalizationMethod.MAP)
    span = hi - lo
    if not math.isfinite(span):
        raise OverflowError(f"eta_map: range {lo!r} to {hi!r} overflows")
    return NormalizedColumn(tuple((v - lo) / span for v in column), NormalizationMethod.MAP)


def eta_zsc(column: Sequence[float], sample: bool = False) -> NormalizedColumn:
    """Standard score: subtract the mean, divide by the standard deviation.

    Uses the population deviation (divide by n) by default, since the
    platforms under evaluation form the whole population of interest;
    pass sample=True for the n-1 convention. A zero-spread column maps
    to 0 everywhere (every value *is* the mean).
    """
    n = len(column)
    if n < 2:
        raise EmptyColumnError("eta_zsc: need at least 2 values")
    # Exact all-equal check: a float std test would misfire when the mean
    # is not representable and deviations collapse to one tiny residual.
    if min(column) == max(column):
        return NormalizedColumn((0.0,) * n, NormalizationMethod.ZSC)
    mean = math.fsum(column) / n
    var = math.fsum((v - mean) ** 2 for v in column) / (n - 1 if sample else n)
    std = math.sqrt(var)
    if std == 0.0:  # squared deviations can underflow for subnormal spreads
        return NormalizedColumn((0.0,) * n, NormalizationMethod.ZSC)
    return NormalizedColumn(tuple((v - mean) / std for v in column), NormalizationMethod.ZSC)


def normalize(
    column: Sequence[float], method: NormalizationMethod, sample_std: bool = False
) -> NormalizedColumn:
    """Apply the named normalization technique to one column."""
    if method is NormalizationMethod.MAX:
        return eta_max(column)
    if method is NormalizationMethod.SUM:
        return eta_sum(column)
    if method is NormalizationMethod.MAP:
        return eta_map(column)
    return eta_zsc(column, sample=sample_std)
