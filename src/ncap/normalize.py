"""Column-wise normalization techniques for heterogeneous feature values.

Four techniques are provided, all operating on one feature column at a time:
divide-by-maximum, divide-by-sum, range mapping to [0, 1], and the z-score
(standard score). Direction handling (more-is-better vs less-is-better) is
deliberately not done here; the aggregation layer applies signs.

Each technique is a plan per column, v -> (v - shift) / scale or a constant,
applied by C-level ``map``. Aggregation plans a column from its present
values and applies the plan to the whole column, absent cells filled.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import repeat
from operator import le, mul, sub, truediv
from typing import Iterator, NamedTuple, Sequence

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


def _plan(column: Sequence[float], method: NormalizationMethod, bounds=None):
    """How ``method`` maps ``column``: (shift, scale) for v -> (v - shift) / scale,
    with shift None for v -> v / scale, or the float every value maps to.
    ``bounds``, the (min, max) of a finite column that max and sum may take,
    skips the checks that otherwise name, for max and sum, the first v <= 0,
    and then the first non-finite value."""
    zsc = method is NormalizationMethod.ZSC
    if len(column) < 1 + zsc:
        raise EmptyColumnError(
            "eta_zsc: need at least 2 values" if zsc else f"eta_{method.value}: empty column"
        )
    if bounds is None:
        if method.value in ("max", "sum") and any(map(le, column, repeat(0))):
            i, v = next((i, v) for i, v in enumerate(column) if v <= 0)
            raise DomainError(
                f"eta_{method.value} requires strictly positive values; got {v!r} at index {i}"
            )
        if not all(map(math.isfinite, column)):
            i, v = next((i, v) for i, v in enumerate(column) if not math.isfinite(v))
            raise DomainError(f"eta_{method.value} requires finite values; got {v!r} at index {i}")
        bounds = min(column), max(column)
    lo, hi = bounds
    if method is NormalizationMethod.MAX:
        return None, hi
    if method is NormalizationMethod.SUM:
        return None, math.fsum(column)
    if method is NormalizationMethod.MAP:
        if lo == hi:
            return 0.5
        span = hi - lo
        if not math.isfinite(span):
            raise OverflowError(f"range {lo!r} to {hi!r} overflows")
        return lo, span
    # Exact all-equal check: a float std test would misfire when the mean
    # is not representable and deviations collapse to one tiny residual.
    if lo == hi:
        return 0.0
    n = len(column)
    mean = math.fsum(column) / n
    deviations = tuple(map(sub, column, repeat(mean)))
    # d * d is correctly rounded, so scaling a column by 2**k scales var by 4**k
    var = math.fsum(map(mul, deviations, deviations))
    if var == math.inf:  # a finite deviation's square overflowed
        raise OverflowError("squared deviations overflow")
    std = math.sqrt(var / n)
    # squared deviations can underflow for subnormal spreads
    return 0.0 if std == 0.0 else (mean, std)


def _apply(plan, column: Sequence[float]) -> Iterator[float]:
    """The plan's values for ``column``, lazily, in column order."""
    if isinstance(plan, float):
        return repeat(plan, len(column))
    shift, scale = plan
    if shift is not None:
        column = map(sub, column, repeat(shift))
    return map(truediv, column, repeat(scale))


def normalize(column: Sequence[float], method: NormalizationMethod) -> NormalizedColumn:
    """Apply the named normalization technique to one column. A method that
    is not a NormalizationMethod, a value that is no finite real, or a sum,
    range or square beyond the largest float raises DomainError naming it."""
    if not isinstance(method, NormalizationMethod):
        names = ", ".join(f"NormalizationMethod.{m.name}" for m in NormalizationMethod)
        raise DomainError(f"not a normalization method: {method!r}; expected one of {names}")
    try:
        plan = _plan(column, method)
    except OverflowError as exc:
        raise DomainError(f"eta_{method.value}: {exc}") from None
    except TypeError:  # a value that is no real number, or a column that is no sequence
        values = enumerate(column if isinstance(column, (list, tuple)) else ())
        bad = (f"{v!r} at index {i}" for i, v in values if not isinstance(v, (int, float)))
        got = next(bad, repr(column))
        raise DomainError(f"eta_{method.value} requires real values; got {got}") from None
    return NormalizedColumn(tuple(_apply(plan, column)), method)


def eta_max(column: Sequence[float]) -> NormalizedColumn:
    """Divide each value by the column maximum.

    The maximum maps to exactly 1.0; every output lies in (0, 1].
    """
    return normalize(column, NormalizationMethod.MAX)


def eta_sum(column: Sequence[float]) -> NormalizedColumn:
    """Divide each value by the column sum, yielding proportional shares."""
    return normalize(column, NormalizationMethod.SUM)


def eta_map(column: Sequence[float]) -> NormalizedColumn:
    """Map the column range onto [0, 1]: minimum to 0, maximum to 1.

    An all-equal column carries no ordering information and maps to the
    neutral midpoint 0.5 everywhere. A range wider than the largest float
    raises DomainError.
    """
    return normalize(column, NormalizationMethod.MAP)


def eta_zsc(column: Sequence[float]) -> NormalizedColumn:
    """Standard score: subtract the mean, divide by the standard deviation.

    Uses the population deviation (divide by n), since the platforms under
    evaluation form the whole population of interest. A zero-spread column
    maps to 0 everywhere (every value *is* the mean).
    """
    return normalize(column, NormalizationMethod.ZSC)
