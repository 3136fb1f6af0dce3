"""Combine feature matrices and weights into per-platform performance scores.

Two families of combination methods:

* weighted normalized sums - normalize each column (max, sum, map, or
  zsc technique), then sum weighted contributions. Less-is-better
  features contribute with a negative sign.
* weighted product - raw values raised to signed weight exponents and
  multiplied. Needs no normalization because per-column rescaling
  multiplies every platform's score by the same factor, leaving the
  ordering untouched.

Platforms with excluded (missing) cells have their remaining weights
renormalized to sum to 1, so scores stay on a comparable scale.

Every method reads one view per column, built once per call. An absent
cell holds a present value of its column and the weight 0.0, so it enters
a sum as a zero-weight term and the product as the unit factor x ** 0.0;
every score keeps the bits its present cells alone give it.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import compress, repeat
from operator import mul, not_, truediv
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    DimensionError, DomainError, EmptyColumnError, MissingValueError, ProductDomainError
)
from .ingest import FeatureMatrix, ResolvedMatrix, checked_make
from .normalize import NormalizationMethod, _apply, _plan

#: Combination-method tokens, in canonical presentation order.
METHODS = ("max", "sum", "map", "zsc", "product")


class WeightScheme(Enum):
    UNIFORM = "uniform"
    USER_DEFINED = "user_defined"


class _WeightVector(NamedTuple):
    weights: tuple[float, ...]
    scheme: WeightScheme


class WeightVector(_WeightVector):
    """Non-negative feature weights summing to 1."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, weights: tuple[float, ...], scheme: WeightScheme):
        if not weights:
            raise DimensionError("weight vector must not be empty")
        for w in weights:
            if not (math.isfinite(w) and w >= 0):
                raise DomainError(f"weights must be finite and non-negative, got {w!r}")
        total = math.fsum(weights)
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"weights must sum to 1, got {total!r}")
        return super().__new__(cls, weights, scheme)

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        if n < 1:
            raise DimensionError("need at least one feature")
        return cls(weights=(1.0 / n,) * n, scheme=WeightScheme.UNIFORM)

    @classmethod
    def user_defined(cls, weights: Sequence[float]) -> "WeightVector":
        return cls(weights=tuple(float(w) for w in weights), scheme=WeightScheme.USER_DEFINED)

    def __len__(self) -> int:
        return len(self.weights)


class _ScoreTable(NamedTuple):
    platforms: tuple[str, ...]
    columns: Mapping[str, Mapping[str, float]]


class ScoreTable(_ScoreTable):
    """Per-platform scores for each requested combination method."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, platforms: tuple[str, ...], columns: Mapping[str, Mapping[str, float]]):
        for method, column in columns.items():
            if tuple(column) != platforms:
                raise DimensionError(f"score column {method!r} does not cover all platforms")
            for platform, score in column.items():
                if not math.isfinite(score):
                    raise DomainError(f"non-finite score for {platform!r} under {method!r}")
        return super().__new__(cls, platforms, columns)

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(self.columns)


def _checked_mask(
    matrix: FeatureMatrix, weights: WeightVector, present: tuple[tuple[bool, ...], ...] | None
):
    """The presence mask, all-True when none is given, after checking its
    shape and that it marks every missing cell absent."""
    if len(weights) != len(matrix.features):
        raise DimensionError(f"{len(weights)} weights for {len(matrix.features)} features")
    if present is None:
        present = ((True,) * len(matrix.features),) * len(matrix.platforms)
    elif len(present) != len(matrix.platforms) or any(
        len(row) != len(matrix.features) for row in present
    ):
        raise DimensionError("presence mask shape does not match the matrix")
    for platform, row, mask in zip(matrix.platforms, matrix.values, present):
        if None in compress(row, mask):
            spec = next(s for s, c, ok in zip(matrix.features, row, mask) if ok and c is None)
            raise MissingValueError(
                f"cell ({platform!r}, {spec.name!r}) is missing but not marked absent; "
                "resolve missing cells or mark them absent in a presence mask"
            )
    return present


def _columns(matrix: FeatureMatrix, weights: WeightVector, present):
    """Per column (spec, mask, present values, their (min, max), the column
    with absent cells holding that min, each platform's signed weight, 0.0
    where absent), and the first platform with no weight on any present
    feature. Weights are sign * w / usable, with usable 1.0 for a complete
    row: the bits of sign * w there, and of sign * (w / usable) elsewhere."""
    present = _checked_mask(matrix, weights, present)
    usable = [1.0 if all(row) else math.fsum(compress(weights.weights, row)) for row in present]
    idle = next(compress(matrix.platforms, map(not_, usable)), None)
    usable = [total or 1.0 for total in usable]  # an idle platform's scores are never returned
    # one weight column per signed weight; +0.0 and -0.0 may share one, as
    # x * 0.0 is a zero that fsum drops either way and x ** 0.0 is 1.0
    bases: dict[float, list[float]] = {}
    columns = []
    signs = [spec.direction.sign for spec in matrix.features]
    for spec, signed, column, mask in zip(
        matrix.features, map(mul, signs, weights.weights), zip(*matrix.values), zip(*present)
    ):
        if signed not in bases:
            bases[signed] = list(map(truediv, repeat(signed), usable))
        found, filled, weights_j = column, column, bases[signed]
        if not all(mask):
            found = list(compress(column, mask))
        bounds = (min(found), max(found)) if found else (1.0, 1.0)  # 1.0 fills an empty one
        if found is not column:
            filled, weights_j = list(column), list(weights_j)
            for i in compress(range(len(mask)), map(not_, mask)):
                filled[i], weights_j[i] = bounds[0], 0.0
        columns.append((spec, mask, found, bounds, filled, weights_j))
    return columns, idle


def _sum_scores(platforms, columns, idle, method, sample_std) -> dict[str, float]:
    """Normalize each column over its present cells, then sum each platform's
    signed weighted values with fsum. An absent cell is a term of weight 0.0:
    fsum is correctly rounded, so neither it nor the order changes a bit."""
    terms = []
    for spec, mask, found, bounds, filled, weights_j in columns:
        what = f"feature {spec.name!r}: eta_{method.value}"
        if method.value in ("max", "sum") and bounds[0] <= 0:  # name the first value <= 0
            platform, value = next(
                (p, v) for p, v, ok in zip(platforms, filled, mask) if ok and v <= 0
            )
            raise DomainError(
                f"{what} requires strictly positive values; got {value!r} for platform {platform!r}"
            )
        try:
            plan = _plan(found, method, sample_std, bounds)
        except OverflowError:
            raise DomainError(
                f"feature {spec.name!r}: values too large for eta_{method.value}"
            ) from None
        except EmptyColumnError:
            need = "at least 2 present values" if method.value == "zsc" else "a present value"
            raise EmptyColumnError(f"{what} needs {need}") from None
        terms.append(map(mul, weights_j, _apply(plan, filled)))
    if idle is not None:
        raise DomainError(f"platform {idle!r} has no weight on any present feature")
    return dict(zip(platforms, map(math.fsum, zip(*terms))))


def _product_scores(platforms, columns, idle) -> dict[str, float]:
    """Multiply each platform's value ** (signed weight) in column order from
    1. An absent cell is the factor x ** 0.0, which is exactly 1.0. On a
    value <= 0 or an overflow, the row loop names the first bad cell in
    row-major order."""
    if idle is None and all(bounds[0] > 0 for _, _, _, bounds, _, _ in columns):
        factors = [map(pow, filled, weights_j) for _, _, _, _, filled, weights_j in columns]
        try:
            # math.prod starts from the int 1, and 1 * x is x exactly
            return dict(zip(platforms, map(math.prod, zip(*factors))))
        except OverflowError:
            pass
    for i, platform in enumerate(platforms):
        if platform == idle:
            raise DomainError(f"platform {platform!r} has no weight on any present feature")
        for spec, mask, _, _, filled, weights_j in columns:
            value, where = filled[i], f"({platform!r}, {spec.name!r})"
            if mask[i] and value <= 0:
                raise ProductDomainError(
                    f"weighted product needs positive values; got {value!r} at {where}"
                )
            try:  # an absent cell's power is value ** 0.0, which is 1.0
                value ** weights_j[i]
            except OverflowError:
                raise ProductDomainError(
                    f"weighted product overflows at {where}: {value!r}"
                ) from None


def weighted_sum(
    matrix: FeatureMatrix,
    weights: WeightVector,
    method: NormalizationMethod,
    present: tuple[tuple[bool, ...], ...] | None = None,
    sample_std: bool = False,
) -> dict[str, float]:
    """Weighted normalized sum scores, one per platform.

    Each feature column is normalized over the platforms that have it,
    then contributes sign * weight * normalized value to the platform
    score, where the sign is -1 for less-is-better features.
    """
    return _sum_scores(matrix.platforms, *_columns(matrix, weights, present), method, sample_std)


def weighted_product(
    matrix: FeatureMatrix,
    weights: WeightVector,
    present: tuple[tuple[bool, ...], ...] | None = None,
) -> dict[str, float]:
    """Weighted product scores over raw values: prod(value ** (sign * weight)).

    Values must be strictly positive; less-is-better features get negative
    exponents, so larger raw values shrink the score.
    """
    return _product_scores(matrix.platforms, *_columns(matrix, weights, present))


def score_table(
    resolved: ResolvedMatrix,
    weights: WeightVector,
    methods: Sequence[str],
    sample_std: bool = False,
) -> ScoreTable:
    """Run every requested combination method over a resolved matrix."""
    if not methods:
        raise DimensionError("no combination methods requested")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise DimensionError(f"unknown combination methods: {unknown}")
    platforms = resolved.matrix.platforms
    columns, idle = _columns(resolved.matrix, weights, resolved.present)
    return ScoreTable(
        platforms=platforms,
        columns={
            method: _product_scores(platforms, columns, idle)
            if method == "product"
            else _sum_scores(platforms, columns, idle, NormalizationMethod(method), sample_std)
            for method in methods
        },
    )
