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
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import compress, repeat
from operator import mul, truediv
from typing import Mapping, NamedTuple, Sequence

from .errors import DimensionError, DomainError, MissingValueError, ProductDomainError
from .ingest import FeatureMatrix, ResolvedMatrix, checked_make
from .normalize import NormalizationMethod, normalize

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
                    raise DomainError(
                        f"non-finite score for {platform!r} under {method!r}"
                    )
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
        present = tuple((True,) * len(matrix.features) for _ in matrix.platforms)
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


def _shared(matrix: FeatureMatrix, weights: WeightVector, present):
    """What every method shares: the signed weights sign * w, and each
    platform's weight on its present features (None for a complete row)."""
    signed = list(map(mul, [spec.direction.sign for spec in matrix.features], weights.weights))
    return signed, [None if all(row) else math.fsum(compress(weights.weights, row)) for row in present]


def _complete(shared) -> bool:
    """Whether no cell is absent, so every platform weighs by sign * w."""
    usable = shared[1]
    return usable.count(None) == len(usable)


def _weight_rows(platforms: Sequence[str], shared):
    """Each platform's signed effective weights, one row at a time: sign * w
    for a complete row, else (sign * w) / usable, which has the bits of
    sign * (w / usable). Entries of absent cells are never read."""
    signed, usable = shared
    for platform, total in zip(platforms, usable):
        if total is None:
            yield signed
        elif total <= 0:
            raise DomainError(f"platform {platform!r} has no weight on any present feature")
        else:
            yield list(map(truediv, signed, repeat(total)))


def _sum_scores(matrix, method, present, shared, sample_std) -> dict[str, float]:
    """Normalize each column over its present cells, then sum each platform's
    signed weighted values. A complete matrix forms the products a column
    at a time; fsum is correctly rounded, so their order changes no bit."""
    columns = []
    for spec, column, mask in zip(matrix.features, zip(*matrix.values), zip(*present)):
        try:
            normalized = normalize(list(compress(column, mask)), method, sample_std=sample_std)
        except OverflowError:
            raise DomainError(
                f"feature {spec.name!r}: values too large for eta_{method.value}"
            ) from None
        except DomainError:  # max and sum need positive values; name the first other one
            platform, value = next(
                (p, v) for p, v, ok in zip(matrix.platforms, column, mask) if ok and v <= 0
            )
            raise DomainError(
                f"feature {spec.name!r}: eta_{method.value} requires strictly positive "
                f"values; got {value!r} for platform {platform!r}"
            ) from None
        columns.append(normalized.values)
    if _complete(shared):
        terms = [map(mul, repeat(signed), column) for signed, column in zip(shared[0], columns)]
        return dict(zip(matrix.platforms, map(math.fsum, zip(*terms))))
    # each platform takes the next value of every column it is present in
    columns = list(map(iter, columns))
    return {
        platform: math.fsum(map(mul, compress(signed, row), map(next, compress(columns, row))))
        for platform, signed, row in zip(
            matrix.platforms, _weight_rows(matrix.platforms, shared), present
        )
    }


def _product_scores(matrix, present, shared) -> dict[str, float]:
    """Multiply each platform's value ** (signed weight) in column order from
    1.0. A complete matrix of positive values raises its columns in one
    pass each; on any other input, or an overflow, the row loop scores and
    names the first bad cell in row-major order."""
    if _complete(shared) and min(map(min, matrix.values)) > 0:
        factors = [
            map(pow, column, repeat(signed))
            for signed, column in zip(shared[0], zip(*matrix.values))
        ]
        try:
            # math.prod starts from the int 1, and 1 * x is x exactly
            return dict(zip(matrix.platforms, map(math.prod, zip(*factors))))
        except OverflowError:
            pass
    scores: dict[str, float] = {}
    rows = _weight_rows(matrix.platforms, shared)
    for platform, signed, values, row in zip(matrix.platforms, rows, matrix.values, present):
        score = 1.0
        for spec, exponent, value, ok in zip(matrix.features, signed, values, row):
            if not ok:
                continue
            if value <= 0:
                raise ProductDomainError(
                    f"weighted product needs positive values; "
                    f"got {value!r} at ({platform!r}, {spec.name!r})"
                )
            try:
                score *= value ** exponent
            except OverflowError:
                raise ProductDomainError(
                    f"weighted product overflows at ({platform!r}, {spec.name!r}): {value!r}"
                ) from None
        scores[platform] = score
    return scores


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
    present = _checked_mask(matrix, weights, present)
    return _sum_scores(matrix, method, present, _shared(matrix, weights, present), sample_std)


def weighted_product(
    matrix: FeatureMatrix,
    weights: WeightVector,
    present: tuple[tuple[bool, ...], ...] | None = None,
) -> dict[str, float]:
    """Weighted product scores over raw values: prod(value ** (sign * weight)).

    Values must be strictly positive; less-is-better features get negative
    exponents, so larger raw values shrink the score.
    """
    present = _checked_mask(matrix, weights, present)
    return _product_scores(matrix, present, _shared(matrix, weights, present))


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
    matrix = resolved.matrix
    present = _checked_mask(matrix, weights, resolved.present)
    shared = _shared(matrix, weights, present)
    columns: dict[str, dict[str, float]] = {}
    for method in methods:
        if method == "product":
            columns[method] = _product_scores(matrix, present, shared)
        else:
            columns[method] = _sum_scores(
                matrix, NormalizationMethod(method), present, shared, sample_std
            )
    return ScoreTable(platforms=matrix.platforms, columns=columns)
