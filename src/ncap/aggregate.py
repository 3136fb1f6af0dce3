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
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .errors import DimensionError, DomainError, MissingValueError, ProductDomainError
from .ingest import FeatureMatrix, ResolvedMatrix
from .normalize import NormalizationMethod, normalize

#: Combination-method tokens, in canonical presentation order.
METHODS = ("max", "sum", "map", "zsc", "product")


class WeightScheme(Enum):
    UNIFORM = "uniform"
    USER_DEFINED = "user_defined"


@dataclass(frozen=True)
class WeightVector:
    """Non-negative feature weights summing to 1."""

    weights: tuple[float, ...]
    scheme: WeightScheme

    def __post_init__(self):
        if not self.weights:
            raise DimensionError("weight vector must not be empty")
        for w in self.weights:
            if not (math.isfinite(w) and w >= 0):
                raise DomainError(f"weights must be finite and non-negative, got {w!r}")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"weights must sum to 1, got {total!r}")

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


@dataclass(frozen=True)
class ScoreTable:
    """Per-platform scores for each requested combination method."""

    platforms: tuple[str, ...]
    columns: Mapping[str, Mapping[str, float]]

    def __post_init__(self):
        for method, column in self.columns.items():
            if tuple(column) != self.platforms:
                raise DimensionError(f"score column {method!r} does not cover all platforms")
            for platform, score in column.items():
                if not math.isfinite(score):
                    raise DomainError(
                        f"non-finite score for {platform!r} under {method!r}"
                    )

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(self.columns)


def _checked_mask(
    matrix: FeatureMatrix, weights: WeightVector, present: tuple[tuple[bool, ...], ...] | None
):
    """The presence mask, all-True when none is given, after checking shapes."""
    if len(weights) != len(matrix.features):
        raise DimensionError(f"{len(weights)} weights for {len(matrix.features)} features")
    if present is None:
        missing = matrix.missing_cells()
        if missing:
            platform, feature = missing[0]
            raise MissingValueError(
                f"matrix has missing cells (first at ({platform!r}, {feature!r})); "
                "resolve them or pass a presence mask"
            )
        return tuple((True,) * len(matrix.features) for _ in matrix.platforms)
    if len(present) != len(matrix.platforms) or any(
        len(row) != len(matrix.features) for row in present
    ):
        raise DimensionError("presence mask shape does not match the matrix")
    return present


def _platform_weights(
    weights: WeightVector, row_present: Sequence[bool], platform: str
) -> list[float]:
    """Effective weights for one platform; renormalized when cells are absent."""
    if all(row_present):
        return list(weights.weights)
    usable = math.fsum(w for w, ok in zip(weights.weights, row_present) if ok)
    if usable <= 0:
        raise DomainError(f"platform {platform!r} has no weight on any present feature")
    return [w / usable if ok else 0.0 for w, ok in zip(weights.weights, row_present)]


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

    # column-wise normalization over present cells only
    normalized: list[dict[int, float]] = []
    for j, spec in enumerate(matrix.features):
        holders = [i for i in range(len(matrix.platforms)) if present[i][j]]
        try:
            column = normalize(
                [matrix.values[i][j] for i in holders], method, sample_std=sample_std
            )
        except OverflowError:
            raise DomainError(
                f"feature {spec.name!r}: values too large for eta_{method.value}"
            ) from None
        normalized.append(dict(zip(holders, column.values)))

    scores: dict[str, float] = {}
    for i, platform in enumerate(matrix.platforms):
        w_eff = _platform_weights(weights, present[i], platform)
        scores[platform] = math.fsum(
            spec.direction.sign * w_eff[j] * normalized[j][i]
            for j, spec in enumerate(matrix.features)
            if present[i][j]
        )
    return scores


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

    scores: dict[str, float] = {}
    for i, platform in enumerate(matrix.platforms):
        w_eff = _platform_weights(weights, present[i], platform)
        score = 1.0
        for j, spec in enumerate(matrix.features):
            if not present[i][j]:
                continue
            value = matrix.values[i][j]
            if value <= 0:
                raise ProductDomainError(
                    f"weighted product needs positive values; "
                    f"got {value!r} at ({platform!r}, {spec.name!r})"
                )
            try:
                score *= value ** (spec.direction.sign * w_eff[j])
            except OverflowError:
                raise ProductDomainError(
                    f"weighted product overflows at ({platform!r}, {spec.name!r}): {value!r}"
                ) from None
        scores[platform] = score
    return scores


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
    matrix, present = resolved.matrix, resolved.present
    columns: dict[str, dict[str, float]] = {}
    for method in methods:
        if method == "product":
            columns[method] = weighted_product(matrix, weights, present)
        else:
            columns[method] = weighted_sum(
                matrix, weights, NormalizationMethod(method), present, sample_std=sample_std
            )
    return ScoreTable(platforms=matrix.platforms, columns=columns)
