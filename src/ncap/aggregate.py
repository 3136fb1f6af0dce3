"""Combine feature matrices and weights into per-platform performance scores.

Two families of combination methods:

* weighted normalized sums - normalize each column (max, sum, map, or
  zsc technique), then sum weighted contributions. Less-is-better
  features contribute with a negative sign.
* weighted product - raw values raised to signed weight exponents and
  multiplied. Needs no normalization because per-column rescaling
  multiplies every platform's score by the same factor, leaving the
  ordering untouched.

A None cell is absent, and a platform with absent cells has its remaining
weights renormalized to sum to 1, so scores stay on a comparable scale. A
``present`` mask, where one is given, must mark exactly the None cells absent.

Every method reads one view per column, built once per call. An absent
cell holds a present value of its column and the weight 0.0, so it enters
a sum as a zero-weight term and the product as the unit factor x ** 0.0;
every score keeps the bits its present cells alone give it.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import is_, is_not, mul, not_, truediv
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    DimensionError, DomainError, EmptyColumnError, MissingValueError, ProductDomainError
)
from .ingest import FeatureMatrix, ResolvedMatrix, checked_make
from .normalize import NormalizationMethod, _apply, _plan

#: Combination-method tokens, in canonical presentation order.
METHODS = ("max", "sum", "map", "zsc", "product")
#: Above this many cells x methods, score_table runs every second method on
#: a second CPU (see _fork.split). Forking broke even near 70,000 on a 2-CPU
#: machine; the margin pays the fork path's cold import (~3 ms).
_FORK_WORK = 100_000


class _WeightVector(NamedTuple):
    weights: tuple[float, ...]


class WeightVector(_WeightVector):
    """Non-negative feature weights summing to 1."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, weights: tuple[float, ...]):
        if not weights:
            raise DimensionError("weight vector must not be empty")
        for w in weights:
            if not (math.isfinite(w) and w >= 0):
                raise DomainError(f"weights must be finite and non-negative, got {w!r}")
        total = math.fsum(weights)
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"weights must sum to 1, got {total!r}")
        return super().__new__(cls, weights)

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        if n < 1:
            raise DimensionError("need at least one feature")
        return cls((1.0 / n,) * n)

    @classmethod
    def user_defined(cls, weights: Sequence[float]) -> "WeightVector":
        return cls(tuple(float(w) for w in weights))


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


def _columns(matrix: FeatureMatrix, weights: WeightVector):
    """Per column (spec, the column, its present values, their (min, max),
    the column with None cells holding that min, each platform's signed
    weight, 0.0 where absent), and the first platform with no weight on any
    present feature. Weights are sign * w / usable, with usable 1.0 for a
    complete row: the bits of sign * w there, of sign * (w / usable) elsewhere."""
    if len(weights.weights) != len(matrix.features):
        raise DimensionError(f"{len(weights.weights)} weights for {len(matrix.features)} features")
    usable = [
        math.fsum(compress(weights.weights, map(is_not, row, repeat(None)))) if None in row else 1.0
        for row in matrix.values
    ]
    idle = next(compress(matrix.platforms, map(not_, usable)), None)
    usable = [total or 1.0 for total in usable]  # an idle platform's scores are never returned
    # when every usable is 1.0, signed / 1.0 is signed: one float shared n times
    shared = usable.count(1.0) == len(usable)
    # one weight column per signed weight; +0.0 and -0.0 may share one, as
    # x * 0.0 is a zero that fsum drops either way and x ** 0.0 is 1.0
    bases: dict[float, list[float]] = {}
    columns = []
    signs = [spec.direction.sign for spec in matrix.features]
    for spec, signed, column in zip(
        matrix.features, map(mul, signs, weights.weights), zip(*matrix.values)
    ):
        if signed not in bases:
            bases[signed] = (
                [signed] * len(usable) if shared else list(map(truediv, repeat(signed), usable))
            )
        found, filled, weights_j = column, column, bases[signed]
        if None in column:
            found = list(compress(column, map(is_not, column, repeat(None))))
        bounds = (min(found), max(found)) if found else (1.0, 1.0)  # 1.0 fills an empty one
        if found is not column:
            filled, weights_j = list(column), list(weights_j)
            for i in compress(range(len(column)), map(is_, column, repeat(None))):
                filled[i], weights_j[i] = bounds[0], 0.0
        columns.append((spec, column, found, bounds, filled, weights_j))
    return columns, idle


def _checked(matrix: FeatureMatrix, weights: WeightVector, present):
    """The matrix's _columns, after checking that the presence mask (all-True
    when none is given) has its shape and marks exactly its None cells absent."""
    built = _columns(matrix, weights)
    n, m = len(matrix.platforms), len(matrix.features)
    present = ((True,) * m,) * n if present is None else present
    if len(present) != n or any(len(row) != m for row in present):
        raise DimensionError("presence mask shape does not match the matrix")
    for platform, row, mask in zip(matrix.platforms, matrix.values, present):
        if None in row or not all(mask):
            for spec, cell, ok in zip(matrix.features, row, mask):
                where = f"cell ({platform!r}, {spec.name!r})"
                if ok and cell is None:
                    raise MissingValueError(
                        f"{where} is missing but not marked absent; "
                        "resolve missing cells or mark them absent in a presence mask"
                    )
                if not ok and cell is not None:
                    raise MissingValueError(f"{where} holds {cell!r} but is marked absent")
    return built


def _sum_scores(platforms, columns, idle, method) -> list[float]:
    """Normalize each column over its present cells, then sum each platform's
    signed weighted values with fsum. An absent cell is a term of weight 0.0:
    fsum is correctly rounded, so neither it nor the order changes a bit."""
    terms, positive = [], method.value in ("max", "sum")
    for spec, column, found, bounds, filled, weights_j in columns:
        if positive and bounds[0] <= 0:  # name the first value <= 0
            platform, value = next(
                (p, v) for p, v in zip(platforms, column) if v is not None and v <= 0
            )
            raise DomainError(
                f"feature {spec.name!r}: eta_{method.value} requires strictly positive values; "
                f"got {value!r} for platform {platform!r}"
            )
        try:
            plan = _plan(found, method, bounds=bounds)
        except OverflowError:
            raise DomainError(
                f"feature {spec.name!r}: values too large for eta_{method.value}"
            ) from None
        except EmptyColumnError:
            need = "at least 2 present values" if method.value == "zsc" else "a present value"
            what = f"feature {spec.name!r}: eta_{method.value}"
            raise EmptyColumnError(f"{what} needs {need}") from None
        terms.append(map(mul, weights_j, _apply(plan, filled)))
    if idle is not None:
        raise DomainError(f"platform {idle!r} has no weight on any present feature")
    return list(map(math.fsum, zip(*terms)))


def _product_scores(platforms, columns, idle) -> list[float]:
    """Multiply each platform's value ** (signed weight) in column order from
    1. An absent cell is the factor x ** 0.0, which is exactly 1.0. On a
    value <= 0 or an overflow, the row loop names the first bad cell in
    row-major order."""
    if idle is None and all(bounds[0] > 0 for _, _, _, bounds, _, _ in columns):
        factors = [map(pow, filled, weights_j) for _, _, _, _, filled, weights_j in columns]
        try:
            # math.prod starts from the int 1, and 1 * x is x exactly
            return list(map(math.prod, zip(*factors)))
        except OverflowError:
            pass
    for i, platform in enumerate(platforms):
        if platform == idle:
            raise DomainError(f"platform {platform!r} has no weight on any present feature")
        for spec, column, _, _, filled, weights_j in columns:
            value, where = filled[i], f"({platform!r}, {spec.name!r})"
            if column[i] is not None and value <= 0:
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
) -> dict[str, float]:
    """Weighted normalized sum scores, one per platform.

    Each feature column is normalized over the platforms that have it,
    then contributes sign * weight * normalized value to the platform
    score, where the sign is -1 for less-is-better features.
    """
    scores = _sum_scores(matrix.platforms, *_checked(matrix, weights, present), method)
    return dict(zip(matrix.platforms, scores))


def weighted_product(
    matrix: FeatureMatrix,
    weights: WeightVector,
    present: tuple[tuple[bool, ...], ...] | None = None,
) -> dict[str, float]:
    """Weighted product scores over raw values: prod(value ** (sign * weight)).

    Values must be strictly positive; less-is-better features get negative
    exponents, so larger raw values shrink the score.
    """
    scores = _product_scores(matrix.platforms, *_checked(matrix, weights, present))
    return dict(zip(matrix.platforms, scores))


def score_table(
    resolved: ResolvedMatrix,
    weights: WeightVector,
    methods: Sequence[str],
) -> ScoreTable:
    """Run every requested combination method over a resolved matrix.

    Above _FORK_WORK cells x methods, a forked child runs every second
    method (ncap._fork.split); the scores and errors are the serial path's,
    bit for bit."""
    if not methods:
        raise DimensionError("no combination methods requested")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise DimensionError(f"unknown combination methods: {unknown}")
    platforms = resolved.matrix.platforms
    columns, idle = _columns(resolved.matrix, weights)

    def scores(method: str) -> list[float]:
        if method == "product":
            return _product_scores(platforms, columns, idle)
        return _sum_scores(platforms, columns, idle, NormalizationMethod(method))

    def column(values) -> dict[str, float]:
        return dict(zip(platforms, values))

    if len(platforms) * len(columns) * len(methods) > _FORK_WORK:
        from ._fork import split

        table = split(methods, scores, column)
    else:
        table = [column(scores(method)) for method in methods]
    return ScoreTable(platforms=platforms, columns=dict(zip(methods, table)))
