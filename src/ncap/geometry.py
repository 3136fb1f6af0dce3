"""Autonomy coordinates and potential-autonomy distances.

A platform's overall standing is the point <level, performance> in
autonomy space: x is the categorical autonomy level (0..3), y the scalar
component-performance score for one combination method. The absolute
autonomy distance is the Euclidean distance of that point from the
origin; relative distance compares a platform against the strongest
(reference) platform.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DimensionError, DomainError, EmptyInputError, MethodMismatchError
from .ingest import _first_repeat, checked_make, csv_text

_VALID_LEVELS = (0.0, 1.0, 2.0, 3.0)


class _NcapCoordinate(NamedTuple):
    platform: str
    x: float  # autonomy level, 0..3
    y: float  # component-performance score; may be negative under z-scoring
    method: str


class NcapCoordinate(_NcapCoordinate):
    """One platform's position in autonomy space under one combination method."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, platform: str, x: float, y: float, method: str):
        if float(x) not in _VALID_LEVELS:
            raise DomainError(f"autonomy level must be one of 0..3, got {x!r}")
        if not math.isfinite(y):
            raise DomainError(f"performance score must be finite, got {y!r}")
        return super().__new__(cls, platform, x, y, method)


class DistanceReport(NamedTuple):
    """Absolute and reference-relative autonomy distances for one method."""

    method: str
    absolute: Mapping[str, float]
    reference: str
    relative: Mapping[str, float]


def autonomy_distance(coord: NcapCoordinate) -> float:
    """Euclidean distance from the coordinate to the origin <0, 0>."""
    return math.hypot(coord.x, coord.y)


def _reference_score(coord: NcapCoordinate) -> float:
    # A negative performance score must not inflate a platform's claim to
    # being the best system, so it contributes no distance when choosing
    # the reference. Reported distances are untouched by this floor.
    return math.hypot(coord.x, max(coord.y, 0.0))


def select_reference(coords: Sequence[NcapCoordinate]) -> str:
    """Pick the reference platform: the one farthest from the origin.

    Ties break toward the lexicographically smallest platform id, and
    negative performance scores are floored at zero for the comparison
    (see _reference_score). Expects one coordinate per platform, all for
    the same combination method.
    """
    if not coords:
        raise EmptyInputError("select_reference: no coordinates given")
    _check_single_method(coords)
    repeated = _first_repeat(c.platform for c in coords)
    if repeated is not None:
        raise DimensionError(f"duplicate coordinate for platform {repeated!r}")
    best = min(coords, key=lambda c: (-_reference_score(c), c.platform))
    return best.platform


def relative_distance(coord: NcapCoordinate, ref: NcapCoordinate) -> float:
    """Euclidean distance between a platform's coordinate and the reference's."""
    if coord.method != ref.method:
        raise MethodMismatchError(
            f"cannot compare {coord.method!r} against {ref.method!r} coordinates"
        )
    return math.hypot(coord.x - ref.x, coord.y - ref.y)


def distance_report(coords: Sequence[NcapCoordinate]) -> DistanceReport:
    """Absolute distances, reference selection, and relative distances in one pass."""
    reference = select_reference(coords)
    by_platform = {c.platform: c for c in coords}
    ref_coord = by_platform[reference]
    absolute = {c.platform: autonomy_distance(c) for c in coords}
    relative = {c.platform: relative_distance(c, ref_coord) for c in coords}
    return DistanceReport(
        method=coords[0].method, absolute=absolute, reference=reference, relative=relative
    )


PLOT_HEADER = "platform,method,n_al,n_cp"


def decimals(x: float, places: int) -> str:
    """``x`` rounded to ``places`` decimals, as fixed-point text without "-0";
    "%f" rounds the exact binary value half to even, as round() does."""
    text = "%.*f" % (places, x)
    return text[1:] if text[0] == "-" and not text.strip("-0.") else text


def coordinate_plot_data(coords: Iterable[NcapCoordinate]) -> str:
    """Render coordinates as CSV text for external plotting tools.

    Fixed 6-decimal precision, input order preserved, header always present;
    the same text as ``ncap plotdata``.
    """
    rows = ([c.platform, c.method, decimals(c.x, 6), decimals(c.y, 6)] for c in coords)
    return csv_text(PLOT_HEADER.split(","), rows)


def _check_single_method(coords: Sequence[NcapCoordinate]) -> None:
    methods = {c.method for c in coords}
    if len(methods) > 1:
        raise MethodMismatchError(f"mixed combination methods: {sorted(methods)}")
