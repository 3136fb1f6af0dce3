"""Autonomy coordinates and potential-autonomy distances.

A platform's overall standing is the point <level, performance> in
autonomy space: x is the categorical autonomy level (0..3), y the scalar
component-performance score for one combination method. The absolute
autonomy distance is the Euclidean distance of that point from the
origin; relative distance compares a platform against the strongest
(reference) platform.

``distances`` computes a method's report from its level and score columns;
``distance_report`` checks a set of ``NcapCoordinate`` records and wraps it.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import neg, sub
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

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
        try:  # a str or an int beyond the float range equals no level; isfinite refuses a complex
            level = x in _VALID_LEVELS and math.isfinite(x)
        except TypeError:
            level = False
        if not level:
            raise DomainError(f"autonomy level must be one of 0..3, got {x!r}")
        try:
            finite = math.isfinite(y)
        except (OverflowError, TypeError):  # an int beyond the float range, or no real
            finite = False
        if not finite:
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


def select_reference(coords: Sequence[NcapCoordinate]) -> str:
    """The reference platform of ``distance_report(coords)``: the one farthest
    from the origin, negative scores floored at zero, ties to the smallest id."""
    return distance_report(coords).reference


def relative_distance(coord: NcapCoordinate, ref: NcapCoordinate) -> float:
    """Euclidean distance between a platform's coordinate and the reference's."""
    if coord.method != ref.method:
        raise MethodMismatchError(
            f"cannot compare {coord.method!r} against {ref.method!r} coordinates"
        )
    return math.hypot(coord.x - ref.x, coord.y - ref.y)


def distance_report(coords: Sequence[NcapCoordinate]) -> DistanceReport:
    """Absolute distances, reference selection, and relative distances in one pass."""
    if not coords:
        raise EmptyInputError("select_reference: no coordinates given")
    platforms, levels, scores, methods = zip(*coords)
    if len(set(methods)) > 1:
        raise MethodMismatchError(f"mixed combination methods: {sorted(set(methods))}")
    if len(set(platforms)) < len(platforms):
        raise DimensionError(f"duplicate coordinate for platform {_first_repeat(platforms)!r}")
    return distances(methods[0], platforms, levels, scores)


def distances(
    method: str, platforms: Sequence[str], levels: Collection[float], scores: Collection[float]
) -> DistanceReport:
    """One method's report from its columns in platform order: distinct ids,
    levels in 0..3 and finite scores. The reference is the platform farthest
    from the origin with negative scores floored at zero, so a deeply negative
    score cannot pass for the best system; ties go to the smallest id."""
    floored = map(math.hypot, levels, map(max, scores, repeat(0.0)))
    # the ids are distinct, so the tuples never compare past the id
    _, reference, ref_x, ref_y = min(zip(map(neg, floored), platforms, levels, scores))
    absolute = dict(zip(platforms, map(math.hypot, levels, scores)))
    relative = map(math.hypot, map(sub, levels, repeat(ref_x)), map(sub, scores, repeat(ref_y)))
    return DistanceReport(method, absolute, reference, dict(zip(platforms, relative)))


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

