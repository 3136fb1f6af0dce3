"""One rule for a finite real: every public name that takes a number returns
or raises an NcapError, and each record takes a lone value exactly when
``number_problem`` finds nothing wrong with it and the record's own range
rule holds."""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ncap import (
    Direction,
    FeatureMatrix,
    FeatureSpec,
    NcapCoordinate,
    NcapError,
    NormalizationMethod,
    ScoreTable,
    WeightVector,
    autonomy_distance,
    coordinate_plot_data,
    distance_report,
    eta_map,
    eta_max,
    eta_sum,
    eta_zsc,
    kendall_tau,
    normalize,
    rank_scores,
    relative_distance,
    select_reference,
)
from ncap.errors import number_problem

# numerals given as str, bools, ints and fractions beyond the float range,
# NaN and the infinities, a complex, None, exact reals, and plain numbers
NUMBERS = [
    "1", "0.5", True, False, 10**400, -(10**400), Fraction(10**400), math.nan, math.inf,
    -math.inf, 1j, None, Fraction(1, 2), Decimal("0.5"), Decimal("1"), 0, 1, 2, 3, -1.0, 0.0,
    0.5, 1.0, 1e308, -1e308,
]
A_NUMBER = st.sampled_from(NUMBERS)
ETA = {
    NormalizationMethod.MAX: eta_max,
    NormalizationMethod.SUM: eta_sum,
    NormalizationMethod.MAP: eta_map,
    NormalizationMethod.ZSC: eta_zsc,
}


def accepted(call, *args) -> bool:
    """Whether ``call(*args)`` returns. An NcapError is a refusal; any other
    exception fails the test."""
    try:
        call(*args)
    except NcapError:
        return False
    return True


@pytest.mark.parametrize(
    "value, problem",
    [
        (0.5, None),
        (True, None),
        (Decimal("0.5"), None),
        (math.nan, "non-finite value"),
        (-math.inf, "non-finite value"),
        (Decimal("sNaN"), "non-finite value"),
        (10**400, "value beyond the float range"),
        (Fraction(10**400), "value beyond the float range"),
        ("1", "non-real value"),
        (1j, "non-real value"),
        (None, "non-real value"),
    ],
)
def test_number_problem_names_what_a_value_is_instead(value, problem):
    assert number_problem(value) == problem


@given(A_NUMBER)
def test_each_record_takes_a_lone_value_by_the_one_rule(value):
    finite = number_problem(value) is None
    spec = FeatureSpec("f", Direction.MORE_IS_BETTER)
    assert accepted(ScoreTable, ("a",), {"m": {"a": value}}) == finite
    assert accepted(rank_scores, {"a": value, "b": 1.0}) == finite
    assert accepted(NcapCoordinate, "p", 1, value, "m") == finite
    assert accepted(NcapCoordinate, "p", value, 0.5, "m") == (finite and value in (0, 1, 2, 3))
    assert accepted(FeatureMatrix, ("p",), (spec,), ((value,),)) == (finite or value is None)
    # a config value must not be a YAML boolean, so no encoding is a bool
    positive = finite and not isinstance(value, bool) and value > 0
    assert accepted(FeatureSpec, "f", Direction.MORE_IS_BETTER, "", {"X": value}) == positive
    for others in ((), (0.5,)):
        weights = (value, *others)
        valid = finite and value >= 0 and abs(math.fsum(map(float, weights)) - 1.0) <= 1e-9
        assert accepted(WeightVector, weights) == valid
        assert accepted(WeightVector.user_defined, list(weights)) == valid
        if valid:
            assert all(type(w) is float for w in WeightVector(weights).weights)


@given(A_NUMBER)
def test_uniform_takes_an_int_feature_count(value):
    counts = isinstance(value, int) and 1 <= value <= sys.maxsize
    assert accepted(WeightVector.uniform, value) == counts


@given(st.lists(A_NUMBER, max_size=4), st.sampled_from(list(NormalizationMethod)))
def test_normalize_returns_or_raises_an_ncap_error(column, method):
    for values in (column, tuple(column)):
        assert accepted(normalize, values, method) == accepted(ETA[method], values)


@given(st.lists(A_NUMBER, min_size=1, max_size=4))
@example([math.nan, Decimal("0.5")])  # a Decimal signals on ordering against a NaN
def test_kendall_tau_returns_or_raises_an_ncap_error(ranks):
    a = {f"p{i}": rank for i, rank in enumerate(ranks)}
    b = {platform: i for i, platform in enumerate(reversed(list(a)))}
    accepted(kendall_tau, a, b)
    accepted(kendall_tau, b, a)


@given(st.lists(st.tuples(A_NUMBER, A_NUMBER), min_size=1, max_size=4))
def test_distances_of_accepted_coordinates_return(points):
    coords = []
    for i, (x, y) in enumerate(points):
        if accepted(NcapCoordinate, f"p{i}", x, y, "m"):
            coords.append(NcapCoordinate(f"p{i}", x, y, "m"))
    if not coords:
        return
    for coord in coords:
        assert type(coord.x) is type(coord.y) is float
        assert autonomy_distance(coord) >= 0
        assert relative_distance(coord, coords[0]) >= 0
    report = distance_report(coords)
    assert select_reference(coords) == report.reference
    assert coordinate_plot_data(coords).count("\n") == len(coords) + 1


def test_a_bool_is_a_level():
    """A bool is the int 0 or 1, levels included."""
    assert NcapCoordinate("p", True, 0.5, "m") == NcapCoordinate("p", 1.0, 0.5, "m")
    assert NcapCoordinate("p", False, True, "m") == ("p", 0.0, 1.0, "m")


def test_finite_coordinates_may_lie_an_infinite_distance_apart():
    """The difference of two scores near the float max overflows to inf."""
    far = NcapCoordinate("a", 1.0, 1e308, "m")
    assert relative_distance(far, NcapCoordinate("b", 0.0, -1e308, "m")) == math.inf
    assert math.isfinite(autonomy_distance(far))
