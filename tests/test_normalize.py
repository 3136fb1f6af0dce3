import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncap import (
    DomainError,
    EmptyColumnError,
    NcapError,
    NormalizationMethod,
    eta_map,
    eta_max,
    eta_sum,
    eta_zsc,
    normalize,
)

# flight-time column of the bundled benchmark
FLIGHT_TIMES = [15.0, 10.0, 22.0, 32.0, 23.0, 30.0, 50.0]

positive_columns = st.lists(
    st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=20
)
real_columns = st.lists(
    st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=20
)


def test_eta_max_basic():
    assert eta_max([2, 4, 4]).values == (0.5, 1.0, 1.0)


def test_eta_max_singleton():
    assert eta_max([5]).values == (1.0,)


def test_eta_max_flight_times():
    got = eta_max(FLIGHT_TIMES).values
    expected = [0.30, 0.20, 0.44, 0.64, 0.46, 0.60, 1.00]
    assert got == pytest.approx(expected, abs=1e-12)


def test_eta_max_rejects_nonpositive():
    with pytest.raises(DomainError):
        eta_max([1.0, 0.0, 2.0])
    with pytest.raises(DomainError):
        eta_max([-1.0])


def test_eta_max_empty():
    with pytest.raises(EmptyColumnError):
        eta_max([])


def test_eta_sum_basic():
    assert eta_sum([2, 3, 5]).values == pytest.approx((0.2, 0.3, 0.5), abs=1e-15)


def test_eta_sum_uniform():
    assert eta_sum([1, 1, 1, 1]).values == (0.25, 0.25, 0.25, 0.25)


def test_eta_sum_flight_times():
    got = eta_sum(FLIGHT_TIMES).values
    expected = [0.0824, 0.0549, 0.1209, 0.1758, 0.1264, 0.1648, 0.2747]
    assert got == pytest.approx(expected, abs=1e-4)


def test_eta_map_basic():
    assert eta_map([2, 4, 6]).values == (0.0, 0.5, 1.0)


def test_eta_map_degenerate_is_midpoint():
    assert eta_map([7, 7]).values == (0.5, 0.5)


def test_eta_map_flight_times():
    got = eta_map(FLIGHT_TIMES).values
    expected = [0.125, 0.0, 0.30, 0.55, 0.325, 0.50, 1.0]
    assert got == pytest.approx(expected, abs=1e-12)


def test_eta_map_range_overflow_raises():
    with pytest.raises(DomainError, match="eta_map: range -1e\\+308 to 1e\\+308 overflows"):
        eta_map([1e308, -1e308])
    assert eta_map([1e308, 0.0]).values == (1.0, 0.0)


def test_eta_zsc_square_overflow_raises():
    # 1e200 * 1e200 is inf without an error, which would zero every z-score
    with pytest.raises(DomainError, match="eta_zsc: squared deviations overflow"):
        eta_zsc([1e200, -1e200])
    assert eta_zsc([1e150, -1e150]).values == (1.0, -1.0)


@pytest.mark.parametrize(
    "eta,column",
    [(eta_sum, [1e308, 1e308]), (eta_zsc, [1.7e308, 1.7e308, -1.7e308])],
    ids=["sum", "zsc"],
)
def test_sum_overflow_is_a_domain_error_naming_the_technique(eta, column):
    # math.fsum raises a bare OverflowError when a partial sum overflows
    with pytest.raises(DomainError, match=f"^{eta.__name__}: intermediate overflow in fsum$"):
        eta(column)


def test_eta_map_empty():
    with pytest.raises(EmptyColumnError):
        eta_map([])


def test_eta_zsc_basic():
    got = eta_zsc([1, 2, 3]).values
    assert got == pytest.approx((-1.2247, 0.0, 1.2247), abs=1e-4)


def test_eta_zsc_degenerate_is_zero():
    assert eta_zsc([5, 5, 5]).values == (0.0, 0.0, 0.0)


def test_eta_zsc_degenerate_unrepresentable_mean():
    # 0.1 has no exact binary representation; the all-equal shortcut must
    # still yield zeros rather than +-1 noise from residual deviations.
    assert eta_zsc([0.1, 0.1, 0.1]).values == (0.0, 0.0, 0.0)


def test_eta_zsc_two_points():
    assert eta_zsc([0, 10]).values == (-1.0, 1.0)


def test_eta_zsc_needs_two_values():
    with pytest.raises(EmptyColumnError):
        eta_zsc([4])


def test_normalize_dispatch():
    column = [1.0, 2.0, 4.0]
    assert normalize(column, NormalizationMethod.MAX) == eta_max(column)
    assert normalize(column, NormalizationMethod.SUM) == eta_sum(column)
    assert normalize(column, NormalizationMethod.MAP) == eta_map(column)
    assert normalize(column, NormalizationMethod.ZSC) == eta_zsc(column)


@given(positive_columns)
def test_eta_max_range_and_top(column):
    out = eta_max(column).values
    assert len(out) == len(column)
    assert all(0 < v <= 1 for v in out)
    assert max(out) == 1.0


@given(positive_columns)
def test_eta_sum_proportionality(column):
    out = eta_sum(column).values
    assert math.fsum(out) == pytest.approx(1.0, abs=1e-12)
    total = math.fsum(column)
    for v, o in zip(column, out):
        assert o == pytest.approx(v / total, rel=1e-12)


@given(real_columns)
def test_eta_map_range(column):
    out = eta_map(column).values
    assert all(0.0 <= v <= 1.0 for v in out)
    if min(column) != max(column):
        assert min(out) == 0.0 and max(out) == 1.0


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=20))
def test_eta_zsc_moments(column):
    assume(max(column) - min(column) > 0.01)
    out = eta_zsc(column).values
    n = len(out)
    assert math.fsum(out) / n == pytest.approx(0.0, abs=1e-9)
    assert math.fsum(v * v for v in out) / n == pytest.approx(1.0, rel=1e-9)


@given(positive_columns, st.floats(min_value=1e-3, max_value=1e3))
def test_scale_invariance(column, c):
    scaled = [c * v for v in column]
    for eta in (eta_max, eta_sum):
        base = eta(column).values
        again = eta(scaled).values
        for u, v in zip(base, again):
            assert v == pytest.approx(u, rel=1e-12, abs=1e-12)


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=20),
    st.floats(min_value=0.1, max_value=10),
    st.floats(min_value=-100, max_value=100),
)
def test_affine_invariance(column, a, b):
    assume(max(column) - min(column) > 0.01)
    mapped = [a * v + b for v in column]
    for eta in (eta_map, eta_zsc):
        base = eta(column).values
        again = eta(mapped).values
        for u, v in zip(base, again):
            assert v == pytest.approx(u, rel=1e-9, abs=1e-9)


@given(positive_columns)
def test_order_preservation_positive_domain(column):
    for eta in (eta_max, eta_sum):
        out = eta(column).values
        _assert_monotone(column, out)


@given(real_columns)
def test_order_preservation_real_domain(column):
    for eta in (eta_map, eta_zsc):
        out = eta(column).values
        _assert_monotone(column, out)


def _assert_monotone(column, out):
    for i in range(len(column)):
        for j in range(len(column)):
            if column[i] <= column[j]:
                assert out[i] <= out[j]


# ------------------------------------------------- differential oracle
#
# The four techniques as they were before they shared one plan applied by
# C-level map: a Python loop for positivity, then a generator per value.
# Every output keeps its bits, and every input that fails fails with the
# same exception and message.


def _require_positive_oracle(column, name):
    for i, v in enumerate(column):
        if v <= 0:
            raise DomainError(
                f"eta_{name} requires strictly positive values; got {v!r} at index {i}"
            )


def _fsum_oracle(values, name):
    try:
        return math.fsum(values)
    except OverflowError as exc:
        raise DomainError(f"eta_{name}: {exc}") from None


def _require_finite_oracle(column, name):
    for i, v in enumerate(column):
        if not math.isfinite(v):
            raise DomainError(f"eta_{name} requires finite values; got {v!r} at index {i}")


def eta_oracle(column, method):
    if method is NormalizationMethod.ZSC:
        n = len(column)
        if n < 2:
            raise EmptyColumnError("eta_zsc: need at least 2 values")
        _require_finite_oracle(column, "zsc")
        if min(column) == max(column):
            return (0.0,) * n
        mean = _fsum_oracle(column, "zsc") / n
        var = _fsum_oracle(((v - mean) * (v - mean) for v in column), "zsc")
        if var == math.inf:
            raise DomainError("eta_zsc: squared deviations overflow")
        std = math.sqrt(var / n)
        if std == 0.0:
            return (0.0,) * n
        return tuple((v - mean) / std for v in column)
    if not column:
        raise EmptyColumnError(f"eta_{method.value}: empty column")
    if method is NormalizationMethod.MAP:
        _require_finite_oracle(column, "map")
        lo, hi = min(column), max(column)
        if lo == hi:
            return (0.5,) * len(column)
        span = hi - lo
        if not math.isfinite(span):
            raise DomainError(f"eta_map: range {lo!r} to {hi!r} overflows")
        return tuple((v - lo) / span for v in column)
    _require_positive_oracle(column, method.value)
    _require_finite_oracle(column, method.value)
    top = max(column) if method is NormalizationMethod.MAX else _fsum_oracle(column, "sum")
    return tuple(v / top for v in column)


def _outcome(call):
    try:
        return [repr(v) for v in call()]
    except (NcapError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


# ties, both zeros, the smallest subnormal, huge values, NaN and infinities
ODD_VALUES = [1.0, 2.0, 2.0, 0.1, 3, -1.0, 0.0, -0.0, 5e-324, 1e308, -1e308, 1.5e308,
              math.nan, math.inf, -math.inf]


@given(
    st.lists(
        st.one_of(st.sampled_from(ODD_VALUES), st.floats(allow_nan=True)), max_size=12
    ),
    st.sampled_from(list(NormalizationMethod)),
)
@settings(max_examples=500)
def test_normalize_equals_oracle_bit_for_bit(column, method):
    got = _outcome(lambda: normalize(column, method).values)
    assert got == _outcome(lambda: eta_oracle(column, method))


@pytest.mark.parametrize("eta", [eta_max, eta_sum], ids=["max", "sum"])
def test_nonpositive_value_after_nan_is_rejected(eta):
    # min([nan, -1.0]) is nan, so a check on the minimum would let -1.0 by
    with pytest.raises(DomainError, match="got -1.0 at index 1"):
        eta([math.nan, -1.0])


@pytest.mark.parametrize(
    "eta, column, detail",
    [
        (eta_max, [1.0, math.inf], "eta_max requires finite values; got inf at index 1"),
        (eta_sum, [1.0, math.nan], "eta_sum requires finite values; got nan at index 1"),
        (eta_map, [-math.inf, 1.0], "eta_map requires finite values; got -inf at index 0"),
        (eta_zsc, [1.0, math.inf, 2.0], "eta_zsc requires finite values; got inf at index 1"),
        (eta_zsc, [1.0, 2.0, math.nan, math.inf], "got nan at index 2"),
    ],
)
def test_non_finite_value_is_named_with_its_index(eta, column, detail):
    with pytest.raises(DomainError, match=detail):
        eta(column)


@pytest.mark.parametrize(
    "eta, column, detail",
    [
        (eta_max, ["1", 2.0], "eta_max requires real values; got '1' at index 0"),
        (eta_map, [1.0, None], "eta_map requires real values; got None at index 1"),
        (eta_zsc, [1.0, 2.0, 1j], "eta_zsc requires real values; got 1j at index 2"),
        (eta_sum, None, "eta_sum requires real values; got None"),
    ],
    ids=["str", "none", "complex", "no_column"],
)
def test_a_value_that_is_no_real_number_is_named(eta, column, detail):
    with pytest.raises(DomainError) as raised:
        eta(column)
    assert str(raised.value) == detail


@pytest.mark.parametrize("method", ["max", None, 0])
def test_normalize_rejects_a_method_that_is_not_a_member(method):
    with pytest.raises(DomainError) as raised:
        normalize([1.0, 2.0], method)
    assert str(raised.value) == (
        f"not a normalization method: {method!r}; expected one of NormalizationMethod.MAX, "
        "NormalizationMethod.SUM, NormalizationMethod.MAP, NormalizationMethod.ZSC"
    )
