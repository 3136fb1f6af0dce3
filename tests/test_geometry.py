import csv
import io
import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from ncap import (
    METHODS,
    DimensionError,
    DistanceReport,
    DomainError,
    EmptyInputError,
    MethodMismatchError,
    NcapCoordinate,
    WeightVector,
    autonomy_distance,
    classify,
    coordinate_plot_data,
    distance_report,
    load_config,
    parse_feature_matrix,
    relative_distance,
    resolve_missing,
    score_table,
    select_reference,
)
from ncap.cli import main
from ncap.geometry import decimals

from golden import LEVELS, UNIFORM_SCORES


def coord(platform, x, y, method="sum"):
    return NcapCoordinate(platform=platform, x=x, y=y, method=method)


def sum_coords():
    return [
        coord(p, float(LEVELS[p]), UNIFORM_SCORES["sum"][p]) for p in UNIFORM_SCORES["sum"]
    ]


coordinates = st.builds(
    coord,
    st.sampled_from(["P1", "P2", "P3"]),
    st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    st.floats(min_value=-10, max_value=10),
)


def test_distance_origin():
    assert autonomy_distance(coord("X", 0.0, 0.0)) == 0.0


def test_distance_benchmark_reference():
    assert autonomy_distance(coord("E", 3.0, 0.14)) == pytest.approx(3.0033, abs=1e-4)


def test_distance_axis_aligned():
    assert autonomy_distance(coord("X", 0.0, 0.10)) == 0.10


def test_coordinate_validation():
    with pytest.raises(DomainError):
        coord("X", 1.5, 0.0)
    with pytest.raises(DomainError):
        coord("X", 1.0, float("nan"))


@pytest.mark.parametrize(
    "x, y, message",
    [
        ("1", 1.0, "autonomy level must be one of 0..3, got '1'"),
        (10**400, 1.0, f"autonomy level must be one of 0..3, got {10**400!r}"),
        (1 + 0j, 1.0, "autonomy level must be one of 0..3, got (1+0j)"),
        (1, 10**400, f"performance score must be finite, got {10**400!r}"),
        (1, "0.5", "performance score must be finite, got '0.5'"),
    ],
    ids=["str_level", "huge_int_level", "complex_level", "huge_int_score", "str_score"],
)
def test_a_coordinate_that_no_distance_can_read_is_refused(x, y, message):
    """Rejected at construction, where autonomy_distance would raise a bare
    TypeError or OverflowError later."""
    with pytest.raises(DomainError) as raised:
        coord("X", x, y)
    assert str(raised.value) == message


def test_select_reference_benchmark():
    assert select_reference(sum_coords()) == "UAS E"


def test_select_reference_singleton():
    assert select_reference([coord("only", 2.0, 0.5)]) == "only"


def test_select_reference_tie_is_lexicographic():
    pair = [coord("bbb", 2.0, 0.5), coord("aaa", 2.0, 0.5)]
    assert select_reference(pair) == "aaa"


def test_select_reference_ignores_negative_performance():
    # a deeply negative score must not out-distance a solid positive one
    pair = [coord("neg", 3.0, -5.0), coord("pos", 3.0, 1.0)]
    assert select_reference(pair) == "pos"


def test_select_reference_empty():
    with pytest.raises(EmptyInputError):
        select_reference([])


def test_relative_distance_same_level():
    a = coord("A", 3.0, 0.05)
    e = coord("E", 3.0, 0.14)
    assert relative_distance(a, e) == pytest.approx(0.09, abs=0.005)


def test_relative_distance_across_levels():
    b = coord("B", 1.0, 0.05)
    e = coord("E", 3.0, 0.14)
    assert relative_distance(b, e) == pytest.approx(2.0000, abs=0.005)


def test_relative_distance_to_self():
    e = coord("E", 3.0, 0.14)
    assert relative_distance(e, e) == 0.0


def test_relative_distance_method_mismatch():
    with pytest.raises(MethodMismatchError):
        relative_distance(coord("A", 1.0, 0.5, "max"), coord("B", 1.0, 0.5, "sum"))


def test_plot_data_empty():
    assert coordinate_plot_data([]) == "platform,method,n_al,n_cp\n"


def test_plot_data_single():
    out = coordinate_plot_data([coord("UAS E", 3.0, 4.63, "product")])
    assert out == "platform,method,n_al,n_cp\nUAS E,product,3.000000,4.630000\n"


def test_plot_data_has_no_negative_zero():
    out = coordinate_plot_data([coord("A", 1.0, -1e-9, "zsc"), coord("B", 0.0, -0.0)])
    assert out == "platform,method,n_al,n_cp\nA,zsc,1.000000,0.000000\nB,sum,0.000000,0.000000\n"


def test_plot_data_is_the_cli_plotdata_text(benchmark_matrix_path, benchmark_config_path, capsys):
    config = load_config(benchmark_config_path)
    resolved = resolve_missing(parse_feature_matrix(benchmark_matrix_path, config), config.missing)
    table = score_table(resolved, WeightVector.uniform(len(resolved.matrix.features)), METHODS)
    coords = [
        coord(p, float(classify(config.profiles[p]).value), table.columns[m][p], m)
        for m in METHODS
        for p in table.platforms
    ]
    argv = ["--matrix", str(benchmark_matrix_path), "--config", str(benchmark_config_path)]
    assert main(["plotdata", *argv]) == 0
    assert coordinate_plot_data(coords) == capsys.readouterr().out


def test_plot_data_order_preserved():
    coords = sum_coords()
    lines = coordinate_plot_data(coords).splitlines()
    assert len(lines) == 8
    assert [line.split(",")[0] for line in lines[1:]] == [c.platform for c in coords]


def test_plot_data_quotes_platform_ids():
    ids = ["x,y", 'say "hi"', "two\nlines", "plain"]
    coords = [coord(p, 1.0, 0.5) for p in ids]
    rows = list(csv.reader(io.StringIO(coordinate_plot_data(coords))))
    assert rows[0] == ["platform", "method", "n_al", "n_cp"]
    assert rows[1:] == [[p, "sum", "1.000000", "0.500000"] for p in ids]


def test_distance_report_reference_row_is_zero():
    report = distance_report(sum_coords())
    assert report.reference == "UAS E"
    assert report.relative["UAS E"] == 0.0
    assert all(v >= 0 for v in report.relative.values())
    assert all(v >= 0 for v in report.absolute.values())


@given(coordinates, coordinates)
def test_metric_symmetry_and_nonnegativity(a, b):
    d1 = relative_distance(a, b)
    d2 = relative_distance(b, a)
    assert d1 >= 0
    assert d1 == pytest.approx(d2, abs=1e-9)


@given(coordinates, coordinates, coordinates)
def test_metric_triangle_inequality(a, b, c):
    assert relative_distance(a, c) <= relative_distance(a, b) + relative_distance(b, c) + 1e-9


@given(coordinates, coordinates)
def test_reverse_triangle_inequality(a, ref):
    lhs = relative_distance(a, ref)
    rhs = abs(autonomy_distance(a) - autonomy_distance(ref))
    assert lhs >= rhs - 1e-9


@given(coordinates, coordinates)
def test_equal_level_reduces_to_score_gap(a, ref):
    if a.x == ref.x:
        assert relative_distance(a, ref) == abs(a.y - ref.y)


@given(coordinates)
def test_identity_of_indiscernibles(a):
    assert relative_distance(a, a) == 0.0
    away = coord(a.platform, a.x, a.y + 1.0, a.method)
    assert relative_distance(a, away) > 0


# ------------------------------------------------- the columnar report


def select_reference_oracle(coords):
    """select_reference as it was before distance_report read columns."""
    if not coords:
        raise EmptyInputError("select_reference: no coordinates given")
    methods = {c.method for c in coords}
    if len(methods) > 1:
        raise MethodMismatchError(f"mixed combination methods: {sorted(methods)}")
    seen = set()
    for c in coords:
        if c.platform in seen:
            raise DimensionError(f"duplicate coordinate for platform {c.platform!r}")
        seen.add(c.platform)
    best = min(coords, key=lambda c: (-math.hypot(c.x, max(c.y, 0.0)), c.platform))
    return best.platform


def distance_report_oracle(coords):
    """distance_report as it was before it read columns: a walk per field."""
    reference = select_reference_oracle(coords)
    ref = {c.platform: c for c in coords}[reference]
    absolute = {c.platform: math.hypot(c.x, c.y) for c in coords}
    relative = {c.platform: math.hypot(c.x - ref.x, c.y - ref.y) for c in coords}
    return DistanceReport(coords[0].method, absolute, reference, relative)


def _outcome(call):
    try:
        return call()
    except (DimensionError, EmptyInputError, MethodMismatchError) as exc:
        return type(exc), str(exc)


def _bits(report):
    """The report with every distance as float.hex, in key order."""
    parts = (report.absolute, report.relative)
    return report.method, report.reference, [[(p, d.hex()) for p, d in x.items()] for x in parts]


# ties, both zeros, the smallest subnormal, huge values, negatives the floor decides on
GEOMETRY_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.5, -0.5, 1.0, -4.0]),
    st.floats(min_value=-5, max_value=5),
    st.floats(allow_nan=False, allow_infinity=False),
)
GEOMETRY_LEVELS = st.sampled_from([0.0, 1.0, 2.0, 3.0, 0, 3])
IDS = st.sampled_from("ABCDEF")
GEOMETRY_COORDS = st.one_of(
    st.lists(
        st.builds(coord, IDS, GEOMETRY_LEVELS, GEOMETRY_SCORES),
        max_size=6,
        unique_by=lambda c: c.platform,
    ),
    # repeated ids and mixed methods
    st.lists(
        st.builds(coord, IDS, GEOMETRY_LEVELS, GEOMETRY_SCORES, st.sampled_from(["sum", "max"])),
        max_size=6,
    ),
)


@given(GEOMETRY_COORDS)
@example([coord("B", 3.0, -5.0), coord("C", 3.0, 1.0), coord("A", 2.0, -0.0)])  # floor picks C
@example([coord("only", 0.0, -1e300)])
@settings(max_examples=1000)
def test_distance_report_equals_record_oracle(coords):
    expected = _outcome(lambda: distance_report_oracle(coords))
    got = _outcome(lambda: distance_report(coords))
    assert _outcome(lambda: select_reference(coords)) == _outcome(
        lambda: select_reference_oracle(coords)
    )
    if not isinstance(expected, DistanceReport):
        assert got == expected
        return
    assert _bits(got) == _bits(expected)
    ref = next(c for c in coords if c.platform == got.reference)
    for c in coords:
        assert got.absolute[c.platform].hex() == autonomy_distance(c).hex()
        assert got.relative[c.platform].hex() == relative_distance(c, ref).hex()


REJECTIONS = [
    ([], EmptyInputError, "select_reference: no coordinates given"),
    (
        [coord("A", 1.0, 0.5, "sum"), coord("B", 1.0, 0.5, "max")],
        MethodMismatchError,
        "mixed combination methods: ['max', 'sum']",
    ),
    (
        [coord("B", 1.0, 0.5), coord("A", 2.0, 0.5), coord("A", 2.0, 0.5), coord("B", 0.0, 1.0)],
        DimensionError,
        "duplicate coordinate for platform 'A'",
    ),
    (
        [coord("A", 1.0, 0.5, "sum"), coord("A", 1.0, 0.5, "max")],
        MethodMismatchError,
        "mixed combination methods: ['max', 'sum']",
    ),
]


@pytest.mark.parametrize("report_of", [distance_report, select_reference])
@pytest.mark.parametrize(
    "coords,error,message", REJECTIONS, ids=["empty", "mixed", "repeat", "mixed_and_repeat"]
)
def test_rejections_name_the_first_fault(report_of, coords, error, message):
    with pytest.raises(error) as info:
        report_of(coords)
    assert str(info.value) == message


# ------------------------------------------------- the number formatter


def decimals_oracle(x, places):
    """decimals as it was before it formatted without rounding first."""
    v = round(x, places)
    return f"{0.0 if v == 0 else v:.{places}f}"


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


FORMATTED = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1).map(_double),  # every bit pattern
    st.integers(min_value=-10**9, max_value=10**9).map(lambda k: (k + 0.5) / 10**6),
    st.integers(min_value=-10**9, max_value=10**9).map(lambda k: (k + 0.5) / 100),
    st.integers(min_value=-10**6, max_value=10**6).map(lambda k: k / 128),
    st.floats(min_value=-1e-6, max_value=1e-6),  # round to -0 and +0
    st.sampled_from([5e-324, -5e-324, -0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf]),
)


@given(FORMATTED, st.sampled_from([2, 6]))
@settings(max_examples=2000)
def test_decimals_equals_round_then_format(x, places):
    assert decimals(x, places) == decimals_oracle(x, places)


@pytest.mark.parametrize("places", [2, 6])
def test_decimals_at_half_way_and_binary_fractions(places):
    # every (k + 1/2) / 10**places near zero, where the tie rule decides,
    # and every k / 128 below 100, which has an exact short binary form
    for k in range(-20_000, 20_000):
        for x in ((k + 0.5) / 10**places, k / 128):
            assert decimals(x, places) == decimals_oracle(x, places), x
    assert (decimals(-0.0000004, 6), decimals(-0.004, 2)) == ("0.000000", "0.00")
