import ast
import csv
import io
import math
import re
import sys
import tracemalloc
from collections.abc import Hashable
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import ncap.ingest

from ncap import (
    ConfigError,
    DegenerateColumnError,
    Direction,
    EncodingError,
    EvalConfig,
    FeatureMatrix,
    FeatureSpec,
    FormatError,
    MissingValuePolicy,
    MissingValueError,
    load_config,
    parse_feature_matrix_text,
    resolve_missing,
)


def spec(name, direction=Direction.MORE_IS_BETTER, encoding=None):
    return FeatureSpec(name=name, direction=direction, encoding=encoding)


def config(*specs):
    return EvalConfig(features=tuple(specs))


def matrix_of(columns: dict[str, list]) -> FeatureMatrix:
    names = list(columns)
    n_rows = len(next(iter(columns.values())))
    return FeatureMatrix(
        platforms=tuple(f"p{i}" for i in range(n_rows)),
        features=tuple(spec(n) for n in names),
        values=tuple(
            tuple(columns[n][i] for n in names) for i in range(n_rows)
        ),
    )


def test_encoding_token_lookup():
    cfg = config(spec("res", encoding={"FHD": 2073600}))
    m = parse_feature_matrix_text("platform,res\np0,FHD\n", cfg)
    assert m.values[0][0] == 2073600


def test_missing_tokens_become_missing():
    cfg = config(spec("a"), spec("b"), spec("c"))
    m = parse_feature_matrix_text("platform,a,b,c\np0,N/A,-,\n", cfg)
    assert m.values[0] == (None, None, None)


def test_unknown_token_names_row_and_column():
    cfg = config(spec("res", encoding={"FHD": 2073600}))
    with pytest.raises(EncodingError, match="line 2.*'res'.*'4k'"):
        parse_feature_matrix_text("platform,res\np0,4k\n", cfg)


def test_token_without_encoding_map_fails():
    cfg = config(spec("res"))
    with pytest.raises(EncodingError):
        parse_feature_matrix_text("platform,res\np0,FHD\n", cfg)


def test_dimension_mismatch():
    cfg = config(spec("a"), spec("b"))
    with pytest.raises(FormatError, match="line 3"):
        parse_feature_matrix_text("platform,a,b\np0,1,2\np1,1\n", cfg)


def test_duplicate_feature_name_in_header():
    cfg = config(spec("a"))
    with pytest.raises(FormatError, match="duplicate feature"):
        parse_feature_matrix_text("platform,a,a\np0,1,2\n", cfg)


def test_duplicate_platform_id():
    cfg = config(spec("a"))
    with pytest.raises(FormatError, match="duplicate platform"):
        parse_feature_matrix_text("platform,a\np0,1\np0,2\n", cfg)


def test_duplicates_are_named():
    cfg = config(spec("a"), spec("b"))
    with pytest.raises(FormatError, match=r"^duplicate feature name 'b'$"):
        parse_feature_matrix_text("platform,b,a,b,a\np0,1,2,3,4\n", cfg)
    with pytest.raises(FormatError, match=r"^duplicate platform id 'p1'$"):
        parse_feature_matrix_text("platform,a\np0,1\np1,2\np1,3\np0,4\n", cfg)


def test_undeclared_feature_is_config_error():
    cfg = config(spec("a"))
    with pytest.raises(ConfigError, match="'b'"):
        parse_feature_matrix_text("platform,a,b\np0,1,2\n", cfg)


def test_nonfinite_cell_rejected():
    cfg = config(spec("a"))
    with pytest.raises(FormatError, match="non-finite"):
        parse_feature_matrix_text("platform,a\np0,inf\n", cfg)


def test_empty_matrix_rejected():
    cfg = config(spec("a"))
    with pytest.raises(FormatError):
        parse_feature_matrix_text("", cfg)
    with pytest.raises(FormatError):
        parse_feature_matrix_text("platform,a\n", cfg)


@pytest.mark.parametrize(
    "values,detail",
    [
        (((1.0,),), "value grid has 1 rows for 2 platforms"),
        (((1.0,), (2.0, 3.0)), "row for 'p1' has 2 cells, expected 1"),
    ],
    ids=["rows", "width"],
)
def test_feature_matrix_grid_must_fit_its_platforms_and_features(values, detail):
    with pytest.raises(FormatError) as raised:
        FeatureMatrix(("p0", "p1"), (spec("a"),), values)
    assert (raised.type, str(raised.value)) == (FormatError, detail)


def test_benchmark_file_shape(benchmark_matrix):
    assert len(benchmark_matrix.platforms) == 7
    assert len(benchmark_matrix.features) == 10
    missing = benchmark_matrix.missing_cells()
    assert set(missing) == {
        ("UAS A", "thermal_resolution"),
        ("UAS C", "charge_time_min"),
        ("UAS C", "fov_deg"),
        ("UAS G", "charge_time_min"),
    }


def test_encoding_values_must_be_positive():
    with pytest.raises(ConfigError):
        FeatureSpec(name="res", direction=Direction.MORE_IS_BETTER, encoding={"HD": 0})
    with pytest.raises(ConfigError):
        FeatureSpec(name="res", direction=Direction.MORE_IS_BETTER, encoding={"HD": -5})


def test_config_boolean_weight_rejected(tmp_path):
    # YAML true loads as a Python bool, which is an int; it is not a weight
    path = tmp_path / "c.yaml"
    path.write_text(
        "features:\n  - name: a\n    direction: more_is_better\n"
        "weights: {a: true}\n"
    )
    with pytest.raises(ConfigError, match="weight for 'a'"):
        load_config(path)


def test_config_boolean_encoding_rejected(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(
        "features:\n  - name: res\n    direction: more_is_better\n"
        "    encoding: {HD: true}\n"
    )
    with pytest.raises(ConfigError, match="'HD'"):
        load_config(path)


def test_config_encoding_values_become_floats(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(
        "features:\n  - name: res\n    direction: more_is_better\n"
        "    encoding: {HD: 2, 4K: 8.5}\n"
    )
    (res,) = load_config(path).features
    assert res.encoding == {"HD": 2.0, "4K": 8.5}
    assert all(type(v) is float for v in res.encoding.values())


FEATURE_A = "features:\n  - {name: a, direction: more_is_better}\n"
PROFILE = "profiles:\n  p: {modeling: true, planning: true, execution: true"


@pytest.mark.parametrize(
    "text,message",
    [
        ("- features\n", "must be a mapping"),
        ("", "must be a mapping"),
        ("missing: mean\n", "non-empty 'features' list"),
        ("features: {a: 1}\n", "non-empty 'features' list"),
        ("features: [a]\n", "feature entry 1 must be a mapping"),
        ("features:\n  - {direction: more_is_better}\n", "feature entry 1 needs a 'name'"),
        (FEATURE_A + "  - {name: a, direction: less_is_better}\n", "'a' is declared more than once"),
        ("features:\n  - {name: a, direction: up}\n", "'a': direction must be one of"),
        ("features:\n  - {name: a}\n", "'a': direction must be one of"),
        (FEATURE_A[:-2] + ", encoding: [1]}\n", "'a': encoding must be a mapping"),
        (FEATURE_A + "weights: [1.0]\n", "weights must be a mapping"),
        (FEATURE_A + "  - {name: b, direction: more_is_better}\nweights: {a: 1.0}\n",
         r"weights missing for features: \['b'\]"),
        (FEATURE_A + "weights: {a: -1.0}\n", "weight for 'a' must be a non-negative"),
        (FEATURE_A + "weights: {a: 1.0, b: 0.0}\n", "weights: unknown key 'b'"),
        (FEATURE_A + "missing: drop\n", "missing policy must be one of"),
        (FEATURE_A + "profiles: []\n", "profiles must be a mapping"),
        (FEATURE_A + "profiles: {p: true}\n", "profile for 'p' must be a mapping"),
        (FEATURE_A + "profiles: {p: {modeling: true}}\n", "'p' needs boolean 'planning'"),
        (FEATURE_A + PROFILE + ", perception: 1}\n", "'p' needs boolean 'perception'"),
        (FEATURE_A + PROFILE + ", evidence: [x]}\n", "'p': evidence must be a mapping"),
        (FEATURE_A + PROFILE + ", evidence: {1: x, '1': y}}\n", "more than one key reads as '1'"),
        ("features:\n  - {name: ~, direction: more_is_better}\n", "feature name must not be null"),
        (FEATURE_A + PROFILE.replace(" p:", " ~:") + "}\n", "profiles: key must not be null"),
        (FEATURE_A[:-2] + ", encoding: {~: 1}}\n", "'a': encoding: key must not be null"),
        (FEATURE_A + PROFILE + ", evidence: {lidar: ~}}\n", "evidence for 'lidar' must not be null"),
        (FEATURE_A + PROFILE + ', evidence: {lidar: "\\ud800"}}\n',
         "line 4, column 75: ncap does not read an escape"),
    ],
    ids=[
        "top_level_list", "empty_file", "no_features", "features_mapping", "entry_scalar",
        "entry_without_name", "duplicate_name", "bad_direction", "no_direction",
        "encoding_list", "weights_list", "weight_absent", "weight_negative", "weight_unknown",
        "bad_policy", "profiles_list", "profile_scalar", "layer_absent", "perception_int",
        "evidence_list", "evidence_keys_equal_as_text", "null_name", "null_profile_key",
        "null_token", "null_note", "surrogate_note",
    ],
)
def test_config_rejected(tmp_path, text, message):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_config_null_sections_mean_none(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(FEATURE_A + "weights:\nmissing:\n" + PROFILE + ", evidence: }\n")
    cfg = load_config(path)
    assert (cfg.weights, cfg.missing) == (None, None)
    assert cfg.profiles["p"].evidence == {}
    path.write_text(FEATURE_A + "profiles:\n")
    assert load_config(path).profiles == {}


def test_config_null_unit_means_no_unit(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("features:\n  - {name: a, direction: more_is_better, unit: ~}\n")
    assert load_config(path).features[0].unit == ""


def test_config_keys_are_text(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(
        "features:\n  - {name: 7, direction: more_is_better, encoding: {1: 2, 2.5: 3}}\n"
        "weights: {7: 1}\n" + PROFILE.replace(" p:", " 12:") + ", evidence: {true: 4}}\n"
    )
    cfg = load_config(path)
    assert cfg.features[0].name == "7"
    assert cfg.features[0].encoding == {"1": 2.0, "2.5": 3.0}
    assert cfg.weights == {"7": 1.0}
    assert cfg.profiles["12"].evidence == {"True": "4"}


@pytest.mark.parametrize(
    "text,message",
    [
        ("features:\n  - {name: [a, b], direction: more_is_better}\n",
         "feature name must not be a list"),
        ("features:\n  - name: a\n    direction: more_is_better\n    unit: {x: 1}\n",
         "feature 'a': unit must not be a mapping"),
        ("features:\n  - name: a\n    direction: more_is_better\n    unit: [m, s]\n",
         "feature 'a': unit must not be a list"),
        (FEATURE_A + PROFILE + ", evidence: {modeling: [lidar, cam]}}\n",
         "profile for 'p': evidence for 'modeling' must not be a list"),
        (FEATURE_A + PROFILE + ", evidence: {modeling: [lidar, {cam: 2}]}}\n",
         "profile for 'p': evidence for 'modeling' must not be a list"),
    ],
    ids=["list_name", "mapping_unit", "list_unit", "list_note", "nested_note"],
)
def test_config_text_fields_reject_lists_and_mappings(tmp_path, text, message):
    """A name, unit or evidence note is text: a list or mapping there is not
    read as its Python repr."""
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == message


def test_csv_rows_report_the_line_each_row_starts_on():
    text = 'a, b\n\n"x\ny", 1\n\nz,2\n'
    assert list(ncap.ingest.csv_rows(text)) == [
        (1, ["a", "b"]), (3, ["x\ny", "1"]), (6, ["z", "2"])
    ]
    with pytest.raises(FormatError, match="line 6: expected 2 cells, got 3"):
        list(ncap.ingest.csv_rows(text.replace("z,2", "z,2,3")))
    with pytest.raises(FormatError, match="line 3: malformed CSV: ',' expected after"):
        list(ncap.ingest.csv_rows(text.replace('y",', 'y" ,')))
    with pytest.raises(FormatError, match="line 6: malformed CSV: unexpected end of data"):
        list(ncap.ingest.csv_rows(text.replace("z,2", 'z,"2')))


def test_csv_is_read_only_by_csv_rows():
    """csv.reader and csv.DictReader appear only in ingest.csv_rows, so every
    CSV input follows one rule for quotes, widths, blank rows and lines; and
    csv.writer only in ingest.csv_text, so every CSV output quotes one way."""
    readers, writers = [], []
    for path in sorted(Path(ncap.ingest.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> innermost enclosing function (walk visits outer ones first)
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, function.name) for node in ast.walk(function))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "csv":
                readers.append((path.name, "from csv import"))
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "csv"
            ):
                if node.attr in ("reader", "DictReader"):
                    readers.append((path.name, owner.get(node)))
                if node.attr in ("writer", "DictWriter"):
                    writers.append((path.name, owner.get(node)))
    assert readers == [("ingest.py", "csv_rows")]
    assert writers == [("ingest.py", "csv_text")]


def csv_rows_oracle(text):
    """csv_rows as it was when it read the text through io.StringIO."""
    reader = csv.reader(io.StringIO(text), strict=True)
    line, width = 1, None
    try:
        for row in reader:
            if row:
                cells = [cell.strip() for cell in row]
                width = width or len(cells)
                if len(cells) != width:
                    raise FormatError(f"line {line}: expected {width} cells, got {len(cells)}")
                yield line, cells
            line = reader.line_num + 1
    except csv.Error as exc:
        raise FormatError(f"line {line}: malformed CSV: {exc}") from None


def parse_cell_oracle(cell, spec, platform, line_no):
    """One cell as parse_feature_matrix_text read it, one call per cell."""
    if cell in ncap.ingest.MISSING_TOKENS:
        return None
    if spec.encoding and cell in spec.encoding:
        return spec.encoding[cell]
    try:
        return float(cell)
    except ValueError:
        raise EncodingError(
            f"line {line_no}, feature {spec.name!r}: no encoding for token {cell!r} "
            f"(platform {platform!r})"
        ) from None


def parse_oracle(text, cfg):
    """parse_feature_matrix_text cell by cell over csv_rows_oracle."""
    rows = csv_rows_oracle(text)
    _, header = next(rows, (1, []))
    declared = {spec.name: spec for spec in cfg.features}
    for name in header[1:]:
        if name not in declared:
            raise ConfigError(f"feature {name!r} is not declared in the config")
    specs = tuple(declared[name] for name in header[1:])
    platforms, grid = [], []
    for line_no, cells in rows:
        platform = cells[0]
        if not platform:
            raise FormatError(f"line {line_no}: empty platform id")
        platforms.append(platform)
        grid.append(
            tuple(
                parse_cell_oracle(cell, spec, platform, line_no)
                for spec, cell in zip(specs, cells[1:])
            )
        )
    return FeatureMatrix(platforms=tuple(platforms), features=specs, values=tuple(grid))


def result(read):
    """(repr of read()'s value, None), or (None, its NcapError's class and message)."""
    try:
        return repr(read()), None
    except ncap.NcapError as exc:
        return None, (type(exc), str(exc))


# quotes, separators and every character str.splitlines() splits at, of
# which io.StringIO splits at "\n" only
csv_texts = st.tuples(
    st.text(alphabet=',"\r\n\0\x0c\x1c\x85  ab', max_size=40), st.booleans()
).map(lambda drawn: drawn[0] + "\n" if drawn[1] else drawn[0])


@given(csv_texts)
@example('a,"b\r\nc"\x85,d \n\x0c\n"e",f')
@example('a,b\n"c,d')
@settings(max_examples=500)
def test_csv_rows_read_as_io_stringio_lines_read(text):
    assert result(lambda: list(ncap.ingest.csv_rows(text))) == result(
        lambda: list(csv_rows_oracle(text))
    )


def test_csv_rows_hold_no_copy_of_the_text():
    """io.StringIO keeps the text at 4 bytes a character; csv_rows reads it
    a line at a time."""
    row = ",".join(f"{i}.25" for i in range(40)) + "\n"
    text = row * (1_000_000 // len(row) + 1)
    assert len(text) >= 1_000_000 and text.isascii()
    tracemalloc.start()
    try:
        for _ in ncap.ingest.csv_rows(text):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text) / 2


def test_missing_token_wins_over_an_encoding_and_an_encoding_over_a_number():
    cfg = config(spec("a", encoding={"-": 5.0, "1": 9.0}))
    m = parse_feature_matrix_text("platform,a\np0,-\np1,1\np2,2\n", cfg)
    assert m.values == ((None,), (9.0,), (2.0,))


TOKENS = ["FHD", "4k", "-", "1", "N/A"]
matrix_cells = st.sampled_from(
    ["1", " 2.5 ", "-3", "0", "1_0", *TOKENS, "", "x", "1x", "nan", "inf", "-1e999", "1e999"]
)


@st.composite
def matrix_texts(draw):
    """A config over features f0.. with encodings that may list missing
    tokens or numbers, and a matrix text whose ids may be empty or repeat."""
    m = draw(st.integers(min_value=1, max_value=4))
    encodings = st.none() | st.dictionaries(
        st.sampled_from(TOKENS), st.sampled_from([1.0, 2.0, 7.5]), max_size=3
    )
    cfg = config(*(spec(f"f{j}", encoding=draw(encodings)) for j in range(m)))
    ids = st.sampled_from(["p0", "p1", "p2", "p3", "p4", ""])
    rows = draw(st.lists(st.tuples(ids, st.lists(matrix_cells, min_size=m, max_size=m)), max_size=5))
    lines = [",".join(["platform", *(f"f{j}" for j in range(m))])]
    lines += [",".join([platform, *row]) for platform, row in rows]
    return "\n".join(lines) + "\n", cfg


@given(matrix_texts())
@example(("platform,f0,f1\np0,1,x\np1,nan,y\n", config(spec("f0"), spec("f1"))))
@settings(max_examples=500)
def test_parse_feature_matrix_text_reads_as_the_per_cell_parser_read(drawn):
    text, cfg = drawn
    assert result(lambda: parse_feature_matrix_text(text, cfg)) == result(
        lambda: parse_oracle(text, cfg)
    )


def test_resolve_missing_column_mean():
    m = matrix_of({"a": [10.0, None, 20.0]})
    resolved = resolve_missing(m, MissingValuePolicy.COLUMN_MEAN)
    assert resolved.matrix.values == ((10.0,), (15.0,), (20.0,))
    assert resolved.present == ((True,), (True,), (True,))


def test_resolve_missing_error_mode():
    m = matrix_of({"a": [10.0, None, 20.0]})
    with pytest.raises(MissingValueError, match="'p1'.*'a'"):
        resolve_missing(m, MissingValuePolicy.ERROR)


def test_resolve_missing_error_names_the_first_missing_cell_row_by_row():
    m = matrix_of({"a": [1.0, 1.0, None], "b": [1.0, None, 1.0], "c": [1.0, None, None]})
    assert m.missing_cells()[0] == ("p1", "b")
    with pytest.raises(
        MissingValueError, match=r"^missing value at \('p1', 'b'\) under the error policy$"
    ):
        resolve_missing(m, MissingValuePolicy.ERROR)


def test_resolve_missing_degenerate_column():
    m = matrix_of({"a": [None, None], "b": [1.0, 2.0]})
    with pytest.raises(DegenerateColumnError, match="'a'"):
        resolve_missing(m, MissingValuePolicy.COLUMN_MEAN)
    with pytest.raises(DegenerateColumnError):
        resolve_missing(m, MissingValuePolicy.EXCLUDE)


def test_resolve_missing_takes_a_policy_not_its_name():
    m = matrix_of({"a": [10.0, None, 20.0]})
    with pytest.raises(ConfigError) as raised:
        resolve_missing(m, "mean")
    assert (raised.type, str(raised.value)) == (ConfigError, "not a missing-value policy: 'mean'")


def test_resolve_missing_exclude_mask():
    m = matrix_of({"a": [10.0, None], "b": [1.0, 2.0]})
    resolved = resolve_missing(m, MissingValuePolicy.EXCLUDE)
    assert resolved.present == ((True, True), (False, True))
    assert resolved.matrix is m


def test_resolve_missing_keeps_present_cells():
    m = matrix_of({"a": [10.0, None, 30.0], "b": [1.0, 2.0, 3.0]})
    for policy in (MissingValuePolicy.COLUMN_MEAN, MissingValuePolicy.EXCLUDE):
        resolved = resolve_missing(m, policy)
        for i, row in enumerate(m.values):
            for j, cell in enumerate(row):
                if cell is not None:
                    assert resolved.matrix.values[i][j] == cell


def test_resolve_missing_mean_leaves_a_complete_column_alone():
    # the mean of a complete column would overflow, but nothing needs it
    m = matrix_of({"a": [1e308, 1.5e308], "b": [1.0, None]})
    resolved = resolve_missing(m, MissingValuePolicy.COLUMN_MEAN)
    assert resolved.matrix.values == ((1e308, 1.0), (1.5e308, 1.0))
    complete = matrix_of({"a": [1e308, 1.5e308]})
    assert resolve_missing(complete, MissingValuePolicy.COLUMN_MEAN).matrix == complete


def mean_fill(column):
    """The value resolve_missing(mean) writes into the last cell of
    ``column``, which must be None."""
    m = matrix_of({"a": column})
    return resolve_missing(m, MissingValuePolicy.COLUMN_MEAN).matrix.values[-1][0]


def test_resolve_missing_mean_of_a_column_whose_sum_overflows():
    """The mean of finite values fits in a float even where their sum does not."""
    m = matrix_of({"a": [1e308, 1.5e308, None], "b": [1.0, 2.0, 3.0]})
    resolved = resolve_missing(m, MissingValuePolicy.COLUMN_MEAN)
    assert resolved.matrix.values == ((1e308, 1.0), (1.5e308, 2.0), (1.25e308, 3.0))
    # dividing by a power of two is exact, so the fill scales with the column;
    # fsum and / 3 round twice, so the fill is not 1.7e308 itself
    assert mean_fill([1.7e308] * 3 + [None]) == 4 * mean_fill([1.7e308 / 4] * 3 + [None])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
def test_resolve_missing_mean_fill_is_finite_and_keeps_its_bits(found):
    """Any column of finite values gets a finite fill, and one whose sum does
    not overflow gets fsum / n, the fill it always had."""
    fill = mean_fill([*found, None])
    assert math.isfinite(fill)
    try:
        expected = math.fsum(found) / len(found)
    except OverflowError:
        return
    assert fill == expected


def eager_mask(matrix):
    """The presence mask resolve_missing built and stored before it was derived."""
    return tuple(tuple(cell is not None for cell in row) for row in matrix.values)


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda m: st.lists(
            st.lists(st.sampled_from([None, -2.0, 0.0, 1.5, 1e300]), min_size=m, max_size=m),
            min_size=1,
            max_size=6,
        )
    ),
    st.sampled_from(list(MissingValuePolicy)),
)
def test_present_equals_the_eager_mask(rows, policy):
    m = matrix_of({f"f{j}": [row[j] for row in rows] for j in range(len(rows[0]))})
    try:
        resolved = resolve_missing(m, policy)
    except (MissingValueError, DegenerateColumnError):
        return
    # the eager mask was all-True under mean and the input's own mask otherwise
    expected = eager_mask(m)
    if policy is MissingValuePolicy.COLUMN_MEAN:
        expected = ((True,) * len(m.features),) * len(m.platforms)
    assert resolved.present == expected == eager_mask(resolved.matrix)
    assert type(resolved.present) is tuple and all(type(row) is tuple for row in resolved.present)


def serialize_feature_matrix(matrix):
    """The matrix as CSV text: missing cells empty, numbers by repr, so
    parse -> serialize -> parse is lossless."""
    rows = (
        [platform, *("" if cell is None else repr(cell) for cell in row)]
        for platform, row in zip(matrix.platforms, matrix.values)
    )
    return ncap.ingest.csv_text(["platform", *matrix.feature_names], rows)


cells = st.one_of(
    st.none(),
    st.floats(min_value=-1e9, max_value=1e9),
)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_parse_serialize_roundtrip(n_platforms, n_features, data):
    names = [f"f{j}" for j in range(n_features)]
    cfg = config(*[spec(n) for n in names])
    grid = [
        [data.draw(cells) for _ in range(n_features)]
        for _ in range(n_platforms)
    ]
    m = FeatureMatrix(
        platforms=tuple(f"p{i}" for i in range(n_platforms)),
        features=cfg.features,
        values=tuple(tuple(row) for row in grid),
    )
    text = serialize_feature_matrix(m)
    again = parse_feature_matrix_text(text, cfg)
    assert again == m
    assert serialize_feature_matrix(again) == text


def test_benchmark_roundtrip(benchmark_matrix, benchmark_config):
    text = serialize_feature_matrix(benchmark_matrix)
    assert parse_feature_matrix_text(text, benchmark_config) == benchmark_matrix


# ------------------------------------------------------------ yaml loader

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)


def read(text):
    """(value, None) of the line reader, or (None, the message of the
    ValueError with which it refuses the text)."""
    try:
        return ncap.ingest._yaml_value(text), None
    except ValueError as exc:
        return None, str(exc)


# how the problem of a text that the reader refuses, but that may be YAML,
# starts; and its place
UNREAD = "ncap does not read "
PLACE = re.compile(r"line (\d+), column (\d+): (.*)")


@given(documents, st.booleans())
@settings(max_examples=300, deadline=None)
def test_yaml_dumps_read_as_yaml_load_reads_them(document, flow):
    """A dump is read to the value yaml.load gives, with the same types and
    key order (repr tells True from 1 and 1.0, and orders keys), or refused
    at a place as YAML the reader does not read."""
    text = yaml.safe_dump(document, default_flow_style=flow, allow_unicode=True)
    expected = yaml.load(text, Loader=yaml.SafeLoader)
    value, error = read(text)
    if error is None:
        assert repr(value) == repr(expected)
    else:
        assert PLACE.fullmatch(error)[3].startswith(UNREAD), error


# text that does not start like a number, ints of at most 18 digits and
# finite floats: the plain scalars yaml.safe_dump writes for them are ones
# the line reader builds
words = st.text(alphabet="ab1 -_.#/é", max_size=12).filter(lambda w: w[:1] not in ("1", "-", "."))
word_keys = words.filter(bool)
word_documents = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**18) + 1, 10**18 - 1)
    | st.floats(allow_nan=False, allow_infinity=False)
    | words,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(word_keys, inner, max_size=4),
    max_leaves=20,
)


@given(
    st.dictionaries(word_keys, word_documents, min_size=1, max_size=4)
    | st.lists(word_documents, min_size=1, max_size=4)
)
@settings(max_examples=300, deadline=None)
def test_line_reader_reads_block_dumps_of_plain_text(document):
    """A block-style dump of words, decimal numbers, booleans and nulls is
    inside the subset: the line reader reads it without yaml.load, to what
    yaml.load gives."""
    text = yaml.safe_dump(document, default_flow_style=False, allow_unicode=True)
    value, error = read(text)
    assert error is None, text
    assert repr(value) == repr(yaml.load(text, Loader=yaml.SafeLoader))


# plain scalars YAML resolves to a date or number that cannot be built
UNBUILDABLE = ["2021-13-01", "2021-02-30", "0x_", "0b_", "2001-12-14t21:59:43.10-25:00"]
# scalars the line reader builds, and what it refuses: plain scalars it
# does not build (1_000, 1:20, timestamps), anchors, aliases, tags, merge
# and value keys, escapes, indicators and text a parser reads in more than
# one way. Few distinct tokens, so keys repeat.
BUILDABLE = [
    "a", "a b", "m/s", "x, y", "é", "true", "TRUE", "tRUE", "No", "yes", "null", "~", "~x",
    "1", "-7", "+1", "-0", "007", "08", "0o17", "1_000", "0x1F", "1:20", "1.5", "+.5", "-.5",
    "1.", "1e5", "1.0e+5", ".inf", "-.inf", "2001-12-14", "2001-12-14t21:59:43.10-05:00",
    "<x", "a:b", "a#b", "-a", "--", "-#", "-[x", "x]", "x[1]", "'1'", '"x"', "''", "'a #b'",
    '"x: y"', "9" * 30, "! 12",
]
RARE = [
    *UNBUILDABLE, "<<", "=", "!!str 5", "!!int 7", "!!timestamp 2021-13-01", "&x 3", "*x",
    "'it''s'", '"a\\"b"', "a: b", "a #b", "-", "- x", "? x", ":x", "x:", "|", "%x", "a" * 300,
]
yaml_nodes = st.recursive(
    st.sampled_from(BUILDABLE * 3 + RARE),
    lambda inner: st.tuples(
        st.sampled_from(["", "", "", "! ", "&y "]),
        st.lists(inner, max_size=4).map(lambda items: "[" + ", ".join(items) + "]")
        | st.lists(st.tuples(inner, inner), max_size=4).map(
            lambda pairs: "{" + ", ".join(f"{k} : {v}" for k, v in pairs) + "}"
        ),
    ).map("".join),
    max_leaves=12,
)
SCALAR = st.sampled_from(BUILDABLE * 3 + RARE)


@st.composite
def block_lines(draw, depth=0, indent=0, sequence=None):
    """A block mapping or sequence at ``indent`` as lines: values are scalars,
    flow nodes (one-line or nested) or blocks, under mapping keys either
    indented or not, and under "-" either compact or on lines of their own."""
    sequence = draw(st.booleans()) if sequence is None else sequence
    lines, pad = [], " " * indent
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["scalar", "scalar", "flow"] + ["map", "seq"] * (depth < 3)))
        head = f"{pad}-" if sequence else f"{pad}{draw(SCALAR)}:"
        if kind in ("scalar", "flow"):
            lines.append(f"{head} {draw(SCALAR if kind == 'scalar' else yaml_nodes)}")
            continue
        if sequence and draw(st.booleans()):  # compact: the block starts on the "-" row
            gap = draw(st.sampled_from([1, 1, 3]))
            inner = draw(block_lines(depth + 1, indent + 1 + gap, kind == "seq"))
            lines += [f"{head}{' ' * gap}{inner[0].lstrip(' ')}", *inner[1:]]
            continue
        indentless = kind == "seq" and not sequence
        step = draw(st.sampled_from([0, 1, 2, 2, 4] if indentless else [1, 2, 4]))
        lines += [head, *draw(block_lines(depth + 1, indent + step, kind == "seq"))]
    return lines


EDIT = st.tuples(
    st.sampled_from(
        ["comment", "trailing", "delete", "duplicate", "swap", "indent", "dedent", "insert"]
    ),
    st.integers(0, 99),
    st.integers(0, 99),
    st.sampled_from(["\t", "\r", "\ufeff", "\x85", "\x00", " ", "#", "'", '"', ": ", " #x",
                     "&a ", "*a", "!!str ", "---", "...", "%YAML 1.1", "- "]),
)


def edit(lines, edits):
    """``lines`` with comment lines, trailing comments and characters
    inserted, lines deleted, duplicated or swapped, and indents changed."""
    lines = list(lines)
    for op, i, j, text in edits:
        k = i % len(lines)
        if op == "comment":
            lines.insert(k, " " * (j % 6) + "# note")
        elif op == "trailing":
            lines[k] += " # c" if j % 2 else "   "
        elif op == "delete" and len(lines) > 1:
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, lines[k])
        elif op == "swap":
            m = j % len(lines)
            lines[k], lines[m] = lines[m], lines[k]
        elif op == "indent":
            lines[k] = " " + lines[k]
        elif op == "dedent":
            lines[k] = lines[k].removeprefix(" ")
        elif op == "insert":
            at = j % (len(lines[k]) + 1)
            lines[k] = lines[k][:at] + text + lines[k][at:]
    return lines


block_texts = st.tuples(block_lines(), st.lists(EDIT, max_size=3), st.sampled_from(["", "\n"])).map(
    lambda parts: "\n".join(edit(parts[0], parts[1])) + parts[2]
)


# a YAMLError, or an error PyYAML's constructors raise for text they cannot build
YAML_ERRORS = (yaml.YAMLError, ValueError, KeyError, AttributeError)


def outcome(read):
    """(value, None) or (None, its error) of read(), for YAML_ERRORS."""
    try:
        return read(), None
    except YAML_ERRORS as exc:
        return None, exc


def as_read(error, text):
    """The ValueError message load_config reports for a yaml.load error on
    ``text``: a refused character is placed where PyYAML's reader marks a
    space put in place of each."""
    if isinstance(error, yaml.reader.ReaderError):
        reader = yaml.reader.Reader(yaml.reader.Reader.NON_PRINTABLE.sub(" ", text))
        reader.forward(error.position)
        mark, problem = reader.get_mark(), str(error).partition("\n")[0]
    else:
        mark, problem = error.problem_mark, error.problem
    return f"line {mark.line + 1}, column {mark.column + 1}: {problem}"


MERGE = "tag:yaml.org,2002:merge"
YAML_LINES = re.compile("\r\n|[\r\n\x85\u2028\u2029]")


def repeats_a_key(text):
    """Whether one mapping node of ``text`` holds two equal keys, those a
    merge key ``<<`` brings in aside, with each key built on its own. A key
    that cannot be built, or is a list or mapping, equals no other."""

    def build(node):
        if node.tag == "tag:yaml.org,2002:value":  # "=" as a key is text
            return "="
        try:
            return yaml.SafeLoader("").construct_document(node)
        except YAML_ERRORS:
            return []

    todo, walked = [yaml.compose(text, Loader=yaml.SafeLoader)], set()
    while todo:
        node = todo.pop()
        if node is None or id(node) in walked:
            continue
        walked.add(id(node))
        if isinstance(node, yaml.MappingNode):
            keys = [build(key) for key, _ in node.value if key.tag != MERGE]
            keys = [key for key in keys if isinstance(key, Hashable)]
            if len(set(keys)) < len(keys):
                return True
            todo += [part for pair in node.value for part in pair]
        elif isinstance(node, yaml.SequenceNode):
            todo += node.value
    return False


@given(block_texts)
@example("a: [&x 3, &x 3]")  # a repeated anchor that no alias names
@example("a: {<<: {a: 1}, =: 2, [b]: 3}")
@example("a: [0x_, 2021-13-01]\nb: 0b_\n---\n1")
@example("a:\n  x: 2021-13-01\nb: 0x_\n")
@example("- a: 1\n  a: 2\n  b: 3\n  a: 4\n")
@example("a: {x: 1, y: 2, 'x': 3}")
@example("a: {1: x, 1.0: y}\n")
@example("a: {x: [1, {y: 2, y: 3}]}\n")
@example("b: &b {x: 1}\nc: {<<: *b, x: 2}\n")
@example("a: {<<: {x: 1, x: 2}}\n")
@example("? x:\n  ? x: a\na: a\na: a")  # keys first: a repeated key before an unhashable one
@example("\ra: 2021-13-01")  # "\r" breaks a line
@example("a: 1\r\nb: [x, y]\x85c: 'z'\u2028d:\u2029  - e\r")
@example("\ufeff- 2021-13-01")
@example("!!timestamp\t 2021-13-01: a")
@example("a: [!!timestamp 2\t021-13-01]")  # a tab inside a plain scalar
@example("\x00- No\n\x00- No")  # two refused characters
@example("a: x\n  y\n")  # a plain scalar over two lines
@example("- a\n  - b\n")
@example("a:b: c\n")
@example("'a' : 1\n")
@example("a: [x # c\n  , y]\n")
@settings(max_examples=400, deadline=None)
def test_config_text_reads_as_yaml_load_reads_it(text):
    """The reader reads a text only where yaml.load reads it, to the same
    value with the same types and key order, and no key repeats. Every
    other text fails at a line and column of the text: a character YAML
    refuses as yaml.load fails, a repeated key where one repeats, and a
    text that yaml.load reads without a repeated key only as YAML that the
    reader does not read."""
    value, error = read(text)
    expected, expected_error = outcome(lambda: yaml.load(text, Loader=yaml.SafeLoader))
    repeats, compose_error = outcome(lambda: repeats_a_key(text))
    if error is None:
        assert (repr(value), expected_error, repeats) == (repr(expected), None, False)
        return
    line, column, problem = PLACE.fullmatch(error).groups()
    lines = YAML_LINES.split(text)
    assert int(line) <= len(lines) and int(column) <= len(lines[int(line) - 1]) + 1, error
    if isinstance(compose_error, yaml.reader.ReaderError):
        assert error == as_read(compose_error, text)
    elif problem.startswith("repeated key "):
        assert repeats or compose_error is not None
    elif expected_error is None and not repeats:
        assert problem.startswith(UNREAD), error


def test_loading_a_config_leaves_no_memory_behind(tmp_path):
    """Nothing a load builds outlives it: no cache or memo grows across
    loads. The configs differ only in their platform names; the first load
    fills the interpreter's free lists, which the others then reuse."""
    paths = []
    for k in range(4):
        lines = ["features:", "  - {name: a, direction: more_is_better}", "profiles:"]
        lines += [
            f"  uas-{k}-{i}: {{modeling: {i % 2 == 0}, planning: false, execution: false}}"
            for i in range(300)
        ]
        paths.append(tmp_path / f"c{k}.yaml")
        paths[-1].write_text("\n".join(lines) + "\n")
    load_config(paths[0])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for path in paths[1:]:
            load_config(path)
        growth = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert growth < 10_000


FEATURE_ROWS = "features:\n  - name: a\n    direction: more_is_better\n"
# what each construct the reader refuses adds to FEATURE_ROWS, with the
# error it gives
REFUSED = {
    "anchor": ("    unit: &u m\n", "line 4, column 11: ncap does not read an anchor"),
    "alias": ("weights: {a: *w}\n", "line 4, column 14: ncap does not read an alias"),
    "tag": ("    unit: !!str 5\n", "line 4, column 11: ncap does not read a tag"),
    "block_scalar": (
        "    unit: |\n      m\n", "line 4, column 11: ncap does not read a block scalar"
    ),
    "scalar_over_lines": (
        "    unit: meters\n      per second\n",
        "line 5, column 7: ncap does not read a scalar over several lines",
    ),
    "scalar_below_its_key": (
        "    unit:\n      m\n",
        "line 5, column 7: ncap does not read a scalar on a row of its own",
    ),
    "quoted_over_lines": (
        "    unit: 'm\n      s'\n",
        "line 4, column 11: ncap does not read a quoted scalar over several lines",
    ),
    "double_quoted_escape": (
        '    unit: "m\\u00b2"\n', "line 4, column 13: ncap does not read an escape"
    ),
    "single_quoted_escape": (
        "    unit: 'it''s'\n", "line 4, column 14: ncap does not read an escape"
    ),
    "flow_over_lines": (
        "    unit: [m,\n      s]\n",
        "line 5, column 1: ncap does not read a flow collection over several lines",
    ),
    "tab": ("    unit: m\t# c\n", "line 4, column 12: ncap does not read a tab"),
    "byte_order_mark": (
        "    unit: \ufeffm\n", "line 4, column 11: ncap does not read a byte-order mark"
    ),
    "document_marker": ("...\n", "line 4, column 1: ncap does not read a document marker"),
    "directive": ("%TAG ! x\n", "line 4, column 1: ncap does not read a directive"),
    "question_key": ("? weights\n: {a: 1}\n", "line 4, column 1: ncap does not read a '?' key"),
    "merge_key": (
        "weights: {<<: {a: 1}}\n",
        "line 4, column 11: ncap does not read '<<' unquoted: quote it, or write a decimal number",
    ),
    "flow_key": ("weights: {[a]: 1}\n", "line 4, column 11: ncap does not read the key '[a]'"),
    **{
        name: (f"weights:\n  a: {number}\n", f"line 5, column 6: ncap does not read {number!r} "
               "unquoted: quote it, or write a decimal number")
        for name, number in [("hex", "0x1F"), ("underscores", "1_000"), ("sexagesimal", "1:20"),
                             ("infinity", ".inf"), ("impossible_date", "2021-13-01")]
    },
}


@pytest.mark.parametrize("case", REFUSED)
def test_yaml_beyond_the_reader_is_refused_at_its_place(tmp_path, case):
    """A config that uses YAML the reader does not read fails at the place
    of that construct, and names it, whether or not yaml.load reads it."""
    tail, error = REFUSED[case]
    path = tmp_path / "c.yaml"
    path.write_text(FEATURE_ROWS + tail, encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"cannot parse config {path}: {error}"


# configs whose read once hung on how PyYAML was built (libyaml read both
# tabs and refused the directive and the escape, which the pure loader
# read), with the error each gives now that ncap reads them itself
PARSE = "cannot parse config {path}: line 4, column "
INSTALL_CASES = {
    "tab_in_plain_scalar": ("    unit: m\ts\n", PARSE + "12: ncap does not read a tab"),
    "tab_after_tag": ("    unit: !!str\tx\n", PARSE + "16: ncap does not read a tab"),
    "yaml_1_0_directive": (
        "", "cannot parse config {path}: line 1, column 1: ncap does not read a directive"
    ),
    "surrogate_escape": ('    unit: "\\ud800"\n', PARSE + "12: ncap does not read an escape"),
    "nul": (
        "\x00\n", PARSE + "1: unacceptable character #x0000: special characters are not allowed"
    ),
}


@pytest.mark.parametrize("case", INSTALL_CASES)
def test_config_reads_the_same_with_and_without_libyaml(tmp_path, monkeypatch, case):
    """load_config gives the same error whether PyYAML has libyaml's
    CSafeLoader, lacks it, or is not installed."""
    tail, error = INSTALL_CASES[case]
    text = "features:\n  - name: a\n    direction: more_is_better\n" + tail
    path = tmp_path / "c.yaml"
    path.write_text(text if tail else f"%YAML 1.0\n---\n{text}")

    def read():
        with pytest.raises(ConfigError) as info:
            load_config(path)
        return str(info.value)

    assert read() == error.format(path=path)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert read() == error.format(path=path)
    monkeypatch.setitem(sys.modules, "yaml", None)
    assert read() == error.format(path=path)


def test_config_reads_the_same_at_every_yaml_line_break(tmp_path, benchmark_config_path):
    """\\r\\n, a lone \\r, \\x85, \\u2028 and \\u2029 each end a line, as "\\n" does."""
    text = benchmark_config_path.read_text("utf-8")
    path = tmp_path / "c.yaml"
    expected = repr(load_config(benchmark_config_path))
    for end in ("\r\n", "\r", "\x85", "\u2028", "\u2029"):
        path.write_text(text.replace("\n", end), encoding="utf-8", newline="")
        assert repr(load_config(path)) == expected


def test_error_after_generated_profiles_names_the_files_own_line(tmp_path, monkeypatch):
    """The profiles block that a generator writes is read apart from the
    rest of the config; an error after it still names the line of the file."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from cohort import CohortSpec, generate

    spec = CohortSpec(n=5, m=2, missing="mean", missing_frac=0.0, config_weights=True)
    text = generate(spec, 3)[1]
    assert ncap.ingest._canonical_profiles(text)[1]
    path = tmp_path / "c.yaml"
    line = text.count("\n") + 1
    for tail, problem in (("missing: mean\n", "column 1: repeated key 'missing'"),
                          ("extra: &x 1\n", "column 8: ncap does not read an anchor")):
        path.write_text(text + tail, encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"cannot parse config {path}: line {line}, {problem}"


# Validation passes against the per-element loops they replaced: each loop
# below is the check as it was, and each new pass must accept, reject and
# name the first fault exactly as it does.


def built_or_raised(build):
    """(repr of build()'s value, None), or (None, its exception's class and message)."""
    try:
        return repr(build()), None
    except Exception as exc:  # a bare OverflowError or TypeError is a result too
        return None, (type(exc), str(exc))


def feature_matrix_oracle(platforms, features, values):
    """FeatureMatrix's grid check as it scanned every cell of every row. A
    cell that math.isfinite refuses is named too: an int beyond the float
    range or a cell that is no real number."""
    for platform, row in zip(platforms, values):
        if len(row) != len(features):
            raise FormatError(
                f"row for {platform!r} has {len(row)} cells, expected {len(features)}"
            )
        for spec, cell in zip(features, row):
            if cell is None:
                continue
            try:
                if math.isfinite(cell):
                    continue
                problem = "non-finite value"
            except OverflowError:
                problem = "value beyond the float range"
            except TypeError:
                problem = "non-real value"
            raise FormatError(f"{problem} {cell!r} at ({platform!r}, {spec.name!r})")
    return platforms, features, values


# non-finite floats, finite ones whose plain sum overflows, ints beyond the
# float range, signed zeros, absent cells and cells that are no real number
GRID_CELLS = st.sampled_from(
    [math.inf, -math.inf, math.nan, 1.7e308, -1.7e308, 1e308, 10**400, -(10**400), 2**1024,
     2**1023, -0.0, 0.0, 0, None, 1.5, -3, 5e-324, "x", 1j]
)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(st.lists(GRID_CELLS, min_size=m, max_size=m), min_size=1, max_size=5)
    )
)
@example([[1.7e308, 1.7e308, math.inf]])  # the sum is already inf before the inf cell
@example([[1.7e308, -1.7e308, 1.7e308]])  # finite cells whose running sum overflows
@example([[1.5, 10**400, math.nan]])  # a nan after an int beyond the float range
@example([[10**400, -(10**400)]])  # ints beyond the float range whose int sum is 0
@settings(max_examples=500)
def test_feature_matrix_checks_rows_as_the_cell_scan_did(rows):
    platforms = tuple(f"p{i}" for i in range(len(rows)))
    features = tuple(spec(f"f{j}") for j in range(len(rows[0])))
    values = tuple(map(tuple, rows))
    built = built_or_raised(lambda: tuple(FeatureMatrix(platforms, features, values)))
    assert built == built_or_raised(lambda: feature_matrix_oracle(platforms, features, values))


@pytest.mark.parametrize(
    "cell, problem",
    [(10**400, "value beyond the float range"), ("x", "non-real value"), (1j, "non-real value")],
    ids=["huge_int", "str", "complex"],
)
def test_a_cell_that_is_no_finite_real_is_named(cell, problem):
    with pytest.raises(FormatError) as raised:
        FeatureMatrix(("p",), (spec("f"),), ((cell,),))
    assert str(raised.value) == f"{problem} {cell!r} at ('p', 'f')"


def parse_profiles_oracle(entries):
    """_parse_profiles as it checked every key and flag of every body."""
    if entries is None:
        return {}
    profiles, layers = {}, ("perception", "modeling", "planning", "execution")
    for platform, body in ncap.ingest._mapping(entries, "profiles").items():
        what = f"profile for {platform!r}"
        flags = {"perception": True, **ncap.ingest._mapping(body, what, (*layers, "evidence"))}
        evidence = flags.pop("evidence", None)
        for layer in layers:
            if not isinstance(flags.get(layer), bool):
                raise ConfigError(f"{what} needs boolean {layer!r}")
        evidence = {} if evidence is None else ncap.ingest._mapping(evidence, f"{what}: evidence")
        evidence = {
            key: ncap.ingest._text(note, f"{what}: evidence for {key!r}")
            for key, note in evidence.items()
        }
        profiles[platform] = ncap.CapabilityProfile(platform=platform, evidence=evidence, **flags)
    return profiles


LAYER_KEYS = ["perception", "modeling", "planning", "execution"]
# unknown, non-str and non-ASCII keys, and a str key that a non-str one reads as
ODD_KEYS = ["unknown", "Modeling", "modéling", "é", 1, "1", 1.5, True, None]
FLAGS = st.sampled_from(
    [True, False, True, False, None, 1, 0, 1.0, "true", "yes", [], {}, "\ud800"]
)
EVIDENCE = st.sampled_from(
    [None, {}, {"lidar": "x"}, {"lidar": None}, {1: "x", "1": "y"}, {"é": "note"},
     {"lidar": "\ud800"}, {"lidar": ["x"]}, ["x"], "x", 3]
)


@st.composite
def profile_bodies(draw):
    """A valid body (perception optional) with up to three edits: a flag or
    evidence set to an odd value, an odd key added, a key deleted; or, now
    and then, no mapping at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([None, True, "x", ["modeling"], 1]))
    body = {layer: draw(st.booleans()) for layer in LAYER_KEYS[1:]}
    if draw(st.booleans()):
        body["perception"] = draw(st.booleans())
    for op in draw(st.lists(st.sampled_from(["flag", "evidence", "key", "delete"]), max_size=3)):
        if op == "flag":
            body[draw(st.sampled_from(LAYER_KEYS))] = draw(FLAGS)
        elif op == "evidence":
            body["evidence"] = draw(EVIDENCE)
        elif op == "key":
            body[draw(st.sampled_from(ODD_KEYS))] = draw(FLAGS)
        elif body:
            del body[draw(st.sampled_from(sorted(body, key=str)))]
    return body


@given(
    st.none()
    | st.sampled_from([[], "x"])
    | st.dictionaries(st.sampled_from(["p0", "p1", "p2", "é", 7, None]), profile_bodies(),
                      max_size=4)
)
@example({"p0": {"modeling": True, "planning": True, "execution": True, "evidence": None}})
@example({"p0": {"modeling": True, "planning": True, "execution": 1}})
@settings(max_examples=1000)
def test_parse_profiles_reads_as_the_key_by_key_check_did(entries):
    assert built_or_raised(lambda: ncap.ingest._parse_profiles(entries)) == built_or_raised(
        lambda: parse_profiles_oracle(entries)
    )


def resolve_mean_oracle(matrix):
    """resolve_missing(mean)'s fill as it was: per column, a list of the
    present cells and a list with each None replaced by their mean."""
    columns = list(zip(*matrix.values))
    for j, column in enumerate(columns):
        if None in column:
            found = [cell for cell in column if cell is not None]
            try:
                mean = math.fsum(found) / len(found)
            except OverflowError:
                k = len(found).bit_length()
                mean = math.fsum(math.ldexp(cell, -k) for cell in found) / len(found) * 2.0**k
            columns[j] = [mean if cell is None else cell for cell in column]
    return tuple(zip(*columns))


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(
            st.lists(
                st.none() | st.sampled_from([-0.0, 0.0, 1e308, -1.7e308]) | st.floats(
                    allow_nan=False, allow_infinity=False
                ),
                min_size=m,
                max_size=m,
            ),
            min_size=1,
            max_size=7,
        )
    )
)
@settings(max_examples=500)
def test_resolve_missing_mean_fills_bit_for_bit_as_before(rows):
    m = matrix_of({f"f{j}": [row[j] for row in rows] for j in range(len(rows[0]))})
    if any(all(row[j] is None for row in rows) for j in range(len(rows[0]))):
        return  # a column with no present value is an error under every policy
    # repr tells -0.0 from 0.0 and writes every float's exact bits
    resolved = resolve_missing(m, MissingValuePolicy.COLUMN_MEAN).matrix.values
    assert repr(resolved) == repr(resolve_mean_oracle(m))


READER_WORDS = [*ncap.ingest._WORDS, "tRue", "nulls", "~~", "yEs", "of", "true:", "-", "'~'"]


@pytest.mark.parametrize("sequence", [False, True], ids=["mapping", "sequence"])
def test_reader_words_read_as_yaml_load_reads_them(sequence):
    """Each mapping value or sequence entry that is a word of true, false or
    null (YAML 1.1's yes, no, on and off among them), or a near miss, alone
    or with spaces or a comment after it, reads as yaml.load reads it."""
    for word in READER_WORDS:
        for tail in ("", " ", "  # c", " #c"):
            text = f"- {word}{tail}\n- x\n" if sequence else f"k: {word}{tail}\nz: x\n"
            try:
                expected = repr(yaml.load(text, Loader=yaml.SafeLoader))
            except yaml.YAMLError:
                expected = None
            value, error = read(text)
            assert (repr(value), error) == (expected, None) if expected else error, text


def read_whole(text):
    """_canonical_profiles declining every text, so that each is read whole."""
    return None, None


def test_generated_configs_take_the_one_pass_profiles_read(tmp_path, monkeypatch,
                                                           benchmark_config_path):
    """The configs that bench/cohort.py writes for the cohort workloads and a
    10^4-profile cohort read their profiles in one pass, into the config the
    whole read gives; the bundled config, whose profiles carry evidence, is
    read whole."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from cohort import generate
    from run import WORKLOADS

    specs = [WORKLOADS[name].cohort for name in ("cohort-tall", "cohort-wide-exclude")]
    specs.append(replace(specs[0], n=10_000))
    for k, cohort in enumerate(specs):
        path = tmp_path / f"c{k}.yaml"
        path.write_text(generate(cohort, 7)[1], "utf-8")
        raw, profiles = ncap.ingest._canonical_profiles(path.read_text("utf-8"))
        assert raw["profiles"] is None and len(profiles) == cohort.n
        taken = load_config(path)
        with monkeypatch.context() as patch:
            patch.setattr(ncap.ingest, "_canonical_profiles", read_whole)
            assert repr(load_config(path)) == repr(taken)
    text = benchmark_config_path.read_text("utf-8")
    assert ncap.ingest._canonical_profiles(text) == (None, None)
