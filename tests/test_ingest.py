import ast
import tracemalloc
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
    serialize_feature_matrix,
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
        # libyaml refuses the escape as it parses; the pure loader reads it
        (FEATURE_A + PROFILE + ', evidence: {lidar: "\\ud800"}}\n',
         r"evidence for 'lidar' '\\ud800' is not valid UTF-8|invalid Unicode character escape"),
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


def test_resolve_missing_column_mean():
    m = matrix_of({"a": [10.0, None, 20.0]})
    resolved = resolve_missing(m, MissingValuePolicy.COLUMN_MEAN)
    assert resolved.matrix.column(0) == (10.0, 15.0, 20.0)
    assert resolved.complete


def test_resolve_missing_error_mode():
    m = matrix_of({"a": [10.0, None, 20.0]})
    with pytest.raises(MissingValueError, match="'p1'.*'a'"):
        resolve_missing(m, MissingValuePolicy.ERROR)


def test_resolve_missing_degenerate_column():
    m = matrix_of({"a": [None, None], "b": [1.0, 2.0]})
    with pytest.raises(DegenerateColumnError, match="'a'"):
        resolve_missing(m, MissingValuePolicy.COLUMN_MEAN)
    with pytest.raises(DegenerateColumnError):
        resolve_missing(m, MissingValuePolicy.EXCLUDE)


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


# ------------------------------------------------------------ yaml loaders

with_libyaml = pytest.mark.skipif(
    not yaml.__with_libyaml__, reason="PyYAML is built without libyaml"
)

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


def read_yaml(loader, text, load=yaml.load):
    """The value load_config reads from ``text`` with ``loader`` as its YAML
    loader; ``load`` stands in for yaml.load, None when the text must not
    need it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ncap.ingest, "YAML_LOADER", loader)
        patch.setattr(yaml, "load", load)
        return ncap.ingest._yaml_value(text)


@with_libyaml
@given(documents, st.booleans())
@settings(max_examples=300, deadline=None)
def test_libyaml_loads_what_the_pure_loader_loads(document, flow):
    """yaml.load under each loader, and the event builder under each without
    falling back to yaml.load, give one value, with the same types and key
    order (repr tells True from 1 and 1.0, and orders keys)."""
    text = yaml.safe_dump(document, default_flow_style=flow, allow_unicode=True)
    expected = yaml.load(text, Loader=yaml.SafeLoader)
    assert yaml.load(text, Loader=yaml.CSafeLoader) == expected
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        assert repr(read_yaml(loader, text, load=None)) == repr(expected)


def _value_error(text):
    with pytest.raises(ValueError) as info:
        yaml.safe_load(text)
    return str(info.value)


# plain scalars YAML resolves to a date or number that cannot be built, with
# the message yaml.load gives for each
UNBUILDABLE = {
    text: _value_error(text)
    for text in ("2021-13-01", "2021-02-30", "0x_", "0b_", "2001-12-14t21:59:43.10-25:00")
}
# flow-style YAML mixing what the event builder builds with what it leaves
# to yaml.load: anchors, aliases, explicit tags, merge and value keys,
# collection keys and a second document. Few distinct tokens, so keys repeat.
BUILDABLE = [
    "1", "-7", "0o17", "1_000", "0x1F", "1.5", "-.inf", "true", "No", "~", "a b", "'1'", '"x"',
    "2001-12-14", "2001-12-14t21:59:43.10-05:00", "! 12",
]
RARE = [*UNBUILDABLE, "<<", "=", "!!str 5", "!!int 7", "!!timestamp 2021-13-01", "&x 3", "*x"]
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
# one text in five holds a second document
yaml_texts = st.tuples(yaml_nodes, st.sampled_from([""] * 4 + ["\n---\n"]), yaml_nodes).map(
    lambda parts: parts[0] + (parts[1] + parts[2] if parts[1] else "")
)


def outcome(read):
    """(value, None) or (None, the YAMLError or ValueError) of read()."""
    try:
        return read(), None
    except (yaml.YAMLError, ValueError) as exc:
        return None, exc


@with_libyaml
@given(yaml_texts)
@example("[&x 3, &x 3]")  # a repeated anchor that no alias names
@example("{<<: {a: 1}, =: 2, [b]: 3}")
@example("[0x_, 2021-13-01]\n---\n1")
@settings(max_examples=400, deadline=None)
def test_yaml_outside_the_event_subset_reads_as_yaml_load_reads_it(text):
    """The same value, or the same exception class and message, as yaml.load
    under each loader. Where every event is in the subset and yaml.load meets
    an unbuildable scalar, the builder reports the first one, in document
    order, at its start; yaml.load reports its ValueError without a place."""
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        value, error = outcome(lambda: yaml.load(text, Loader=loader))
        got, got_error = outcome(lambda: read_yaml(loader, text))
        if error is None:
            assert (repr(got), got_error) == (repr(value), None)
        elif type(error) is ValueError and type(got_error) is yaml.constructor.ConstructorError:
            mark = got_error.problem_mark
            at = text.splitlines()[mark.line][mark.column:]
            assert [got_error.problem] == [m for t, m in UNBUILDABLE.items() if at.startswith(t)]
        else:
            assert (type(got_error), str(got_error)) == (type(error), str(error))


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


def load_with(loader, path, monkeypatch):
    monkeypatch.setattr(ncap.ingest, "YAML_LOADER", loader)
    return load_config(path)


@with_libyaml
def test_benchmark_config_equal_under_both_loaders(benchmark_config_path, monkeypatch):
    fast = load_with(yaml.CSafeLoader, benchmark_config_path, monkeypatch)
    assert fast == load_with(yaml.SafeLoader, benchmark_config_path, monkeypatch)


@with_libyaml
def test_profile_config_equal_under_both_loaders(tmp_path, monkeypatch):
    lines = [
        "features:",
        "  - name: res",
        "    direction: more_is_better",
        "    encoding: {'620x512': 317440, \"4k\": 8.2944e+6, FHD: 2073600}",
        "  - name: t",
        "    direction: less_is_better",
        "weights: {res: 0.25, t: 0.75}",
        "missing: exclude",
        "profiles:",
    ]
    for i in range(50):
        lines += [
            f"  uas-{i}:",
            f"    modeling: {'true' if i % 2 else 'false'}",
            f"    planning: {'yes' if i % 3 else 'no'}",
            "    execution: false",
            f"    evidence: {{modeling: 'note {i}: \"quoted\"'}}",
        ]
    path = tmp_path / "c.yaml"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    fast = load_with(yaml.CSafeLoader, path, monkeypatch)
    assert len(fast.profiles) == 50
    assert fast == load_with(yaml.SafeLoader, path, monkeypatch)


@with_libyaml
def test_load_config_parses_with_libyaml(benchmark_config_path, tmp_path, monkeypatch):
    """load_config builds the benchmark config from libyaml's events; a
    config with an anchor is parsed once more, by yaml.load."""
    calls = []

    def spy(name):
        function = getattr(yaml, name)

        def called(stream, Loader):
            calls.append((name, Loader))
            return function(stream, Loader)

        monkeypatch.setattr(yaml, name, called)

    spy("parse")
    spy("load")
    load_config(benchmark_config_path)
    assert calls == [("parse", yaml.CSafeLoader)]
    calls.clear()
    anchored = tmp_path / "c.yaml"
    anchored.write_text("features:\n  - &a {name: a, direction: more_is_better}\n")
    assert load_config(anchored).features[0].name == "a"
    assert calls == [("parse", yaml.CSafeLoader), ("load", yaml.CSafeLoader)]
