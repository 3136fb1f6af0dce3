import csv
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import ncap.ingest
from ncap.cli import main

from golden import (
    LEVELS,
    UNIFORM_RANKS,
    UNIFORM_RELATIVE,
    UNIFORM_SCORES,
    USER_RELATIVE,
    USER_SCORES,
    assert_ranks_match,
)

METHOD_LIST = "max,sum,map,zsc,product"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scores_csv(path, columns):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["platform", "method", "score", "rank"])
        for method, column in columns.items():
            for platform, score in column.items():
                writer.writerow([platform, method, repr(score), ""])
    return path


def single_feature_files(tmp_path, column, name="benchmark"):
    """Matrix with one positive feature equal to a shifted score column,
    so any combination method ranks platforms exactly like the column."""
    matrix = tmp_path / f"{name}.csv"
    rows = ["platform,composite"]
    rows += [f"{platform},{value + 2.0!r}" for platform, value in column.items()]
    matrix.write_text("\n".join(rows) + "\n")
    config = tmp_path / f"{name}.yaml"
    config.write_text(
        "features:\n  - name: composite\n    direction: more_is_better\n"
    )
    return matrix, config


def parse_csv(out):
    return list(csv.DictReader(io.StringIO(out)))


# ----------------------------------------------------------------- score


@pytest.mark.parametrize("method", ["max", "sum", "map", "zsc", "product"])
def test_score_reproduces_benchmark_rank_columns(tmp_path, capsys, method):
    matrix, config = single_feature_files(tmp_path, UNIFORM_SCORES[method])
    code, out, _ = run(
        capsys,
        "score", "--matrix", str(matrix), "--config", str(config),
        "--methods", method, "--format", "csv",
    )
    assert code == 0
    ranks = {row["platform"]: int(row["rank"]) for row in parse_csv(out)}
    assert_ranks_match(ranks, UNIFORM_RANKS[method], UNIFORM_SCORES[method])


def test_score_single_platform_all_ranks_one(tmp_path, capsys):
    matrix = tmp_path / "one.csv"
    matrix.write_text("platform,a,b\nsolo,3,4\n")
    config = tmp_path / "one.yaml"
    config.write_text(
        "features:\n"
        "  - name: a\n    direction: more_is_better\n"
        "  - name: b\n    direction: less_is_better\n"
    )
    code, out, _ = run(
        capsys,
        "score", "--matrix", str(matrix), "--config", str(config),
        "--methods", "max,sum,map,product", "--format", "csv",
    )
    assert code == 0
    assert all(row["rank"] == "1" for row in parse_csv(out))


def test_score_single_platform_zsc_is_clean_error(tmp_path, capsys):
    matrix = tmp_path / "one.csv"
    matrix.write_text("platform,a\nsolo,3\n")
    config = tmp_path / "one.yaml"
    config.write_text("features:\n  - name: a\n    direction: more_is_better\n")
    code, out, err = run(
        capsys,
        "score", "--matrix", str(matrix), "--config", str(config), "--methods", "zsc",
    )
    assert code == 1
    assert err.startswith("error: EmptyColumnError:")
    assert len(err.strip().splitlines()) == 1


def test_score_unknown_method_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["score", "--matrix", "x.csv", "--config", "y.yaml", "--methods", "best"])
    assert excinfo.value.code == 2


def test_score_benchmark_table_contains_ranks(benchmark_matrix_path, benchmark_config_path, capsys):
    code, out, _ = run(
        capsys,
        "score", "--matrix", str(benchmark_matrix_path),
        "--config", str(benchmark_config_path),
    )
    assert code == 0
    assert "(1)" in out and "UAS E" in out


# ----------------------------------------------------------------- level


def test_level_benchmark(benchmark_config_path, capsys):
    code, out, _ = run(
        capsys, "level", "--config", str(benchmark_config_path), "--format", "csv"
    )
    assert code == 0
    got = {row["platform"]: int(row["level"]) for row in parse_csv(out)}
    assert got == LEVELS


def test_level_all_false_is_zero(tmp_path, capsys):
    config = tmp_path / "c.yaml"
    config.write_text(
        "features:\n  - name: a\n    direction: more_is_better\n"
        "profiles:\n  inert:\n    modeling: false\n    planning: false\n    execution: false\n"
    )
    code, out, _ = run(capsys, "level", "--config", str(config), "--format", "csv")
    assert code == 0
    assert parse_csv(out)[0]["level"] == "0"


def test_level_missing_profile_is_error(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    matrix.write_text("platform,a\nghost,1\n")
    config = tmp_path / "c.yaml"
    config.write_text(
        "features:\n  - name: a\n    direction: more_is_better\n"
        "profiles:\n  other:\n    modeling: true\n    planning: false\n    execution: false\n"
    )
    code, _, err = run(
        capsys, "level", "--config", str(config), "--matrix", str(matrix)
    )
    assert code == 1
    assert err.startswith("error: ConfigError:")
    assert "ghost" in err


# -------------------------------------------------------------- distance


@pytest.mark.parametrize(
    "columns,relative",
    [(UNIFORM_SCORES, UNIFORM_RELATIVE), (USER_SCORES, USER_RELATIVE)],
    ids=["uniform", "user"],
)
def test_distance_reproduces_benchmark(tmp_path, capsys, benchmark_config_path, columns, relative):
    scores = write_scores_csv(tmp_path / "scores.csv", columns)
    code, out, _ = run(
        capsys,
        "distance", "--scores", str(scores), "--config", str(benchmark_config_path),
        "--methods", METHOD_LIST, "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 35
    for row in rows:
        expected = relative[row["method"]][row["platform"]]
        assert float(row["relative"]) == pytest.approx(expected, abs=0.02), row
        if row["platform"] == "UAS E":
            assert row["is_reference"] == "1"
            assert float(row["relative"]) == 0.0


def test_distance_single_platform_is_own_reference(tmp_path, capsys):
    scores = write_scores_csv(tmp_path / "s.csv", {"sum": {"solo": 0.4}})
    config = tmp_path / "c.yaml"
    config.write_text(
        "features:\n  - name: a\n    direction: more_is_better\n"
        "profiles:\n  solo:\n    modeling: true\n    planning: true\n    execution: false\n"
    )
    code, out, _ = run(
        capsys,
        "distance", "--scores", str(scores), "--config", str(config),
        "--methods", "sum", "--format", "csv",
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert row["is_reference"] == "1"
    assert float(row["relative"]) == 0.0


def test_distance_needs_matrix_or_scores(benchmark_config_path, capsys):
    code, _, err = run(capsys, "distance", "--config", str(benchmark_config_path))
    assert code == 1
    assert err.startswith("error: ConfigError:")


# -------------------------------------------------------------- plotdata


def test_plotdata_benchmark_row_count(tmp_path, capsys, benchmark_config_path):
    scores = write_scores_csv(tmp_path / "scores.csv", UNIFORM_SCORES)
    code, out, _ = run(
        capsys,
        "plotdata", "--scores", str(scores), "--config", str(benchmark_config_path),
        "--methods", METHOD_LIST,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "platform,method,n_al,n_cp"
    assert len(lines) == 1 + 35


def test_plotdata_from_matrix(benchmark_matrix_path, benchmark_config_path, capsys):
    code, out, _ = run(
        capsys,
        "plotdata", "--matrix", str(benchmark_matrix_path),
        "--config", str(benchmark_config_path), "--methods", "max",
    )
    assert code == 0
    assert len(out.splitlines()) == 8


def test_duplicate_methods_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["compare", "--scores", "s.csv", "--methods", "max,sum,max"])
    assert excinfo.value.code == 2
    assert "methods named more than once: max" in capsys.readouterr().err


def test_plotdata_empty_method_list_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["plotdata", "--scores", "s.csv", "--config", "c.yaml", "--methods", ""])
    assert excinfo.value.code == 2


# --------------------------------------------------------------- compare


def test_compare_benchmark_consensus(tmp_path, capsys):
    scores = write_scores_csv(tmp_path / "scores.csv", UNIFORM_SCORES)
    code, out, _ = run(
        capsys, "compare", "--scores", str(scores), "--methods", METHOD_LIST
    )
    assert code == 0
    assert "rank 1: UAS E" in out


def test_compare_table_without_unanimous_rank(tmp_path, capsys):
    scores = write_scores_csv(
        tmp_path / "s.csv", {"max": {"p0": 1.0, "p1": 2.0}, "sum": {"p0": 2.0, "p1": 1.0}}
    )
    code, out, _ = run(capsys, "compare", "--scores", str(scores), "--methods", "max,sum")
    assert code == 0
    assert out == (
        "tau  max    sum\n"
        "max  1.00   -1.00\n"
        "sum  -1.00  1.00\n"
        "unanimous ranks: none\n"
    )


def test_compare_needs_two_methods(tmp_path, capsys):
    scores = write_scores_csv(tmp_path / "scores.csv", UNIFORM_SCORES)
    code, _, err = run(capsys, "compare", "--scores", str(scores), "--methods", "max")
    assert code == 1
    assert err.startswith("error: InsufficientMethodsError:")


# ----------------------------------------------------------- determinism


def test_score_and_distance_outputs_are_deterministic(
    tmp_path, benchmark_matrix_path, benchmark_config_path
):
    outputs = []
    for attempt in range(2):
        score_out = tmp_path / f"score{attempt}.csv"
        dist_out = tmp_path / f"dist{attempt}.txt"
        assert main([
            "score", "--matrix", str(benchmark_matrix_path),
            "--config", str(benchmark_config_path), "--weights", "config",
            "--format", "csv", "--out", str(score_out),
        ]) == 0
        assert main([
            "distance", "--matrix", str(benchmark_matrix_path),
            "--config", str(benchmark_config_path), "--out", str(dist_out),
        ]) == 0
        outputs.append((score_out.read_bytes(), dist_out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_plotdata_is_deterministic(tmp_path, benchmark_matrix_path, benchmark_config_path):
    outs = []
    for attempt in range(2):
        out = tmp_path / f"plot{attempt}.csv"
        assert main([
            "plotdata", "--matrix", str(benchmark_matrix_path),
            "--config", str(benchmark_config_path), "--out", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_missing_input_file_is_single_line_error(capsys):
    code, _, err = run(
        capsys, "score", "--matrix", "nope.csv", "--config", "nope.yaml"
    )
    assert code == 1
    assert err.startswith("error: ConfigError:")
    assert len(err.strip().splitlines()) == 1


# --------------------------------------------------- formats, output bytes


def test_score_jsonl_output(benchmark_matrix_path, benchmark_config_path, capsys):
    code, out, _ = run(
        capsys,
        "score", "--matrix", str(benchmark_matrix_path),
        "--config", str(benchmark_config_path), "--format", "jsonl",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 7
    assert lines[0]["platform"] == "UAS A"
    assert set(lines[0]["scores"]) == {"max", "sum", "map", "zsc", "product"}
    assert lines[0]["ranks"]["max"] in range(1, 8)


def test_distance_jsonl_output(tmp_path, benchmark_config_path, capsys):
    scores = write_scores_csv(tmp_path / "s.csv", {"sum": UNIFORM_SCORES["sum"]})
    code, out, _ = run(
        capsys,
        "distance", "--scores", str(scores), "--config", str(benchmark_config_path),
        "--methods", "sum", "--format", "jsonl",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    ref = [r for r in rows if r["is_reference"]]
    assert len(ref) == 1 and ref[0]["platform"] == "UAS E"


def test_compare_jsonl_output(tmp_path, capsys):
    scores = write_scores_csv(tmp_path / "s.csv", UNIFORM_SCORES)
    code, out, _ = run(
        capsys, "compare", "--scores", str(scores), "--format", "jsonl"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[-1]["unanimous"]["1"] == ["UAS E"]


def test_missing_flag_overrides_config_policy(
    benchmark_matrix_path, benchmark_config_path, capsys
):
    # the benchmark config says mean; forcing error must trip on the gaps
    code, _, err = run(
        capsys,
        "score", "--matrix", str(benchmark_matrix_path),
        "--config", str(benchmark_config_path), "--missing", "error",
    )
    assert code == 1
    assert err.startswith("error: MissingValueError:")


def test_weights_config_without_weights_section(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    matrix.write_text("platform,a\np0,1\np1,2\n")
    config = tmp_path / "c.yaml"
    config.write_text("features:\n  - name: a\n    direction: more_is_better\n")
    code, _, err = run(
        capsys,
        "score", "--matrix", str(matrix), "--config", str(config), "--weights", "config",
    )
    assert code == 1
    assert err.startswith("error: ConfigError:")


def test_table_bytes_do_not_depend_on_a_terminal(
    tmp_path, benchmark_matrix_path, benchmark_config_path, capsys, monkeypatch
):
    argv = [
        "score", "--matrix", str(benchmark_matrix_path),
        "--config", str(benchmark_config_path), "--format", "table",
    ]
    plain, on_tty = tmp_path / "plain.txt", tmp_path / "tty.txt"
    assert main(argv + ["--out", str(plain)]) == 0
    monkeypatch.setattr("sys.stdout.isatty", lambda: True)
    assert main(argv + ["--out", str(on_tty)]) == 0
    assert on_tty.read_bytes() == plain.read_bytes()
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == plain.read_bytes()


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_is_utf8_whatever_the_locale(tmp_path, encoding):
    config = tmp_path / "c.yaml"
    config.write_text(
        "features:\n  - {name: a, direction: more_is_better}\n"
        'profiles:\n  "UAS \u00fc\u2713": {modeling: true, planning: true, execution: true}\n',
        encoding="utf-8",
    )
    out = tmp_path / "out.csv"
    argv = [sys.executable, "-m", "ncap.cli", "level", "--config", str(config), "--format", "csv"]
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": encoding}
    done = subprocess.run(argv, env=env, capture_output=True)
    assert (done.returncode, done.stderr) == (0, b"")
    assert subprocess.run(argv + ["--out", str(out)], env=env, capture_output=True).returncode == 0
    expected = "platform,level\nUAS \u00fc\u2713,3\n".encode("utf-8")
    assert done.stdout == out.read_bytes() == expected


# ------------------------------------------------------ strict json lines


def reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_compare_jsonl_undefined_tau_is_null(tmp_path, capsys):
    # a constant score column has no ordering, so its tau-b is undefined
    scores = write_scores_csv(
        tmp_path / "s.csv",
        {"max": {"p0": 1.0, "p1": 1.0, "p2": 1.0}, "sum": {"p0": 1.0, "p1": 2.0, "p2": 3.0}},
    )
    code, out, _ = run(
        capsys, "compare", "--scores", str(scores), "--methods", "max,sum", "--format", "jsonl"
    )
    assert code == 0
    lines = [json.loads(line, parse_constant=reject_constant) for line in out.splitlines()]
    taus = {(r["method_a"], r["method_b"]): r["tau"] for r in lines[:-1]}
    assert taus[("max", "sum")] is None and taus[("sum", "max")] is None
    assert taus[("max", "max")] is None
    assert taus[("sum", "sum")] == 1.0


def test_compare_csv_tau_of_all_tied_column_with_itself_is_nan(tmp_path, capsys):
    scores = write_scores_csv(
        tmp_path / "s.csv",
        {"max": {"p0": 1.0, "p1": 1.0, "p2": 1.0}, "sum": {"p0": 1.0, "p1": 2.0, "p2": 3.0}},
    )
    code, out, _ = run(
        capsys, "compare", "--scores", str(scores), "--methods", "max,sum", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[1:] == [
        "max,max,nan", "max,sum,nan", "sum,max,nan", "sum,sum,1.000000",
    ]


# ------------------------------------------------------- error contract


def _out_into_missing_dir(tmp_path, matrix, config):
    return ["score", "--matrix", str(matrix), "--config", str(config),
            "--out", str(tmp_path / "missing" / "out.csv")]


def _non_utf8_config(tmp_path, matrix, config):
    bad = tmp_path / "c.yaml"
    bad.write_bytes(b"features:\n  - name: \xff\n")
    return ["score", "--matrix", str(matrix), "--config", str(bad)]


def _non_utf8_matrix(tmp_path, matrix, config):
    bad = tmp_path / "m.csv"
    bad.write_bytes(b"platform,a\n\xffp,1\n")
    return ["score", "--matrix", str(bad), "--config", str(config)]


def _non_utf8_scores(tmp_path, matrix, config):
    bad = tmp_path / "s.csv"
    bad.write_bytes(b"platform,method,score\n\xff,max,1\n")
    return ["compare", "--scores", str(bad)]


def _one_feature(tmp_path, cells, feature="direction: more_is_better"):
    matrix = tmp_path / "m.csv"
    matrix.write_text("platform,a\n" + "".join(f"p{i},{c}\n" for i, c in enumerate(cells)))
    config = tmp_path / "c.yaml"
    config.write_text(f"features:\n  - name: a\n    {feature}\n")
    return ["score", "--matrix", str(matrix), "--config", str(config)]


def _non_numeric_encoding(tmp_path, matrix, config):
    feature = "direction: more_is_better\n    encoding: {X: abc}"
    return _one_feature(tmp_path, ["X", "1"], feature)


def _sum_overflow(tmp_path, matrix, config):
    return _one_feature(tmp_path, ["1e308", "1.5e308"]) + ["--methods", "sum"]


def _zsc_overflow(tmp_path, matrix, config):
    return _one_feature(tmp_path, ["-1e308", "1.5e308"]) + ["--methods", "zsc"]


def _mean_fill_overflow(tmp_path, matrix, config):
    return _one_feature(tmp_path, ["1e308", "1.5e308", "-"]) + ["--missing", "mean"]


def _map_range_overflow(tmp_path, matrix, config):
    return _one_feature(tmp_path, ["1e308", "-1e308"]) + ["--methods", "map"]


def _nonpositive(method):
    """score under ``method`` over a two-feature matrix whose column a holds
    -3 on its third row and nothing on its first."""

    def make_argv(tmp_path, matrix, config):
        argv = _score_files(
            tmp_path,
            "}\n  - {name: b, direction: more_is_better}\n",
            matrix="platform,a,b\np0,,1\np1,4,2\np2,-3,3\n",
        )
        return argv + ["--missing", "exclude", "--methods", method]

    make_argv.__name__ = f"nonpositive_under_{method}"
    return make_argv


def _bad_yaml(tmp_path, matrix, config):
    bad = tmp_path / "c.yaml"
    bad.write_text("features: [\n")
    return ["score", "--matrix", str(matrix), "--config", str(bad)]


def _product_subnormal(tmp_path, matrix, config):
    feature = "direction: less_is_better"
    return _one_feature(tmp_path, ["5e-324", "1"], feature) + ["--methods", "product"]


def _single_present_value(tmp_path, matrix, config):
    """score under exclude over a matrix whose column a holds one value."""
    argv = _score_files(
        tmp_path,
        "}\n  - {name: b, direction: more_is_better}\n",
        matrix="platform,a,b\np0,1,2\np1,-,3\np2,-,4\n",
    )
    return argv + ["--missing", "exclude"]


def _score_files(tmp_path, config_end="}\n", matrix="platform,a\np0,1\np1,2\n"):
    """score over a matrix and a one-feature config; config_end closes the
    feature's flow mapping and may add keys."""
    (tmp_path / "m.csv").write_text(matrix)
    config = tmp_path / "c.yaml"
    config.write_text("features:\n  - {name: a, direction: more_is_better" + config_end)
    return ["score", "--matrix", str(tmp_path / "m.csv"), "--config", str(config)]


def _feature_mixed_keys(tmp_path, matrix, config):
    return _score_files(tmp_path, ", 1: x, b: y}\n")


def _weights_mixed_keys(tmp_path, matrix, config):
    return _score_files(tmp_path, "}\nweights: {a: 1.0, 1: x, b: y}\n")


def _profile_mixed_keys(tmp_path, matrix, config):
    profile = "p0: {modeling: true, planning: true, execution: true, 1: x, b: y}"
    argv = _score_files(tmp_path, "}\nprofiles:\n  " + profile + "\n")
    return ["level", "--config", argv[-1]]


def _unknown_top_level_key(tmp_path, matrix, config):
    return _score_files(tmp_path, "}\nmising: exclude\n")


def _keys_equal_as_text(tmp_path, matrix, config):
    return _score_files(tmp_path, ', encoding: {1: 5, "1": 6}}\n')


def _bad_cell_after_blank_line(tmp_path, matrix, config):
    return _score_files(tmp_path, matrix="platform,a\np0,1\n\np1,X\n")


def _bad_cell_after_quoted_newline(tmp_path, matrix, config):
    return _score_files(tmp_path, matrix='platform,a\np0,"1\n"\np1,X\n')


def _unterminated_quote(tmp_path, matrix, config):
    return _score_files(tmp_path, matrix='platform,a\nA,"1\nB,2\n')


def _scores(tmp_path, rows, header="platform,method,score"):
    scores = tmp_path / "s.csv"
    scores.write_text(header + "\n" + rows)
    return ["compare", "--scores", str(scores), "--methods", "max,sum"]


def _distance(argv, config):
    """The same --scores input for distance instead of compare."""
    return ["distance", *argv[1:], "--config", str(config)]


def _short_scores_row(tmp_path, matrix, config):
    return _scores(tmp_path, "p0,max,1\np1,max\n")


def _long_scores_row(tmp_path, matrix, config):
    return _scores(tmp_path, "p0,max,1,9\np1,max,2\np0,sum,2\np1,sum,1\n")


def _scores_without_score_column(tmp_path, matrix, config):
    return _scores(tmp_path, "p0,max,1\n", header="platform,method,value")


def _bad_score(tmp_path, matrix, config):
    return _scores(tmp_path, "p0,max,1\np1,max,high\np0,sum,2\np1,sum,1\n")


def _incomplete_scores_column(tmp_path, matrix, config):
    return _scores(tmp_path, "p0,max,1\np1,max,2\np0,sum,2\n")


def _header_only_scores(tmp_path, matrix, config):
    return _scores(tmp_path, "")


def _header_only_scores_distance(tmp_path, matrix, config):
    return _distance(_header_only_scores(tmp_path, matrix, config), config)


def _scores_for_other_methods(tmp_path, matrix, config):
    return _scores(tmp_path, "UAS A,zsc,1\nUAS B,zsc,2\n")


def _scores_for_other_methods_distance(tmp_path, matrix, config):
    return _distance(_scores_for_other_methods(tmp_path, matrix, config), config)


def _repeated_score_column(tmp_path, matrix, config):
    rows = "p0,max,1,2\np1,max,2,1\np0,sum,2,2\np1,sum,1,1\n"
    return _scores(tmp_path, rows, header="platform,method,score,score")


def _empty_platform_in_scores(tmp_path, matrix, config):
    return _scores(tmp_path, "p0,max,1\n,max,2\np0,sum,2\n,sum,1\n")


def _empty_platform_in_matrix(tmp_path, matrix, config):
    return _score_files(tmp_path, matrix="platform,a\np0,1\n,2\n")


def _infinite_score(tmp_path, matrix, config):
    return _scores(tmp_path, "p0,max,1\np1,max,inf\np0,sum,2\np1,sum,1\n")


def _weight_beyond_float_range(tmp_path, matrix, config):
    return _score_files(tmp_path, "}\nweights: {a: 1" + "0" * 400 + "}\n")


def _level_without_profiles(tmp_path, matrix, config):
    return ["level", "--config", _score_files(tmp_path)[-1]]


def _score_without_config(tmp_path, matrix, config):
    return ["score", "--matrix", str(matrix)]


def _compare_matrix_without_config(tmp_path, matrix, config):
    return ["compare", "--matrix", str(matrix)]


# scalars YAML resolves to a date or a number that Python cannot build; the
# last one, explicitly tagged, is built by yaml.load rather than from events
UNBUILDABLE_SCALARS = {
    "impossible_month": "    unit: 2021-13-01\n",
    "impossible_day": "    unit: 2021-02-30\n",
    "empty_hex": "    unit: 0x_\n",
    "empty_binary": "    unit: 0b_\n",
    "impossible_offset": "    unit: 2001-12-14t21:59:43.10-25:00\n",
    "impossible_date_key": (
        "profiles:\n  2021-13-01: {modeling: true, planning: true, execution: true}\n"
    ),
    "tagged_impossible_month": "    unit: !!timestamp 2021-13-01\n",
}


def _unbuildable(name, text, loader_id, loader):
    """A make_argv for level over a config holding ``text``, read by ``loader``."""

    def make_argv(tmp_path, matrix, config):
        path = tmp_path / "c.yaml"
        path.write_text("features:\n  - name: a\n    direction: more_is_better\n" + text)
        return ["level", "--config", str(path)]

    make_argv.__name__ = f"{name}_{loader_id}"
    make_argv.loader = loader
    return make_argv


UNBUILDABLE_CASES = [
    pytest.param(
        _unbuildable(name, text, loader_id, loader),
        "ConfigError",
        marks=pytest.mark.skipif(loader is None, reason="no libyaml"),
    )
    for loader_id, loader in (
        ("pure", yaml.SafeLoader), ("libyaml", getattr(yaml, "CSafeLoader", None))
    )
    for name, text in UNBUILDABLE_SCALARS.items()
]


@pytest.mark.parametrize(
    "make_argv,error",
    [
        (_out_into_missing_dir, "FileNotFoundError"),
        (_non_utf8_config, "ConfigError"),
        (_non_utf8_matrix, "FormatError"),
        (_non_utf8_scores, "FormatError"),
        (_non_numeric_encoding, "ConfigError"),
        (_bad_yaml, "ConfigError"),
        (_sum_overflow, "DomainError"),
        (_zsc_overflow, "DomainError"),
        (_map_range_overflow, "DomainError: feature 'a'"),
        (_nonpositive("max"), "DomainError: feature 'a'"),
        (_nonpositive("sum"), "DomainError: feature 'a'"),
        (_mean_fill_overflow, "DomainError"),
        (_product_subnormal, "ProductDomainError"),
        (_feature_mixed_keys, "ConfigError"),
        (_weights_mixed_keys, "ConfigError"),
        (_profile_mixed_keys, "ConfigError"),
        (_unknown_top_level_key, "ConfigError"),
        (_keys_equal_as_text, "ConfigError"),
        (_bad_cell_after_blank_line, "EncodingError: line 4, feature 'a'"),
        (_bad_cell_after_quoted_newline, "EncodingError: line 4, feature 'a'"),
        (_unterminated_quote, "FormatError: line 2"),
        (_short_scores_row, "FormatError: line 3"),
        (_long_scores_row, "FormatError: line 2"),
        (_scores_without_score_column, "FormatError"),
        (_bad_score, "FormatError"),
        (_incomplete_scores_column, "FormatError"),
        (_header_only_scores, "FormatError"),
        (_header_only_scores_distance, "FormatError"),
        (_scores_for_other_methods, "FormatError"),
        (_scores_for_other_methods_distance, "FormatError"),
        (_repeated_score_column, "FormatError"),
        (_empty_platform_in_scores, "FormatError"),
        (_empty_platform_in_matrix, "FormatError: line 3"),
        (_infinite_score, "DomainError"),
        (_weight_beyond_float_range, "ConfigError"),
        (_level_without_profiles, "ConfigError"),
        (_score_without_config, "ConfigError"),
        (_compare_matrix_without_config, "ConfigError"),
        *UNBUILDABLE_CASES,
    ],
    ids=lambda v: v.__name__.strip("_") if callable(v) else None,
)
def test_failure_is_one_error_line(
    tmp_path, capsys, monkeypatch, benchmark_matrix_path, benchmark_config_path, make_argv, error
):
    if hasattr(make_argv, "loader"):
        monkeypatch.setattr(ncap.ingest, "YAML_LOADER", make_argv.loader)
    argv = make_argv(tmp_path, benchmark_matrix_path, benchmark_config_path)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {error}: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "make_argv,detail",
    [
        (
            _nonpositive("max"),
            "feature 'a': eta_max requires strictly positive values; got -3.0 for platform 'p2'",
        ),
        (
            _nonpositive("sum"),
            "feature 'a': eta_sum requires strictly positive values; got -3.0 for platform 'p2'",
        ),
        (_map_range_overflow, "feature 'a': values too large for eta_map"),
        (
            _single_present_value,
            "feature 'a': eta_zsc needs at least 2 present values",
        ),
    ],
    ids=["max", "sum", "map_overflow", "zsc_single_value"],
)
def test_normalization_error_names_feature_and_platform(tmp_path, capsys, make_argv, detail):
    code, out, err = run(capsys, *make_argv(tmp_path, None, None))
    error = "EmptyColumnError" if "eta_zsc" in detail else "DomainError"
    assert (code, out, err) == (1, "", f"error: {error}: {detail}\n")


@pytest.mark.parametrize(
    "make_argv,detail",
    [
        (_repeated_score_column, "column 'score' appears more than once"),
        (_empty_platform_in_scores, "line 3: empty platform id"),
        (_empty_platform_in_matrix, "line 3: empty platform id"),
    ],
    ids=["repeated_score_column", "empty_id_in_scores", "empty_id_in_matrix"],
)
def test_rejected_input_names_its_cause(tmp_path, capsys, make_argv, detail):
    code, out, err = run(capsys, *make_argv(tmp_path, None, None))
    assert (code, out) == (1, "")
    assert err.startswith("error: FormatError: ") and err.endswith(f"{detail}\n")


YAML_LOADERS = [
    pytest.param(yaml.SafeLoader, id="pure"),
    pytest.param(
        getattr(yaml, "CSafeLoader", None),
        id="libyaml",
        marks=pytest.mark.skipif(not yaml.__with_libyaml__, reason="no libyaml"),
    ),
]


@pytest.mark.parametrize("loader", YAML_LOADERS)
def test_yaml_syntax_error_names_line_and_column(tmp_path, capsys, monkeypatch, loader):
    monkeypatch.setattr(ncap.ingest, "YAML_LOADER", loader)
    argv = _bad_yaml(tmp_path, None, None)
    code, _, err = run(capsys, "level", "--config", argv[-1])
    assert code == 1
    assert err.startswith(f"error: ConfigError: cannot parse config {argv[-1]}: line 2, column 1: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("loader", YAML_LOADERS)
def test_unbuildable_scalar_names_its_position(tmp_path, capsys, monkeypatch, loader):
    """A scalar built from parser events is reported at its start; one that
    yaml.load builds (an explicit tag sends the text there) without one."""
    monkeypatch.setattr(ncap.ingest, "YAML_LOADER", loader)
    path = tmp_path / "c.yaml"
    for unit, where in (("2021-13-01", "line 3, column 11: "), ("!!timestamp 2021-13-01", "")):
        path.write_text(f"features:\n  - name: a\n    unit: {unit}\n")
        code, out, err = run(capsys, "level", "--config", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"error: ConfigError: cannot parse config {path}: {where}month must be in 1..12\n"
        )


@pytest.mark.parametrize("loader", YAML_LOADERS)
@pytest.mark.parametrize(
    "config",
    [
        'features:\n  - name: a\n    direction: more_is_better\n'
        'profiles:\n  "\\ud800": {modeling: true, planning: true, execution: true}\n',
        'features:\n  - name: "\\udfff"\n    direction: more_is_better\n'
        'profiles:\n  p: {modeling: true, planning: true, execution: true}\n',
        'features:\n  - name: a\n    direction: more_is_better\n'
        'profiles:\n  p: {modeling: true, planning: true, execution: true,'
        ' evidence: {lidar: "\\ud800"}}\n',
    ],
    ids=["profile_key", "feature_name", "evidence_note"],
)
def test_lone_surrogate_escape_is_one_error_line(tmp_path, capsys, monkeypatch, loader, config):
    monkeypatch.setattr(ncap.ingest, "YAML_LOADER", loader)
    path = tmp_path / "c.yaml"
    path.write_text(config, encoding="utf-8")
    code, out, err = run(capsys, "level", "--config", str(path), "--format", "csv")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ConfigError: ")
    assert len(err.strip().splitlines()) == 1


def test_second_main_call_leaves_no_cyclic_garbage(
    capsys, benchmark_matrix_path, benchmark_config_path
):
    """The argument parser, a few hundred objects in reference cycles, is
    built once; the pipeline builds no cycles, so a warm call leaves nothing
    for the cyclic collector."""
    argv = ["compare", "--matrix", str(benchmark_matrix_path),
            "--config", str(benchmark_config_path), "--format", "jsonl"]
    assert run(capsys, *argv)[0] == 0
    gc.collect()
    gc.disable()  # so the collector cannot free a cycle before it is counted
    try:
        assert run(capsys, *argv)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_duplicate_score_rows_rejected(tmp_path, capsys):
    scores = tmp_path / "s.csv"
    scores.write_text(
        "platform,method,score\n"
        "p0,max,1\np1,max,2\np0,sum,1\np1,sum,2\np0,max,3\n"
    )
    code, _, err = run(capsys, "compare", "--scores", str(scores), "--methods", "max,sum")
    assert code == 1
    assert err.startswith("error: FormatError:")
    assert "duplicate row for ('p0', 'max')" in err



@pytest.mark.parametrize("which", ["matrix", "config", "scores"])
def test_byte_order_mark_changes_no_output(
    tmp_path, capsys, benchmark_matrix_path, benchmark_config_path, which
):
    scores = tmp_path / "scores.csv"
    assert main([
        "score", "--matrix", str(benchmark_matrix_path), "--config", str(benchmark_config_path),
        "--format", "csv", "--out", str(scores),
    ]) == 0
    plain = {"matrix": benchmark_matrix_path, "config": benchmark_config_path, "scores": scores}
    marked = dict(plain)
    marked[which] = tmp_path / f"bom-{plain[which].name}"
    marked[which].write_text("\ufeff" + plain[which].read_text(encoding="utf-8"), encoding="utf-8")
    outputs = []
    for paths in (plain, marked):
        source = ["--scores", str(paths["scores"])] if which == "scores" else [
            "--matrix", str(paths["matrix"])
        ]
        code, out, err = run(
            capsys, "distance", *source, "--config", str(paths["config"]), "--format", "csv"
        )
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_integer_feature_name_matches_its_weight(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    matrix.write_text("platform,7\np0,1\np1,2\n")
    config = tmp_path / "c.yaml"
    config.write_text("features:\n  - {name: 7, direction: more_is_better}\nweights: {7: 1.0}\n")
    code, out, err = run(
        capsys, "score", "--matrix", str(matrix), "--config", str(config),
        "--weights", "config", "--methods", "max", "--format", "csv",
    )
    assert (code, err) == (0, "")
    assert out == "platform,method,score,rank\np0,max,0.500000,2\np1,max,1.000000,1\n"
