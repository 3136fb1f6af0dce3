"""The error contract under mutated input, through main().

Each matrix example mutates the bundled feature matrix: cells replaced by
odd tokens, rows and columns deleted or duplicated. It then runs one
command in one format twice, once to stdout and once with --out. Whatever
the input, the run exits 0, 1 or 2 without a traceback; a failure is one
"error: <Class>: <detail>" line; every jsonl line is strict JSON; and
stdout holds the same bytes as the --out file. The score file that
``score --format csv`` writes for the bundled data is mutated the same
way and read back by --scores, and raw bytes, alone or spliced into a
shipped file, are fed as matrix, config and --scores.

Each config example mutates the bundled config, written in block style or
with one-line flow collections, and runs level and score as shipped, as
shipped without PyYAML, and with every config read by yaml.load instead
of ncap's reader. The first two runs give the same exit code, stdout and
error line. A config ncap reads gives the same outcome as through
yaml.load; a config it refuses is one error line that names a line and a
column, and one that yaml.load reads without a repeated key is refused
only as YAML ncap does not read.

A fixed-seed batch of mutated matrices and profile bodies also runs in
fresh interpreters under two PYTHONHASHSEED values, which must print the
same exit codes, stdout and stderr: the first fault each input holds is
named the same way whatever order a set or a dict of str would take.

A config that bench/cohort.py generates, as it is or with one row of its
profiles block edited, gives level, distance and score the same outcome
as the same text with a comment after its `profiles:` key, which the
one-pass profiles read never takes.
"""

import contextlib
import io
import json
import random
import re
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import ncap.ingest
from ncap.cli import main
from test_dependencies import _child
from test_ingest import UNREAD, YAML_ERRORS, repeats_a_key

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from cohort import CohortSpec, generate  # noqa: E402

TOKENS = ["-", "N/A", "nan", "inf", "1e308", "5e-324", "-0", "0", "-3", "zzz",
          '"', "\ufeff", "\x00", "\r"]

# drawn evenly, so that an edit lands on the header row or the id column
# only as often as on any other row or column
AT = st.sampled_from(range(100))
EDITS = st.one_of(
    st.tuples(st.just("cell"), AT, AT, st.sampled_from(TOKENS)),
    st.tuples(st.sampled_from(["del_row", "dup_row", "del_col", "dup_col"]), AT),
)

RUNS = [(command, fmt) for command in ("score", "distance", "compare")
        for fmt in ("table", "csv", "jsonl")] + [("plotdata", None)]

ERROR_LINE = re.compile(r"error: \w+: [^\n]*\n")
PLACE = re.compile(r"line [1-9][0-9]*, column [1-9][0-9]*: ")


def mutate(text, edits):
    rows = [line.split(",") for line in text.splitlines()]
    for op, *at in edits:
        if op == "cell":
            r, c, token = at
            row = rows[r % len(rows)] if rows else []
            if row:
                row[c % len(row)] = token
        elif rows and op in ("del_row", "dup_row"):
            r = at[0] % len(rows)
            rows[r:r + 1] = [] if op == "del_row" else [rows[r], list(rows[r])]
        elif rows and op in ("del_col", "dup_col"):
            for row in rows:
                if row:
                    c = at[0] % len(row)
                    row[c:c + 1] = [] if op == "del_col" else [row[c], row[c]]
    return "".join(",".join(row) + "\n" for row in rows)


def run(argv):
    """main(argv) as (exit code, stdout bytes, stderr text)."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def reject_constant(name):
    raise ValueError(f"not JSON: {name}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def keeps_the_error_contract(argv, fmt, target):
    """Run argv to stdout and then with --out ``target``, and check the
    contract: exit 0, 1 or 2; a failure is one error line and writes
    nothing; jsonl lines are strict JSON; stdout equals the --out file."""
    argv = argv + (["--format", fmt] if fmt else [])
    target.unlink(missing_ok=True)
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    assert run(argv + ["--out", str(target)]) == (code, b"", err)
    if code == 1:
        assert out == b"" and ERROR_LINE.fullmatch(err), err
        assert not target.exists()
    elif code == 0:
        assert target.read_bytes() == out
        if fmt == "jsonl":
            for line in out.decode("utf-8").splitlines():
                json.loads(line, parse_constant=reject_constant)


@pytest.mark.parametrize("command,fmt", RUNS, ids=[f"{c}-{f or 'csv'}" for c, f in RUNS])
@given(
    edits=st.lists(EDITS, max_size=3),
    missing=st.sampled_from(["mean", "exclude"]),
    weights=st.sampled_from(["uniform", "config"]),
)
@settings(max_examples=40, deadline=None)
def test_mutated_matrix_keeps_the_error_contract(
    workdir, benchmark_matrix_path, benchmark_config_path, command, fmt, edits, missing, weights
):
    matrix = workdir / "matrix.csv"
    matrix.write_bytes(mutate(benchmark_matrix_path.read_text("utf-8"), edits).encode("utf-8"))
    argv = [command, "--matrix", str(matrix), "--config", str(benchmark_config_path),
            "--missing", missing, "--weights", weights]
    keeps_the_error_contract(argv, fmt, workdir / "out.txt")


SCORE_RUNS = [run for run in RUNS if run[0] != "score"]


@pytest.fixture(scope="module")
def score_csv(benchmark_matrix_path, benchmark_config_path):
    """What ``score --format csv`` writes for the bundled data."""
    code, out, _ = run(["score", "--matrix", str(benchmark_matrix_path),
                        "--config", str(benchmark_config_path), "--missing", "mean",
                        "--format", "csv"])
    assert code == 0
    return out.decode("utf-8")


@pytest.mark.parametrize(
    "command,fmt", SCORE_RUNS, ids=[f"{c}-{f or 'csv'}" for c, f in SCORE_RUNS]
)
@given(edits=st.lists(EDITS, max_size=3))
@settings(max_examples=40, deadline=None)
def test_mutated_scores_keep_the_error_contract(
    workdir, benchmark_config_path, score_csv, command, fmt, edits
):
    scores = workdir / "scores.csv"
    scores.write_bytes(mutate(score_csv, edits).encode("utf-8"))
    argv = [command, "--scores", str(scores), "--config", str(benchmark_config_path)]
    keeps_the_error_contract(argv, fmt, workdir / "out.txt")


# raw bytes, alone or spliced into the shipped file between two places
RAW = st.binary(max_size=200) | st.tuples(st.binary(max_size=16), AT, AT)


@pytest.mark.parametrize("role", ["matrix", "config", "scores"])
@given(raw=RAW)
@settings(max_examples=60, deadline=None)
def test_raw_bytes_keep_the_error_contract(
    workdir, benchmark_matrix_path, benchmark_config_path, score_csv, role, raw
):
    shipped = {"matrix": benchmark_matrix_path.read_bytes(), "scores": score_csv.encode("utf-8"),
               "config": benchmark_config_path.read_bytes()}[role]
    if isinstance(raw, tuple):
        data, i, j = raw
        i, j = sorted((len(shipped) * i // 100, len(shipped) * j // 100))
        raw = shipped[:i] + data + shipped[j:]
    path = workdir / f"raw-{role}"
    path.write_bytes(raw)
    matrix, config = str(benchmark_matrix_path), str(benchmark_config_path)
    if role == "matrix":
        runs = [["score", "--matrix", str(path), "--config", config, "--missing", "exclude"]]
    elif role == "config":
        runs = [["level", "--config", str(path)],
                ["score", "--matrix", matrix, "--config", str(path), "--weights", "config"]]
    else:
        runs = [["compare", "--scores", str(path)],
                ["distance", "--scores", str(path), "--config", config]]
    for argv in runs:
        keeps_the_error_contract(argv, "jsonl", workdir / "out.txt")


# values and characters that stay inside the line reader's subset or are
# YAML it does not read
CONFIG_VALUES = ["yes", "0o17", "1_000", ".inf", "1:20", "2021-01-01", "2021-13-01", "0x_",
                 "2001-12-14t21:59:43.10-05:00", "&a mean", "*a", "!!str 5", "~", "''", "'q'",
                 '"q"', "true", "-1", "1.5", "1e5", "[a, b]", "{x: 1}", "[[x]]", "|", ""]
CONFIG_CHARS = ["\t", "\r", "\x00", "\x85", "\ufeff", " # c", "'", '"', ": ", "#", "- ", " "]
CONFIG_EDITS = st.one_of(
    st.tuples(st.sampled_from(["delete", "duplicate"]), AT),
    st.tuples(st.sampled_from(["swap", "swap_keys"]), AT, AT),
    st.tuples(st.just("value"), AT, st.sampled_from(CONFIG_VALUES)),
    st.tuples(st.just("insert"), AT, AT, st.sampled_from(CONFIG_CHARS)),
)


def mutate_config(text, edits):
    lines = text.split("\n")
    for op, k, *at in edits:
        k %= len(lines)
        if op == "delete" and len(lines) > 1:
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, lines[k])
        elif op == "swap":
            m = at[0] % len(lines)
            lines[k], lines[m] = lines[m], lines[k]
        elif op == "swap_keys":
            m = at[0] % len(lines)
            a, b = lines[k].split(":", 1), lines[m].split(":", 1)
            if len(a) == len(b) == 2:
                lines[k], lines[m] = f"{b[0]}:{a[1]}", f"{a[0]}:{b[1]}"
        elif op == "value":
            key, sep, _ = lines[k].partition(": ")
            lines[k] = f"{key}: {at[0]}" if sep else f"{lines[k]} {at[0]}"
        elif op == "insert":
            p = at[0] % (len(lines[k]) + 1)
            lines[k] = lines[k][:p] + at[1] + lines[k][p:]
    return "\n".join(lines)


def flow_form(text):
    """The config with each collection of scalars written as one-line flow."""
    value = yaml.safe_load(text)
    return yaml.safe_dump(value, default_flow_style=None, sort_keys=False, allow_unicode=True,
                          width=1 << 20)


def read_by_yaml_load(text):
    """yaml.load's value of a text, the oracle for ncap's reader: a YAML
    error, or a key repeated in one mapping, is a ValueError."""
    try:
        if repeats_a_key(text):
            raise ValueError("repeated key")
        return yaml.load(text, Loader=yaml.SafeLoader)
    except YAML_ERRORS as exc:
        raise ValueError(str(exc)) from None


@pytest.mark.parametrize("form", ["block", "flow"])
@given(edits=st.lists(CONFIG_EDITS, max_size=3))
@settings(max_examples=100, deadline=None)
def test_mutated_config_reads_as_yaml_load_reads_it(
    workdir, benchmark_matrix_path, benchmark_config_path, form, edits
):
    text = benchmark_config_path.read_text("utf-8")
    config = workdir / f"config-{form}.yaml"
    config.write_bytes(
        mutate_config(text if form == "block" else flow_form(text), edits).encode("utf-8")
    )
    refused = f"error: ConfigError: cannot parse config {config}: "
    for argv in (["level", "--config", str(config), "--format", "csv"],
                 ["score", "--matrix", str(benchmark_matrix_path), "--config", str(config),
                  "--weights", "config", "--format", "csv"]):
        code, out, err = run(argv)
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(sys.modules, "yaml", None)
            assert run(argv) == (code, out, err)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ncap.ingest, "_yaml_value", read_by_yaml_load)
            loaded = run(argv)
        assert code in (0, 1, 2)
        if code == 1:
            assert out == b"" and ERROR_LINE.fullmatch(err)
        if not err.startswith(refused):
            assert (code, out, err) == loaded
        elif err == f"{refused}collections nest too deeply\n":
            assert loaded[0] == 1
        else:
            assert PLACE.match(err, len(refused)), err
            if not PLACE.sub("", err[len(refused) :], 1).startswith(UNREAD):
                assert loaded[2].startswith(refused), err


# runs each argv of a JSON list through main() and prints, as one JSON list,
# each run's exit code, stdout and stderr
OUTCOMES_PROBE = (
    "import contextlib, io, json, sys\n"
    "from ncap.cli import main\n"
    "runs = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    out, err = io.TextIOWrapper(io.BytesIO(), encoding='utf-8'), io.StringIO()\n"
    "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
    "        try:\n"
    "            code = main(argv)\n"
    "        except SystemExit as exc:\n"
    "            code = exc.code\n"
    "        out.flush()\n"
    "    runs.append([code, out.buffer.getvalue().decode('utf-8', 'surrogateescape'),\n"
    "                 err.getvalue()])\n"
    "print(json.dumps(runs))\n"
)

# what a profile line's key or value may become, and lines a body may gain
PROFILE_KEYS = ["unknown", "é", "1", "~", "Modeling", "perception", "evidence", "planning"]
PROFILE_VALUES = ["yes", "1", "~", "True", "FALSE", "[x]", "{}", "'true'", "{1: x, '1': y}",
                  "{lidar: ~}", ""]
PROFILE_LINES = ["    perception: false", "    evidence: ~", "    evidence: [x]",
                 "    zoom: true", "    1: true", "    é: true"]


def mutate_profiles(text, rng):
    """The config with one to three edits inside its profile bodies: a key
    or value replaced, a line deleted, duplicated or added."""
    lines = text.split("\n")
    start = lines.index("profiles:") + 1
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(start, len(lines))
        key, sep, value = lines[k].partition(": ")
        op = rng.choice(["key", "value", "delete", "duplicate", "add"])
        if op == "key" and sep:
            lines[k] = f"{' ' * (len(key) - len(key.lstrip()))}{rng.choice(PROFILE_KEYS)}: {value}"
        elif op == "value" and sep:
            lines[k] = f"{key}: {rng.choice(PROFILE_VALUES)}"
        elif op == "delete":
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, lines[k])
        else:
            lines.insert(k, rng.choice(PROFILE_LINES))
    return "\n".join(lines)


def random_edit(rng):
    """One matrix edit of the kinds EDITS draws, a cell edit three times in seven."""
    op = rng.choice(["cell"] * 3 + ["del_row", "dup_row", "del_col", "dup_col"])
    if op == "cell":
        return op, rng.randrange(100), rng.randrange(100), rng.choice(TOKENS)
    return op, rng.randrange(100)


def test_mutated_inputs_fail_alike_under_two_hash_seeds(
    tmp_path, benchmark_matrix_path, benchmark_config_path
):
    rng = random.Random(2021)
    matrix, config = str(benchmark_matrix_path), str(benchmark_config_path)
    batch = []
    for k in range(30):
        edits = [random_edit(rng) for _ in range(rng.randint(1, 3))]
        path = tmp_path / f"matrix-{k}.csv"
        path.write_bytes(mutate(benchmark_matrix_path.read_text("utf-8"), edits).encode("utf-8"))
        for command, missing in (("score", "mean"), ("compare", "exclude")):
            batch.append([command, "--matrix", str(path), "--config", config,
                          "--missing", missing, "--weights", "config", "--format", "csv"])
    for k in range(30):
        path = tmp_path / f"config-{k}.yaml"
        path.write_text(mutate_profiles(benchmark_config_path.read_text("utf-8"), rng), "utf-8")
        batch.append(["level", "--config", str(path), "--format", "csv"])
        batch.append(["distance", "--matrix", matrix, "--config", str(path), "--format", "csv"])
    runs = [json.loads(_child(OUTCOMES_PROBE, json.dumps(batch), PYTHONHASHSEED=seed).stdout)
            for seed in ("0", "1")]
    assert runs[0] == runs[1]
    codes = [code for code, _, _ in runs[0]]
    assert set(codes) == {0, 1}, codes  # the batch holds both accepted and rejected inputs


LAYOUT_EDITS = ["none", "duplicate_id", "id_yes", "id_On", "id_null", "id_123", "id_x y",
                "perception_row", "swapped_layers", "flag_1", "flag_yes", "trailing_space",
                "comment_row", "comment_row_at_column_0", "second_profiles_key", "keys_indented",
                "block_first"]


def edit_profiles(lines, edit, k):
    """One edit of a generated profiles block, most of them at the entry
    whose id row is lines[k]; the next entry's id row is lines[k + 4]."""
    key = lines.index("profiles:")
    if edit == "duplicate_id":
        lines[k + 4] = lines[k]
    elif edit.startswith("id_"):
        lines[k] = f"  {edit[3:]}:"
    elif edit == "perception_row":
        lines.insert(k + 1, "    perception: true")
    elif edit == "swapped_layers":
        lines[k + 1], lines[k + 2] = lines[k + 2], lines[k + 1]
    elif edit == "flag_1":
        lines[k + 2] = "    planning: 1"
    elif edit == "flag_yes":
        lines[k + 3] = "    execution: yes"
    elif edit == "trailing_space":
        lines[k + 1] += " "
    elif edit == "comment_row":
        lines.insert(k + 1, "    # a note")
    elif edit == "comment_row_at_column_0":
        lines.insert(k + 4, "# a note")
    elif edit == "second_profiles_key":
        lines.extend(["profiles:", *lines[k:k + 4]])
    elif edit == "keys_indented":  # top-level keys that yaml.load refuses
        lines[:key] = ["  " + line for line in lines[:key]]
    elif edit == "block_first":
        lines[:] = lines[key:-1] + lines[:key] + [""]


LAYOUT_COHORTS = [
    CohortSpec(n=6, m=3, missing="mean", missing_frac=0.1, integer_max=5, token_column=True,
               config_weights=True),
    CohortSpec(n=4, m=2, missing="exclude", missing_frac=0.2, config_weights=True),
]


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("edit", LAYOUT_EDITS)
@given(cohort=st.sampled_from(LAYOUT_COHORTS), entry=st.integers(0, 2), seed=st.integers(0, 9))
@settings(max_examples=6, deadline=None)
def test_generated_profiles_read_in_one_pass_as_read_whole(workdir, edit, crlf, cohort, entry,
                                                           seed):
    """A generated config, or one with a single-row edit of its profiles
    block, gives level, distance and score the same exit code, stdout and
    stderr, with PyYAML and without it, as the same text with " # x" after
    its profiles key: a text the one-pass profiles read never takes, and
    whose every other line and column is where it was."""
    matrix_csv, text = generate(cohort, seed)
    lines = text.split("\n")
    first = lines.index("profiles:") + 1
    edit_profiles(lines, edit, first + 4 * entry)
    text = ("\r\n" if crlf else "\n").join(lines)
    whole = re.sub("^profiles:", "profiles: # x", text, count=1, flags=re.M)
    assert ncap.ingest._canonical_profiles(whole) == (None, None)
    if edit == "none" and not crlf:
        assert ncap.ingest._canonical_profiles(text)[1]
    matrix, config = workdir / "layout.csv", workdir / "layout.yaml"
    matrix.write_text(matrix_csv, "utf-8")
    argvs = [["level", "--config", str(config), "--format", "csv"]] + [
        [command, "--matrix", str(matrix), "--config", str(config), "--weights", "config",
         "--format", "csv"] for command in ("distance", "score")
    ]
    for pyyaml in (True, False):
        outcomes = []
        for body in (text, whole):
            config.write_bytes(body.encode("utf-8"))
            with pytest.MonkeyPatch.context() as patch:
                if not pyyaml:
                    patch.setitem(sys.modules, "yaml", None)
                outcomes.append([run(argv) for argv in argvs])
        assert outcomes[0] == outcomes[1]
