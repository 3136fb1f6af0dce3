"""The error contract under mutated input, through main().

Each example mutates the bundled feature matrix: cells replaced by odd
tokens, rows and columns deleted or duplicated. It then runs one command
in one format twice, once to stdout and once with --out. Whatever the
input, the run exits 0, 1 or 2 without a traceback; a failure is one
"error: <Class>: <detail>" line; every jsonl line is strict JSON; and
stdout holds the same bytes as the --out file.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from ncap.cli import main

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
    target = workdir / "out.txt"
    target.unlink(missing_ok=True)
    argv = [command, "--matrix", str(matrix), "--config", str(benchmark_config_path),
            "--missing", missing, "--weights", weights]
    argv += ["--format", fmt] if fmt else []
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
