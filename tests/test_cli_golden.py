"""Every command and format on the bundled benchmark, byte for byte.

The uas7 expected bytes are the benchmark's own golden files, read in
place from bench/golden/uas7-cli/; the flags are those of its uas7-cli
mix. tests/golden_cli/ pins distance and plotdata under other flags:
the bundled data under --missing exclude with uniform weights, and a
--scores file written by score --format csv. The same 21 outputs are
also written by fresh interpreters under three PYTHONHASHSEED values,
without PyYAML, and by every other Python of the declared range that is
installed.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR, REPO_ROOT
from ncap.cli import main
from test_dependencies import SRC, _child

MATRIX, CONFIG = DATA_DIR / "uas_features.csv", DATA_DIR / "uas_config.yaml"
GOLDEN_DIR = REPO_ROOT / "bench" / "golden" / "uas7-cli"
GOLDEN_CLI_DIR = Path(__file__).resolve().parent / "golden_cli"

CASES = [
    (command, fmt)
    for command in ("score", "level", "distance", "compare")
    for fmt in ("table", "csv", "jsonl")
] + [("plotdata", None)]

GEOMETRY_CASES = [
    (group, command, fmt)
    for group in ("exclude-uniform", "scores")
    for command, fmt in [("distance", f) for f in ("table", "csv", "jsonl")] + [("plotdata", None)]
]


def uas7_argv(command, fmt):
    """The argv of a uas7-cli golden, without --out."""
    argv = [command] + (["--matrix", str(MATRIX)] if command != "level" else [])
    argv += ["--config", str(CONFIG), "--weights", "config", "--missing", "mean"]
    return argv + (["--format", fmt] if fmt is not None else [])


def geometry_argv(group, command, fmt, scores):
    """The argv of a tests/golden_cli/ golden, without --out. ``scores`` is
    a file holding what uas7_argv("score", "csv") writes."""
    if group == "scores":
        inputs = ["--scores", str(scores), "--config", str(CONFIG)]
    else:
        inputs = ["--matrix", str(MATRIX), "--config", str(CONFIG)]
        inputs += ["--weights", "uniform", "--missing", "exclude"]
    return [command, *inputs] + (["--format", fmt] if fmt is not None else [])


@pytest.mark.parametrize(
    "command,fmt", CASES, ids=[f"{c}-{f or 'csv'}" for c, f in CASES]
)
def test_output_matches_golden(tmp_path, command, fmt):
    out = tmp_path / "out.txt"
    assert main(uas7_argv(command, fmt) + ["--out", str(out)]) == 0
    golden = GOLDEN_DIR / f"{command}-{fmt or 'csv'}.txt"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize(
    "group,command,fmt",
    GEOMETRY_CASES,
    ids=[f"{g}-{c}-{f or 'csv'}" for g, c, f in GEOMETRY_CASES],
)
def test_geometry_output_matches_golden(tmp_path, group, command, fmt):
    scores = tmp_path / "scores.csv"
    if group == "scores":
        assert main(uas7_argv("score", "csv") + ["--out", str(scores)]) == 0
    out = tmp_path / "out.txt"
    assert main(geometry_argv(group, command, fmt, scores) + ["--out", str(out)]) == 0
    golden = GOLDEN_CLI_DIR / f"{group}-{command}-{fmt or 'csv'}.txt"
    assert out.read_bytes() == golden.read_bytes()


def golden_runs(outdir):
    """Each of the 21 golden files with the argv, --out into ``outdir``
    included, that must write it. The uas7 score csv, which the scores
    group reads, is written before that group runs."""
    runs = []
    for command, fmt in CASES:
        name = f"{command}-{fmt or 'csv'}.txt"
        runs.append((GOLDEN_DIR / name, uas7_argv(command, fmt) + ["--out", str(outdir / name)]))
    scores = outdir / "score-csv.txt"
    for group, command, fmt in GEOMETRY_CASES:
        name = f"{group}-{command}-{fmt or 'csv'}.txt"
        argv = geometry_argv(group, command, fmt, scores) + ["--out", str(outdir / name)]
        runs.append((GOLDEN_CLI_DIR / name, argv))
    return runs


# runs each argv of a JSON list through main() and prints the sha256 of its --out file
DIGEST_PROBE = (
    "import hashlib, json, sys\n"
    "from ncap.cli import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    code = main(argv)\n"
    "    with open(argv[-1], 'rb') as out:\n"
    "        print(code, hashlib.sha256(out.read()).hexdigest())\n"
)


def assert_child_writes_the_goldens(outdir, **child):
    """A child started by _child(**child) writes every golden's bytes."""
    runs = golden_runs(outdir)
    done = _child(DIGEST_PROBE, json.dumps([argv for _, argv in runs]), **child)
    expected = [f"0 {hashlib.sha256(golden.read_bytes()).hexdigest()}" for golden, _ in runs]
    assert done.stdout.splitlines() == expected, done.stderr


@pytest.mark.parametrize("seed", ["0", "1", "4242"])
def test_goldens_keep_their_bytes_under_any_hash_seed(tmp_path, seed):
    assert_child_writes_the_goldens(tmp_path, PYTHONHASHSEED=seed)


def test_goldens_keep_their_bytes_without_pyyaml(tmp_path):
    """The bundled config is read by the line reader, so no golden needs PyYAML."""
    assert_child_writes_the_goldens(tmp_path, block=("yaml",))


def other_pythons():
    """Each python3.10 ... python3.14 on PATH, other than this interpreter,
    that starts and reports a version of at least 3.10, as pyproject.toml's
    requires-python asks."""
    kept = []
    for minor in range(10, 15):
        found = shutil.which(f"python3.{minor}")
        if found is None or minor == sys.version_info.minor:
            continue
        try:
            done = subprocess.run(
                [found, "-c", "import sys; print(sys.version_info >= (3, 10))"],
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if done.returncode == 0 and done.stdout.strip() == "True":
            kept.append(found)
    return kept


def test_goldens_keep_their_bytes_under_every_installed_python(tmp_path):
    """The stdlib is all a command needs, so any Python of the declared
    range writes the goldens' bytes."""
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no other Python 3.10-3.14 runs here")
    runs = golden_runs(tmp_path)
    expected = [f"0 {hashlib.sha256(golden.read_bytes()).hexdigest()}" for golden, _ in runs]
    for python in pythons:
        done = subprocess.run(
            [python, "-c", DIGEST_PROBE, json.dumps([argv for _, argv in runs])],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.stdout.splitlines() == expected, (python, done.stderr)
