"""Every command and format on the bundled benchmark, byte for byte.

The uas7 expected bytes are the benchmark's own golden files, read in
place from bench/golden/uas7-cli/; the flags are those of its uas7-cli
mix. tests/golden_cli/ pins distance and plotdata under other flags:
the bundled data under --missing exclude with uniform weights, and a
--scores file written by score --format csv.
"""

from pathlib import Path

import pytest

from ncap.cli import main

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "bench" / "golden" / "uas7-cli"
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


@pytest.mark.parametrize(
    "command,fmt", CASES, ids=[f"{c}-{f or 'csv'}" for c, f in CASES]
)
def test_output_matches_golden(
    tmp_path, benchmark_matrix_path, benchmark_config_path, command, fmt
):
    out = tmp_path / "out.txt"
    argv = [command]
    if command != "level":
        argv += ["--matrix", str(benchmark_matrix_path)]
    argv += ["--config", str(benchmark_config_path)]
    argv += ["--weights", "config", "--missing", "mean"]
    if fmt is not None:
        argv += ["--format", fmt]
    assert main(argv + ["--out", str(out)]) == 0
    golden = GOLDEN_DIR / f"{command}-{fmt or 'csv'}.txt"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize(
    "group,command,fmt",
    GEOMETRY_CASES,
    ids=[f"{g}-{c}-{f or 'csv'}" for g, c, f in GEOMETRY_CASES],
)
def test_geometry_output_matches_golden(
    tmp_path, benchmark_matrix_path, benchmark_config_path, group, command, fmt
):
    config = ["--config", str(benchmark_config_path)]
    if group == "scores":
        scores = tmp_path / "scores.csv"
        argv = ["score", "--matrix", str(benchmark_matrix_path), *config]
        argv += ["--weights", "config", "--missing", "mean", "--format", "csv"]
        assert main(argv + ["--out", str(scores)]) == 0
        inputs = ["--scores", str(scores), *config]
    else:
        inputs = ["--matrix", str(benchmark_matrix_path), *config]
        inputs += ["--weights", "uniform", "--missing", "exclude"]
    out = tmp_path / "out.txt"
    argv = [command, *inputs] + (["--format", fmt] if fmt is not None else [])
    assert main(argv + ["--out", str(out)]) == 0
    golden = GOLDEN_CLI_DIR / f"{group}-{command}-{fmt or 'csv'}.txt"
    assert out.read_bytes() == golden.read_bytes()
