"""Every command and format on the bundled benchmark, byte for byte.

The expected bytes are the benchmark's own golden files, read in place
from bench/golden/uas7-cli/; the flags are those of its uas7-cli mix.
"""

from pathlib import Path

import pytest

from ncap.cli import main

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "bench" / "golden" / "uas7-cli"

CASES = [
    (command, fmt)
    for command in ("score", "level", "distance", "compare")
    for fmt in ("table", "csv", "jsonl")
] + [("plotdata", None)]


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
