import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_ncap_loads_neither_scipy_nor_numpy():
    probe = (
        "import sys, ncap; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_import_ncap_cli_loads_neither_dataclasses_nor_inspect():
    """The records are named tuples; dataclasses would bring inspect, ast, dis
    and tokenize into every cold command."""
    probe = (
        "import sys; before = set(sys.modules); import ncap.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


# what a fresh `import ncap.cli` adds to sys.modules, by top-level name
CLI_IMPORTS = {"__future__", "_csv", "_json", "argparse", "csv", "gettext", "json", "ncap"}


def test_import_ncap_cli_adds_no_top_level_module():
    """Every cold command pays for what `import ncap.cli` loads; a new
    top-level module there must be a deliberate change to this set."""
    probe = (
        "import sys; before = set(sys.modules); import ncap.cli; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    added = set(done.stdout.split())
    assert added <= CLI_IMPORTS, sorted(added - CLI_IMPORTS)


def test_commands_import_pyyaml_only_for_configs_outside_the_subset(tmp_path):
    """score and level on the bundled data never import PyYAML: the line
    reader reads the config. A config with an anchor is read by yaml.load."""
    data = SRC.parent / "data"
    matrix, config = data / "uas_features.csv", data / "uas_config.yaml"
    anchored = tmp_path / "anchored.yaml"
    anchored.write_text(config.read_text(encoding="utf-8").replace(
        "missing: mean", "missing: &policy mean"
    ), encoding="utf-8")
    probe = (
        "import sys\n"
        "from ncap.cli import main\n"
        "for config in sys.argv[2:]:\n"
        "    codes = [main(['score', '--matrix', sys.argv[1], '--config', config,"
        " '--out', '{out}']),\n"
        "             main(['level', '--config', config, '--out', '{out}'])]\n"
        "    print(codes, 'yaml' in sys.modules)\n"
    ).format(out=tmp_path / "out.txt")
    done = subprocess.run(
        [sys.executable, "-c", probe, str(matrix), str(config), str(anchored)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines() == ["[0, 0] False", "[0, 0] True"]
