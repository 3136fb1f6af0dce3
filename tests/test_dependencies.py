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


# what a fresh `import ncap.cli` adds to sys.modules, by top-level name, apart
# from the runtime modules of PyYAML's Cython-built libyaml binding
CLI_IMPORTS = {
    "__future__", "_csv", "_datetime", "_json", "argparse", "base64", "csv",
    "datetime", "gettext", "json", "ncap", "yaml",
}


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
    added = {
        name
        for name in done.stdout.split()
        if not (name.startswith("_cython_") or name == "cython_runtime")
    }
    assert added <= CLI_IMPORTS, sorted(added - CLI_IMPORTS)
