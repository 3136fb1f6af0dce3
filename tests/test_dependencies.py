import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

def _child(probe, *args, block=(), check=True, **env):
    """A fresh interpreter that runs ``probe`` with ``args`` on the ncap source
    and ``env`` added to its environment. Each module named in ``block`` cannot
    be imported there: a sitecustomize sets its sys.modules entry to None, as
    if it were not installed. With ``check``, a non-zero exit raises."""
    with tempfile.TemporaryDirectory() as site:
        path = [str(SRC)]
        if block:
            lines = [f"sys.modules[{name!r}] = None\n" for name in block]
            Path(site, "sitecustomize.py").write_text("import sys\n" + "".join(lines))
            path.insert(0, site)
        return subprocess.run(
            [sys.executable, "-c", probe, *args],
            env={**os.environ, **env, "PYTHONPATH": os.pathsep.join(path)},
            capture_output=True,
            text=True,
            check=check,
        )


def test_pyproject_declares_no_runtime_dependency():
    """ncap reads its configs itself: PyYAML comes only with the `test`
    extra, for the yaml.load oracles."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text("utf-8"))["project"]
    assert project["dependencies"] == []
    assert set(project["optional-dependencies"]) == {"test"}
    assert "PyYAML>=6.0" in project["optional-dependencies"]["test"]


def test_no_module_imports_yaml():
    """No module of the package imports PyYAML, by statement or by name."""
    found = []
    for path in sorted((SRC / "ncap").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]  # as given to __import__ or importlib
            else:
                continue
            if any(name.split(".")[0] == "yaml" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_import_ncap_loads_neither_scipy_nor_numpy():
    probe = (
        "import sys, ncap; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))"
    )
    assert _child(probe).stdout.strip() == "[]"


def test_import_ncap_cli_loads_neither_dataclasses_nor_inspect():
    """The records are named tuples; dataclasses would bring inspect, ast, dis
    and tokenize into every cold command."""
    probe = (
        "import sys; before = set(sys.modules); import ncap.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    assert _child(probe).stdout.strip() == "[]"


# what a fresh `import ncap.cli` adds to sys.modules, by top-level name
CLI_IMPORTS = {"__future__", "_csv", "_json", "argparse", "csv", "gettext", "json", "ncap"}


def test_import_ncap_cli_adds_no_top_level_module():
    """Every cold command pays for what `import ncap.cli` loads; a new
    top-level module there must be a deliberate change to this set."""
    probe = (
        "import sys; before = set(sys.modules); import ncap.cli; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    done = _child(probe)
    added = set(done.stdout.split())
    assert added <= CLI_IMPORTS, sorted(added - CLI_IMPORTS)


def test_import_ncap_cli_loads_neither_array_nor_the_fork_helper():
    """Only a score table above its fork threshold needs them."""
    probe = (
        "import sys; import ncap.cli; "
        "print(sorted({'array', 'ncap._fork'} & set(sys.modules)))"
    )
    assert _child(probe).stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["score", "compare"])
def test_uas7_commands_never_fork(tmp_path, monkeypatch, command):
    """70 cells and 7 platforms are far below the fork threshold."""
    from ncap.cli import main

    forks = []

    def fork():
        forks.append(1)
        raise OSError("this test forks no child")

    monkeypatch.setattr(os, "fork", fork)
    data = SRC.parent / "data"
    argv = [command, "--matrix", str(data / "uas_features.csv")]
    argv += ["--config", str(data / "uas_config.yaml"), "--weights", "config"]
    assert main(argv + ["--out", str(tmp_path / "out.txt")]) == 0
    assert forks == []
