import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# the one line a command prints for a config beyond the line reader where
# PyYAML is not installed
NO_PYYAML = (
    "error: ConfigError: cannot parse config {}: it uses YAML beyond ncap's own reader, "
    "which needs PyYAML (pip install 'ncap[yaml]')\n"
)


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
    """PyYAML is optional: the `yaml` extra brings it for configs beyond the
    line reader, and the `test` extra for the yaml.load oracles."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text("utf-8"))["project"]
    assert project["dependencies"] == []
    for extra in ("yaml", "test"):
        assert "PyYAML>=6.0" in project["optional-dependencies"][extra], extra


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


def test_config_beyond_the_reader_without_pyyaml_is_one_error_line(tmp_path):
    """Where PyYAML is not installed, a config that needs yaml.load fails as
    one error line, exit 1 and nothing on stdout, from every command."""
    data = SRC.parent / "data"
    anchored = tmp_path / "anchored.yaml"
    anchored.write_text((data / "uas_config.yaml").read_text(encoding="utf-8").replace(
        "missing: mean", "missing: &policy mean"
    ), encoding="utf-8")
    probe = "import sys\nfrom ncap.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    matrix = ["--matrix", str(data / "uas_features.csv")]
    for command in ("score", "level", "distance", "plotdata", "compare"):
        argv = [command, *(matrix if command != "level" else []), "--config", str(anchored)]
        done = _child(probe, *argv, block=("yaml",), check=False)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", NO_PYYAML.format(anchored))
