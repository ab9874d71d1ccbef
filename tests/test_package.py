"""The package surface: lazy exports and the README's library and command-line examples."""
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import supracentrality
from supracentrality import cli

from _oracles import random_layer

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", sorted(supracentrality._EXPORTS))
def test_module_all_matches_the_package_exports(module):
    # the table is the one list: each name once, under the module that defines it
    listed = [name for names in supracentrality._EXPORTS.values() for name in names]
    home = importlib.import_module(f"supracentrality.{module}")
    assert home.__all__ == list(supracentrality._EXPORTS[module])
    for name in home.__all__:
        assert listed.count(name) == 1, name
        if name != "CentralityKind":  # a union alias, which no module defines
            assert getattr(home, name).__module__ == home.__name__, name


def test_every_export_is_a_package_attribute():
    for name in supracentrality.__all__:
        module = importlib.import_module(f"supracentrality.{supracentrality._HOME[name]}")
        assert getattr(supracentrality, name) is getattr(module, name)
    from supracentrality import PreconditionFailure, solve_point  # noqa: F401


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_start_runs():
    src = os.path.dirname(os.path.dirname(supracentrality.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _quick_start()], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()  # the example prints the centralities it computed


def _command_lines() -> list[list[str]]:
    """The README's command-line examples, one argument list per command."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    # six layers for the blocks:sizes=3,3 spec, eight nodes for --node 3
    rng = np.random.default_rng(26)
    lines = []
    for t in range(1, 7):
        layer = random_layer(rng, 8, density=0.4, with_cycle=True)
        lines += [f"{t} {i} {j} {w!r}" for i, j, w in layer.entries]
    (tmp_path / "net.edges").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = _command_lines()
    assert [argv[1] for argv in commands] == [
        "check", "centrality", "sweep", "limit", "correlate", "trajectory", "versatility"]
    for argv in commands:
        assert argv[0] == "supracentrality"
        assert cli.dispatch(argv[1:]) == 0, (argv, capsys.readouterr().err)
