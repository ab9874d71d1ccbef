"""The package surface: lazy exports and the README's library example."""
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import supracentrality

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", sorted(supracentrality._EXPORTS))
def test_module_all_matches_the_package_exports(module):
    names = importlib.import_module(f"supracentrality.{module}").__all__
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(supracentrality._EXPORTS[module])


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
