"""Packaging checks: each public name is imported from its module, and every
module imports on its own."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fednorm

MODULES = ("cli", "config", "contribution", "data", "nn", "simulation", "strategies")
SRC = str(Path(fednorm.__file__).resolve().parents[1])


def test_package_re_exports_no_name():
    """Besides dunders, ``fednorm`` holds only the submodules that are loaded."""
    public = {name for name in vars(fednorm) if not name.startswith("_")}
    assert public <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    """A fresh interpreter imports the module by itself, so no import cycle
    hides behind an order that another import happened to set."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import fednorm.{module}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_readme_library_example_runs(monkeypatch, capsys):
    """The README's library example runs as written from the repository root."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(root)
    exec(compile(example, "README.md", "exec"), {})
    accuracy = float(capsys.readouterr().out.split()[-1])
    assert 0.0 <= accuracy <= 1.0
