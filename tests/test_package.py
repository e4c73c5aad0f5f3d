"""The package's shape: the module layering README describes, and the
console-script binding in pyproject.toml."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

from ginlab import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ginlab"
# the engine stages in pipeline order; each may import only earlier ones
STAGES = ("lattice", "hilbert", "staircase", "shape", "exporters")
# what each module must not import; errors may be imported anywhere, and
# importing the package itself imports verify
FORBIDDEN = {
    **{stage: {*STAGES[i + 1:], "verify", "cli", "ginlab"} for i, stage in enumerate(STAGES)},
    "verify": {"exporters", "cli"},
}


def ginlab_imports(source: str) -> set[str]:
    """The ginlab modules a module imports anywhere in its body, function
    bodies included; "ginlab" stands for the package itself."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] if "." in alias.name else alias.name
                      for alias in node.names if alias.name.split(".")[0] == "ginlab"}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "ginlab":
                continue
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import name, or from ginlab import name
                found |= {alias.name if alias.name in modules else "ginlab" for alias in node.names}
    return found


def test_import_collector_sees_every_form():
    source = ("from .lattice import PointConfig\n"
              "from . import staircase, main_entry\n"
              "import ginlab.hilbert\n"
              "from ginlab.shape import shape_report\n"
              "from json import dumps\n"
              "def f():\n"
              "    from .verify import run_verification\n")
    assert ginlab_imports(source) == {"lattice", "staircase", "ginlab", "hilbert", "shape", "verify"}


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_module_imports_follow_the_pipeline(module):
    imported = ginlab_imports((PACKAGE / f"{module}.py").read_text())
    assert not imported & FORBIDDEN[module], f"{module} imports {sorted(imported & FORBIDDEN[module])}"


def test_every_module_is_placed():
    assert {path.stem for path in PACKAGE.glob("*.py")} == {*FORBIDDEN, "errors", "cli", "__init__", "__main__"}


def test_console_script_runs_cli_main(monkeypatch, capsys):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"ginlab": "ginlab.cli:main"}
    module, _, attr = scripts["ginlab"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is cli.main
    # a console-script wrapper calls the entry point with no arguments and
    # hands its return value to sys.exit
    monkeypatch.setattr(sys, "argv", ["ginlab", "gin", "general:2", "--m", "1"])
    assert entry() == 0
    assert '"colength": 2' in capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["ginlab", "gin", "general:2", "--m", "x"])
    assert entry() == 2
    assert "usage: ginlab gin" in capsys.readouterr().err
