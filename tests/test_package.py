"""The package's shape: the module layering README describes, the
console-script binding in pyproject.toml, and no def that no command enters."""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

from ginlab import DivisorClass, cli, shape

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


def test_console_script_runs_cli_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"ginlab": "ginlab.cli:run"}
    module, _, attr = scripts["ginlab"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.run
    # run ends the process, so it runs in a child, called as a console-script
    # wrapper calls it: with no arguments, its return value handed to sys.exit
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def script(*argv):
        return subprocess.run([sys.executable, "-c", wrapper, *argv], capture_output=True, env=env)

    ok = script("gin", "general:2", "--m", "1")
    assert (ok.returncode, json.loads(ok.stdout)["colength"], ok.stderr) == (0, 2, b"")
    bad = script("gin", "general:2", "--m", "x")
    assert (bad.returncode, bad.stdout) == (2, b"")
    assert bad.stderr.startswith(b"usage: ginlab gin")


# Reachability: every def in src/ginlab is entered by some command, or is on
# ALLOWLIST with a reason the gate checks.

def defined_functions() -> dict[tuple[str, int], str]:
    """Every def in src/ginlab, methods and nested functions included, as
    module.qualname keyed by (file, first line); a decorated def starts at its
    first decorator, as its code object reports."""
    found: dict[tuple[str, int], str] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[path, first] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path), f"{path.stem}.")
    return found


def entered_by(run) -> set[tuple[str, int]]:
    """(file, first line) of every code object run() enters, files resolved;
    the tracer set before the call is restored after it."""
    entered: set[tuple[str, int]] = set()

    def tracer(frame, event, arg):  # call events only: returning None traces no lines
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {(str(Path(file).resolve()), line) for file, line in entered}


# flags that keep every subcommand small: m <= 5
SMALL_FLAGS = {"classes": [], "hilbert": ["--m", "5", "--t-range", "0..12"], "gin": ["--m", "5"],
               "shape": ["--m-list", "1,3,5"], "verify": ["--max-m", "3"]}
# (argv, exit code): every subcommand and format on each kind, help and usage errors
REACH_COMMANDS = [
    *(([name, spec, "--format", fmt, *SMALL_FLAGS[name]], 0)
      for spec in ("general:6", "collinear:4", "shgh:10")
      for name, _, _, formats, _ in cli._COMMANDS for fmt in formats
      if (name, spec) != ("classes", "shgh:10")),
    (["classes", "shgh:10"], 2),  # no class list: shgh's is conjectural and infinite
    (["--help"], 0),
    (["gin", "general:6", "--m", "x"], 2),
]


def run_reach_commands() -> None:
    """REACH_COMMANDS, then a verify whose convergence row fails, which
    reaches the failure-only paths, then one command through run; their
    output is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv, code in REACH_COMMANDS:
            assert cli.main(argv) == code, argv
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shape, "theoretical_shape", lambda config: (shape.Rational(1, 1),) * 2)
            assert cli.main(["verify", "general:6", "--max-m", "3"]) == 1
        # run, the program's exit path, with os._exit raising instead of ending the process
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys, "argv", ["ginlab", "gin", "general:6", "--m", "1"])
            patch.setattr(os, "_exit", exit_raising)
            with pytest.raises(Exited) as exited:
                cli.run()
            assert exited.value.args == (0,)


class Exited(Exception):
    """What os._exit(code) raises in run_reach_commands."""


def exit_raising(code: int):
    raise Exited(code)


def clear_ginlab_caches() -> None:
    """Empty ginlab's lru_caches, so that a cached function is entered as in
    a fresh process."""
    for name, module in list(sys.modules.items()):
        if name.startswith("ginlab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture(scope="module")
def unentered() -> set[str]:
    """The defs in src/ginlab that run_reach_commands never enters."""
    defined = defined_functions()
    clear_ginlab_caches()
    entered = entered_by(run_reach_commands)
    return {name for key, name in defined.items() if key not in entered}


# the names bench/tracing.py traces (TRACED and EXPORTERS), as module.name,
# and the text of bench/test_bench.py
Bench = namedtuple("Bench", "traced text")


def the_bench() -> Bench:
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {f"{module}.{name}" for module, name, _ in tracing.TRACED}
    traced |= {f"exporters.{name}" for name in tracing.EXPORTERS}
    return Bench(traced, (ROOT / "bench" / "test_bench.py").read_text())


def pinned(spelling: str):
    """A bench pin's reason: it holds while bench/tracing.py traces the name
    or bench/test_bench.py calls it."""
    return lambda bench: (spelling in bench.traced
                          or re.search(rf"\b{re.escape(spelling)}\(", bench.text) is not None)


# the defs no command enters, each with a test that the reason it stays still
# holds; a bench pin goes when the bench stops naming it
ALLOWLIST = {
    "exporters.staircase_json": pinned("exporters.staircase_json"),
    "exporters.shape_json": pinned("exporters.shape_json"),
    "lattice.is_nef": pinned("lattice.is_nef"),
    "lattice.riemann_roch_h0": pinned("lattice.riemann_roch_h0"),
    "lattice.h0": pinned("lattice.h0"),
    "lattice.PointConfig.general": pinned("PointConfig.general"),
    # a guard: DivisorClass is a tuple, whose own + would concatenate two classes
    "lattice.DivisorClass.__add__": lambda bench: issubclass(DivisorClass, tuple),
}


def reachability_problems(unentered: set[str], allowlist: dict, bench: Bench) -> list[str]:
    """What the gate refuses: a def no command enters that is not
    allowlisted, an allowlisted def that some command enters or that is
    gone, and an entry whose reason no longer holds."""
    problems = [f"{name}: no command enters it" for name in sorted(unentered - allowlist.keys())]
    for name, holds in allowlist.items():
        if name not in unentered:
            problems.append(f"{name}: allowlisted, but a command enters it or it is gone")
        elif not holds(bench):
            problems.append(f"{name}: the reason it is allowlisted no longer holds")
    return problems


def test_every_function_is_entered_by_a_command_or_allowlisted(unentered):
    assert reachability_problems(unentered, ALLOWLIST, the_bench()) == []


def test_reachability_gate_refuses_an_unentered_function(unentered):
    allowlist = {name: holds for name, holds in ALLOWLIST.items() if name != "lattice.h0"}
    assert reachability_problems(unentered, allowlist, the_bench()) == ["lattice.h0: no command enters it"]


def test_reachability_gate_refuses_a_stale_entry(unentered):
    allowlist = {**ALLOWLIST, "cli.main": pinned("cli.main")}
    assert reachability_problems(unentered, allowlist, the_bench()) == [
        "cli.main: allowlisted, but a command enters it or it is gone"]


def test_reachability_gate_refuses_a_pin_the_bench_dropped(unentered):
    bench = the_bench()
    unpinned = Bench(bench.traced - {"lattice.is_nef"},
                     bench.text.replace("PointConfig.general(", "PointConfig.parse("))
    assert reachability_problems(unentered, ALLOWLIST, unpinned) == [
        "lattice.is_nef: the reason it is allowlisted no longer holds",
        "lattice.PointConfig.general: the reason it is allowlisted no longer holds"]


def test_entered_by_records_calls_and_restores_the_tracer():
    def outer(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(outer)
    try:
        entered = entered_by(lambda: cli._dest("--max-m"))
        assert sys.gettrace() is outer
    finally:
        sys.settrace(previous)
    assert (str(PACKAGE / "cli.py"), cli._dest.__code__.co_firstlineno) in entered
