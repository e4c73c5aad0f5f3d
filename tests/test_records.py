"""The result records: immutable, compared field by field, cheap to import."""

from __future__ import annotations

import ast
import json.encoder
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ginlab import (DivisorClass, EffectivityResult, MonomialStaircase, PointConfig, Rational,
                    ShapeReport, SquareRootIntercept, VerifyReport,
                    exceptional_classes, exporters, gin_staircase)
from ginlab.errors import ComputationGuardError
from ginlab.verify import VerifyCheck


# type -> (fresh keyword arguments in field order, one other valid value per field);
# MonomialStaircase's alpha is tied to the length of its runs, so it has no lone variant
RECORDS = {
    DivisorClass: (lambda: {"d": 3, "mults": (1, 1, 0)},
                   {"d": 4, "mults": (1, 0, 1)}),
    PointConfig: (lambda: {"kind": "general", "n": 6},
                  {"kind": "collinear", "n": 7}),
    EffectivityResult: (lambda: {"effective": True, "h0": 1,
                                 "nef_remainder": DivisorClass(0, (0, 0)),
                                 "witness": None, "trace": ()},
                        {"effective": False, "h0": 2, "nef_remainder": DivisorClass(1, (0, 0)),
                         "witness": DivisorClass(-1, (0, 0)),
                         "trace": ((DivisorClass.exceptional(1, 2), 1),)}),
    MonomialStaircase: (lambda: {"alpha": 2, "runs": (range(3, 2, -1), range(1, 0, -1)), "m": 1,
                                 "config": PointConfig.general(2)},
                        {"runs": (range(4, 3, -1), range(1, 0, -1)), "m": 2,
                         "config": PointConfig.general(3)}),
    SquareRootIntercept: (lambda: {"radicand": 10},
                          {"radicand": 11}),
    Rational: (lambda: {"numerator": 5, "denominator": 2},
               {"numerator": 7, "denominator": 3}),
    ShapeReport: (lambda: {"config": PointConfig.general(6),
                           "entries": (MonomialStaircase(alpha=2, runs=(range(3, 2, -1), range(1, 0, -1)),
                                                         m=1, config=PointConfig.general(2)),),
                           "predicted": (Rational(12, 5), Rational(5, 2)),
                           "seshadri_estimate": Rational(2, 5)},
                  {"config": PointConfig.general(7), "entries": (), "predicted": None,
                   "seshadri_estimate": Rational(1, 2)}),
    VerifyCheck: (lambda: {"name": "colength", "passed": True, "detail": "ok"},
                  {"name": "class-list", "passed": False, "detail": "off"}),
    VerifyReport: (lambda: {"max_m": 5, "checks": (VerifyCheck("colength", True, "ok"),)},
                   {"max_m": 6, "checks": ()}),
}
TYPES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


@TYPES
def test_separate_constructions_are_equal(cls):
    fields, _ = RECORDS[cls]
    a, b = cls(**fields()), cls(**fields())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert cls(*fields().values()) == a  # keyword and positional order agree
    assert {name: getattr(a, name) for name in fields()} == fields()


@TYPES
def test_every_field_takes_part_in_equality(cls):
    fields, variants = RECORDS[cls]
    base = cls(**fields())
    for name, value in variants.items():
        other = cls(**{**fields(), name: value})
        assert other != base, name
        assert getattr(other, name) == value


@TYPES
def test_records_cannot_be_assigned(cls):
    fields, variants = RECORDS[cls]
    record = cls(**fields())
    for name, value in variants.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(**fields())


def test_divisor_class_stores_mults_as_a_tuple():
    assert DivisorClass(2, [1, 0]).mults == (1, 0)
    assert DivisorClass(2, [1, 0]) == DivisorClass(2, (1, 0))


@pytest.mark.parametrize("build,error,text", [
    (lambda: DivisorClass(0, ()), ValueError,
     "a divisor class needs at least one exceptional index"),
    (lambda: PointConfig("general", 9), ValueError,
     "general-position engine covers 2 to 8 points"),
    (lambda: PointConfig(kind="shgh", n=8), ValueError,
     "interpolation engine starts at 9 points; use general:r below that"),
    (lambda: PointConfig("collinear", 2), ValueError,
     "collinear arrangement needs at least 3 points on the line"),
    (lambda: PointConfig("conic", 5), ValueError, "unknown configuration kind 'conic'"),
    (lambda: PointConfig.parse("general:--6"), ValueError,
     "bad configuration 'general:--6'; expected kind:number"),
    (lambda: MonomialStaircase(alpha=0, runs=(), m=1, config=PointConfig.general(2)),
     ComputationGuardError, "staircase needs a positive initial degree"),
    (lambda: MonomialStaircase(alpha=2, runs=(range(3, 2, -1),), m=1, config=PointConfig.general(2)),
     ComputationGuardError, "one column height per x-exponent below alpha"),
    (lambda: MonomialStaircase(alpha=1, runs=(range(3, 2, -1), range(2, 2, -1)), m=1,
                               config=PointConfig.general(2)),
     ComputationGuardError, "each run must be a non-empty range of step -1"),
    (lambda: MonomialStaircase(alpha=2, runs=(range(3, 1, -2),), m=1, config=PointConfig.general(2)),
     ComputationGuardError, "each run must be a non-empty range of step -1"),
    (lambda: MonomialStaircase(alpha=2, runs=((3, 1),), m=1, config=PointConfig.general(2)),
     ComputationGuardError, "each run must be a non-empty range of step -1"),
    (lambda: MonomialStaircase(alpha=3, runs=(range(5, 4, -1), range(1, 0, -1), range(2, 1, -1)), m=1,
                               config=PointConfig.general(2)),
     ComputationGuardError, "column heights must strictly decrease, by 2 or more between runs: "
                            "column 1 has height 1, column 2 has height 2"),
    # (3, 2) strictly decreases but is one run, so two runs for it are not canonical
    (lambda: MonomialStaircase(alpha=2, runs=(range(3, 2, -1), range(2, 1, -1)), m=1,
                               config=PointConfig.general(2)),
     ComputationGuardError, "column heights must strictly decrease, by 2 or more between runs: "
                            "column 0 has height 3, column 1 has height 2"),
    (lambda: MonomialStaircase(alpha=2, runs=(range(1, -1, -1),), m=1, config=PointConfig.general(2)),
     ComputationGuardError, "the column next to x^alpha must be positive"),
])
def test_validation_keeps_error_types_and_texts(build, error, text):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == text


@pytest.mark.parametrize("cached,args", [
    (exceptional_classes, ()),
    (gin_staircase, (7,)),
])
def test_separately_parsed_configs_share_cache_entries(cached, args):
    first, second = PointConfig.parse("general:6"), PointConfig.parse("general:6")
    assert first is not second
    value = cached(first, *args)
    hits = cached.cache_info().hits
    assert cached(second, *args) is value
    assert cached.cache_info().hits == hits + 1


def test_cli_import_skips_dataclasses_inspect_and_typing():
    # -S keeps site-packages .pth hooks from importing modules of their own
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import ginlab.cli, sys; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stdout == "[]\n"


# main's exit code and which of these it loaded, on stderr's last line
_HEAVY = ("argparse", "decimal", "fractions", "gettext", "json", "locale", "numbers")
_RUN_MAIN = ("import ginlab.cli, sys; code = ginlab.cli.main(sys.argv[1:]); "
             f"print(code, sorted(set({_HEAVY!r}) & set(sys.modules)), file=sys.stderr)")
_FRACTIONS = ["decimal", "fractions", "numbers"]


@pytest.mark.parametrize("argv,loaded", [
    ("gin general:6 --m 12 --format text", []),
    ("hilbert general:6 --m 10 --t-range 20..25 --format csv", []),
    ("shape general:6 --m-list 2,4 --format svg", []),
    ("verify general:3 --max-m 3 --format text", []),
    ("gin shgh:10 --m 4", []),
    ("--help", ["argparse", "gettext", "locale"]),
    ("gin collinear:4 --m 5", []),
    ("classes general:6", []),
    ("shape general:6 --m-list 2,4 --format json", []),
    ("verify general:3 --max-m 3 --format json", []),
])
def test_cli_main_loads_argparse_and_json_only_when_used(argv, loaded):
    # a plain command skips argparse, --help goes to argparse; JSON output takes
    # its string encoder from _json, and intercepts are int pairs, so no command
    # loads json or fractions
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-S", "-c", _RUN_MAIN, *argv.split()],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stderr.splitlines()[-1] == f"0 {loaded}"


def test_entry_path_and_package_import_skip_fractions():
    # the real entry point, as -X importtime reports each module it imports
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    gin = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "ginlab",
                          "gin", "general:6", "--m", "12", "--format", "text"],
                         capture_output=True, text=True, env=env, check=True)
    imported = {line.rsplit("|", 1)[-1].strip() for line in gin.stderr.splitlines()
                if line.startswith("import time:")}
    assert "ginlab.hilbert" in imported
    assert not imported & set(_FRACTIONS)
    code = f"import ginlab, sys; print(sorted(set({_FRACTIONS!r}) & set(sys.modules)))"
    package = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                             env=env, check=True)
    assert package.stdout == "[]\n"


def test_a_config_file_is_the_one_json_read(tmp_path):
    path = tmp_path / "gin.json"
    path.write_text('{"config": "general:6", "m": 3}', encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["gin", "--config-file", str(path)]
    result = subprocess.run([sys.executable, "-S", "-c", _RUN_MAIN, *argv], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stderr.splitlines()[-1] == "0 ['json']"


def test_json_strings_use_the_encoder_json_dumps_uses(monkeypatch):
    # the C encoder from _json is the one json.dumps picks, so the bytes cannot drift
    seen = []
    monkeypatch.setattr(exporters, "_emit", lambda o, nl, out, string: seen.append(string))
    exporters.json_pieces({})
    assert len(seen) == 1 and seen[0] is json.encoder.encode_basestring_ascii


def test_no_module_imports_fractions_or_json_but_the_config_file_read():
    # (module.qualname, imported module) for every import of a heavy module, at
    # any depth; only cli._apply_config_file reads JSON, with json.load
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((scope, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((scope, child.module))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "ginlab").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    heavy = [(scope, module) for scope, module in found
             if module.split(".")[0] in {"decimal", "fractions", "json", "numbers"}]
    assert heavy == [("cli._apply_config_file", "json")]
