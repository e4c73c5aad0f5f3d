"""The result records: immutable, compared field by field, cheap to import."""

from __future__ import annotations

import ast
import copy
import json.encoder
import os
import pickle
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

from ginlab import (DivisorClass, MonomialStaircase, PointConfig, Rational, ShapeReport,
                    SquareRootIntercept, VerifyReport, exceptional_classes, exporters, gin_staircase,
                    hilbert_fn, run_verification)
from ginlab.hilbert import alpha, alpha_shgh, nef_threshold, shgh_hilbert
from ginlab.lattice import EffectivityResult
from ginlab.staircase import shgh_gin_closed_form
from ginlab.errors import ComputationGuardError
from ginlab.exporters import _IntRuns, render_ranges, render_runs
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
    _IntRuns: (lambda: {"runs": ((1, 2, 3, 4),), "width": 2, "leaf": '"%d/%d"',
                        "render": render_runs},
               {"runs": ((5,),), "width": 1, "leaf": "%d", "render": render_ranges}),
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
    assert cls(**dict(reversed(fields().items()))) == a  # keywords in any order
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


@TYPES
def test_repr_is_the_namedtuple_repr(cls):
    fields, _ = RECORDS[cls]
    plain = namedtuple(cls.__name__, list(fields()))(**fields())
    assert repr(cls(**fields())) == repr(plain)


@TYPES
def test_pickle_and_copy_rebuild_an_equal_record(cls):
    fields, _ = RECORDS[cls]
    record = cls(**fields())
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(record, protocol))
        assert type(again) is cls and again == record, protocol
    assert type(copy.deepcopy(record)) is cls and copy.deepcopy(record) == record
    assert copy.copy(record) == record


@TYPES
def test_fields_are_namedtuple_getters(cls):
    # the C getter namedtuple installs, which reads a field faster than a property
    fields, _ = RECORDS[cls]
    getter = type(namedtuple("Plain", "field").field)
    assert cls._fields == tuple(fields())
    assert [type(getattr(cls, name)) for name in fields()] == [getter] * len(fields())


# (record type, its fields in order as a dict) -> a build with a wrong set of fields
_WRONG_FIELDS = {
    "missing positional": lambda cls, fields: cls(*list(fields.values())[:-1]),
    "missing by name": lambda cls, fields: cls(**dict(list(fields.items())[1:])),
    "extra positional": lambda cls, fields: cls(*fields.values(), list(fields.values())[-1]),
    "unknown keyword": lambda cls, fields: cls(*fields.values(), extra=1),
    "unknown keyword by name": lambda cls, fields: cls(**fields, extra=1),
    "given twice": lambda cls, fields: cls(next(iter(fields.values())), **fields),
}


@TYPES
@pytest.mark.parametrize("case", list(_WRONG_FIELDS))
def test_a_wrong_set_of_fields_is_a_type_error(cls, case):
    # the same for a record's own __new__ as for Record's, whose named path
    # the builds by name take
    fields, _ = RECORDS[cls]
    with pytest.raises(TypeError):
        _WRONG_FIELDS[case](cls, fields())


def test_only_records_that_validate_or_reduce_write_a_constructor():
    assert {cls for cls in RECORDS if "__new__" in vars(cls)} == {
        Rational, DivisorClass, PointConfig, MonomialStaircase}


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
    (lambda: PointConfig("shgh", 9.5), ValueError, "point count must be an int, not float"),
    (lambda: PointConfig("general", 6.0), ValueError, "point count must be an int, not float"),
    (lambda: PointConfig("general", "6"), ValueError, "point count must be an int, not str"),
    (lambda: PointConfig("general", True), ValueError, "point count must be an int, not bool"),
    (lambda: DivisorClass(2.5, (1, 1)), ValueError, "degree must be an int, not float"),
    (lambda: DivisorClass(2, (1, 1.0)), ValueError, "multiplicity must be an int, not float"),
    (lambda: DivisorClass(2, (True, 1)), ValueError, "multiplicity must be an int, not bool"),
    (lambda: hilbert_fn(PointConfig.general(6), 10.0, 25), ValueError,
     "multiplicity must be an int, not float"),
    (lambda: hilbert_fn(PointConfig.general(6), True, 3), ValueError,
     "multiplicity must be an int, not bool"),
    (lambda: hilbert_fn(PointConfig.general(6), 10, 25.0), ValueError, "degree must be an int, not float"),
    (lambda: gin_staircase(PointConfig.general(6), 10.0), ValueError,
     "multiplicity must be an int, not float"),
    (lambda: gin_staircase(PointConfig.general(6), True), ValueError,
     "multiplicity must be an int, not bool"),
    # 10.0 hashes equal to 10, so only a typed cache keeps the warm entry from answering it
    (lambda: (hilbert_fn(PointConfig.general(6), 10, 25), hilbert_fn(PointConfig.general(6), 10.0, 25)),
     ValueError, "multiplicity must be an int, not float"),
    (lambda: (gin_staircase(PointConfig.general(6), 10), gin_staircase(PointConfig.general(6), 10.0)),
     ValueError, "multiplicity must be an int, not float"),
    # every entry point that takes a multiplicity refuses a float or a bool
    # before its range test, which 10.0 and True would pass
    (lambda: nef_threshold(PointConfig.general(6), 10.0), ValueError,
     "multiplicity must be an int, not float"),
    (lambda: nef_threshold(PointConfig.general(6), True), ValueError,
     "multiplicity must be an int, not bool"),
    (lambda: alpha(PointConfig.shgh(10), 10.0), ValueError, "multiplicity must be an int, not float"),
    (lambda: alpha(PointConfig.general(6), True), ValueError, "multiplicity must be an int, not bool"),
    (lambda: shgh_gin_closed_form(10, 3.0), ValueError, "multiplicity must be an int, not float"),
    (lambda: shgh_hilbert(10, 3.0, 5), ValueError, "multiplicity must be an int, not float"),
    (lambda: shgh_hilbert(10, 3, 5.0), ValueError, "degree must be an int, not float"),
    (lambda: alpha_shgh(10, 3.0), ValueError, "multiplicity must be an int, not float"),
    (lambda: run_verification(PointConfig.general(6), 3.0), ValueError,
     "max_m must be an int, not float"),
    (lambda: run_verification(PointConfig.general(6), True), ValueError,
     "max_m must be an int, not bool"),
    # every entry point that takes a multiplicity refuses one out of range,
    # through the one helper, before the type of any later argument
    (lambda: shgh_hilbert(10, -1, 5), ValueError, "multiplicity must be nonnegative"),
    (lambda: alpha_shgh(10, -1), ValueError, "multiplicity must be nonnegative"),
    (lambda: nef_threshold(PointConfig.general(6), -1), ValueError, "multiplicity must be nonnegative"),
    (lambda: hilbert_fn(PointConfig.general(6), -1, 5), ValueError, "multiplicity must be nonnegative"),
    (lambda: alpha(PointConfig.general(6), 0), ValueError, "multiplicity must be positive"),
    (lambda: gin_staircase(PointConfig.general(6), 0), ValueError, "multiplicity must be positive"),
    (lambda: shgh_gin_closed_form(10, 0), ValueError, "multiplicity must be positive"),
    (lambda: run_verification(PointConfig.general(6), 0), ValueError, "max_m must be positive"),
    (lambda: hilbert_fn(PointConfig.general(6), -1, 2.5), ValueError, "multiplicity must be nonnegative"),
    # Record's own constructor names the record and the field
    (lambda: VerifyReport(max_m=5), TypeError, "VerifyReport() missing field 'checks'"),
    (lambda: VerifyCheck("colength", True), TypeError, "VerifyCheck() missing field 'detail'"),
    (lambda: VerifyCheck("colength", True, "ok", "extra"), TypeError,
     "VerifyCheck() takes 3 fields but 4 were given"),
    (lambda: VerifyReport(5, (), max_m=5), TypeError, "VerifyReport() got multiple values for field 'max_m'"),
    (lambda: VerifyReport(5, check=()), TypeError, "VerifyReport() got an unexpected field 'check'"),
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


# one plain argv per subcommand, gin in both of its formats
_PLAIN = (["gin", "general:6", "--m", "5"], ["gin", "general:6", "--m", "5", "--format", "text"],
          ["hilbert", "general:6", "--m", "5", "--t-range", "0..12", "--format", "csv"],
          ["shape", "general:6", "--m-list", "2,4", "--format", "svg"],
          ["verify", "general:3", "--max-m", "3", "--format", "json"], ["classes", "general:6"])
# the modules whose own namedtuples would count are imported before the hook;
# a module compiled from its .py file, when no bytecode is cached, does not count
_COUNT_COMPILES = f"""
import functools, collections, itertools, io, sys
compiled = []
sys.addaudithook(lambda event, args: event == "compile" and not str(args[1]).endswith(".py")
                 and compiled.append(args[1]))
import ginlab.cli
real = sys.stdout
for argv in {_PLAIN!r}:
    sys.stdout = io.StringIO()
    code = ginlab.cli.main(argv)
    sys.stdout = real
    print(code, file=sys.stderr)
print(compiled)
"""


def test_no_command_compiles_source_at_import_or_run():
    # a namedtuple evals the source of its __new__, so each record built
    # with one would compile at import
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-S", "-c", _COUNT_COMPILES], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stderr.split() == ["0"] * len(_PLAIN)
    assert result.stdout == "[]\n"


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


# each argv through main, output dropped, then how many suffix tables were built
_COUNT_TABLES = ("import io, sys, ginlab.cli\n"
                 "sys.stdout = io.StringIO()\n"
                 "codes = [ginlab.cli.main(argv.split()) for argv in sys.argv[1:]]\n"
                 "from ginlab import exporters\n"
                 "print(codes, exporters._suffixes.cache_info().currsize, file=sys.stderr)")


@pytest.mark.parametrize("argvs,built", [
    (["hilbert general:8 --m 30 --t-range 0..3000 --format json",
      "hilbert shgh:16 --m 40 --t-range 0..3000 --format text",
      "shape shgh:16 --m-list 2000,4000 --format json", "shape shgh:16 --m-list 2000 --format svg",
      "shape general:8 --m-list 300,600 --format csv", "verify shgh:16 --max-m 12",
      "verify general:8 --max-m 12 --format json"], 0),
    (["gin shgh:16 --m 2000 --format text"], 1),
])
def test_only_a_staircase_array_builds_the_suffix_tables(argvs, built):
    # sweep's hilbert, shape and verify documents render no staircase array,
    # so they must not pay for the tables
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-S", "-c", _COUNT_TABLES, *argvs], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stderr.splitlines()[-1] == f"{[0] * len(argvs)} {built}"


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
