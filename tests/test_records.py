"""The result records: immutable, compared field by field, cheap to import."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ginlab import (DivisorClass, EffectivityResult, MonomialStaircase, PointConfig,
                    ShapeEntry, ShapeReport, SquareRootIntercept, VerifyReport,
                    exceptional_classes, gin_staircase)
from ginlab.errors import ComputationGuardError
from ginlab.verify import VerifyCheck


def _entry_fields() -> dict:
    return {"m": 10, "alpha": 24, "zeta": 25, "colength": 210,
            "x_intercept": Fraction(12, 5), "y_intercept": Fraction(5, 2),
            "colength_over_m2": Fraction(21, 10), "generators": ((24, 0), (0, 25))}


# type -> (fresh keyword arguments in field order, one other valid value per field);
# MonomialStaircase's alpha is tied to len(lambdas), so it has no lone variant
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
    MonomialStaircase: (lambda: {"alpha": 2, "lambdas": (3, 1), "m": 1,
                                 "config": PointConfig.general(2)},
                        {"lambdas": (4, 1), "m": 2, "config": PointConfig.general(3)}),
    SquareRootIntercept: (lambda: {"radicand": 10},
                          {"radicand": 11}),
    ShapeEntry: (_entry_fields,
                 {"m": 20, "alpha": 25, "zeta": 26, "colength": 211,
                  "x_intercept": Fraction(5, 2), "y_intercept": Fraction(12, 5),
                  "colength_over_m2": Fraction(3), "generators": ((1, 0), (0, 1))}),
    ShapeReport: (lambda: {"config": PointConfig.general(6),
                           "entries": (ShapeEntry(**_entry_fields()),),
                           "predicted": (Fraction(12, 5), Fraction(5, 2)),
                           "seshadri_estimate": Fraction(2, 5)},
                  {"config": PointConfig.general(7), "entries": (), "predicted": None,
                   "seshadri_estimate": Fraction(1, 2)}),
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
    (lambda: MonomialStaircase(alpha=0, lambdas=(), m=1, config=PointConfig.general(2)),
     ComputationGuardError, "staircase needs a positive initial degree"),
    (lambda: MonomialStaircase(alpha=2, lambdas=(3,), m=1, config=PointConfig.general(2)),
     ComputationGuardError, "one column height per x-exponent below alpha"),
    (lambda: MonomialStaircase(alpha=2, lambdas=(1, 2), m=1, config=PointConfig.general(2)),
     ComputationGuardError, "column heights must strictly decrease: (1, 2)"),
    (lambda: MonomialStaircase(alpha=2, lambdas=(1, 0), m=1, config=PointConfig.general(2)),
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
