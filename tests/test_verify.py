"""Cross-validation suite wiring."""

from __future__ import annotations

from functools import partial
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginlab import (DivisorClass, PointConfig, cli, exceptional_classes, gin_staircase, hilbert_fn,
                    run_verification)
from ginlab import shape, verify
from ginlab.lattice import COLLINEAR, GENERAL, SHGH, uniform_h0
from ginlab.staircase import shgh_gin_closed_form
from ginlab.verify import brute_force_exceptional_classes
from oracles import (clear_ginlab_caches, degree_count, heights, products_inside_all_pairs,
                     staircase_of, window_of)
from test_package import defined_functions, entered_by


def clear_caches():
    hilbert_fn.cache_clear()
    gin_staircase.cache_clear()


@pytest.mark.parametrize("r,count", [(2, 3), (3, 6), (4, 10), (5, 16), (6, 27), (7, 56),
                                     (8, 240)])
def test_brute_force_counts(r, count):
    classes = brute_force_exceptional_classes(r)
    assert len(classes) == count
    assert classes == exceptional_classes(PointConfig.general(r))
    # the construction the distinct orderings replaced: every permutation, deduplicated
    shapes = {(c.d, tuple(sorted(c.mults))) for c in classes}
    by_permutations = {DivisorClass(d, mults) for d, shape in shapes for mults in set(permutations(shape))}
    assert classes == tuple(sorted(by_permutations, key=lambda c: (c.d, c.mults)))


@pytest.mark.parametrize("spec,max_m", [
    ("general:2", 10),
    ("general:6", 10),
    ("shgh:9", 10),
    ("collinear:3", 12),
    ("general:8", 16),
    ("collinear:8", 12),
    ("collinear:7", 14),
    ("shgh:40", 50),
])
def test_run_verification_passes(spec, max_m):
    report = run_verification(PointConfig.parse(spec), max_m=max_m)
    assert report.passed
    assert report.failures == ()
    assert all(check.detail for check in report.checks)
    assert not any("skipped" in check.detail for check in report.checks)


SHAPE_CHECK_DETAILS = {
    "general:8": "intercepts within 3/m for m <= 4",
    "shgh:9": "intercepts within 5/(2m) for m <= 4",
    "shgh:40": "intercepts within 9/(2m) for m <= 4",
    "collinear:5": ("generator degrees 2m-floor(m/l) and lm confirmed for m <= 4; "
                    "single segment excluded (9/2 > 3)"),
}


@pytest.mark.parametrize("spec", SHAPE_CHECK_DETAILS)
def test_shape_check_detail_covers_every_m(spec):
    report = run_verification(PointConfig.parse(spec), max_m=4)
    (check,) = [c for c in report.checks if c.name == "convergence"]
    assert check.detail == SHAPE_CHECK_DETAILS[spec]


def test_check_names_by_kind():
    names = [c.name for c in run_verification(PointConfig.general(2), max_m=4).checks]
    assert names == ["class-list", "orbit-engine", "colength", "cremona",
                     "first-differences", "convergence", "graded-system"]
    names = [c.name for c in run_verification(PointConfig.shgh(9), max_m=4).checks]
    assert names == ["colength", "closed-form", "first-differences",
                     "convergence", "graded-system"]
    names = [c.name for c in run_verification(PointConfig.collinear_plus_one(3), max_m=6).checks]
    assert names == ["class-list", "orbit-engine", "colength", "first-differences",
                     "convergence", "graded-system"]


def test_run_verification_rejects_bad_max_m():
    with pytest.raises(ValueError):
        run_verification(PointConfig.general(2), max_m=0)


def test_closed_form_check_catches_a_wrong_staircase(monkeypatch):
    def wrong(r, m):
        profile = heights(shgh_gin_closed_form(r, m))
        return staircase_of((profile[0] + 1,) + profile[1:], m, PointConfig.shgh(r))

    # only the check's own binding: the wrong staircase must be caught by the
    # closed-form check alone, not by colength inside the other checks
    monkeypatch.setattr("ginlab.verify.shgh_gin_closed_form", wrong)
    report = run_verification(PointConfig.shgh(10), max_m=4)
    assert [c.name for c in report.failures] == ["closed-form"]
    assert report.failures[0].detail == "divergence at m=1, t=4"


def test_collinear_class_list_check_needs_the_line(monkeypatch):
    config = PointConfig.collinear_plus_one(3)
    (check,) = [c for c in run_verification(config, max_m=4).checks if c.name == "class-list"]
    assert check == ("class-list", True, "8 curves listed, line class has self-intersection -2")
    # the line swapped for a class off it: still 2l + 2 curves, but not the list
    line, stray = DivisorClass(1, (1, 1, 1, 0)), DivisorClass(1, (1, 0, 1, 0))
    doctored = tuple(stray if c == line else c for c in exceptional_classes(config))
    assert len(doctored) == 8 and line not in doctored
    monkeypatch.setattr("ginlab.verify.exceptional_classes", lambda config: doctored)
    report = run_verification(config, max_m=4)
    assert [(c.name, c.detail) for c in report.failures] == [
        ("class-list", "line class (1; 1, 1, 1, 0) is not among the 8 curves listed")]


def test_orbit_check_catches_a_wrong_engine(monkeypatch):
    def wrong(config, m, t):
        return uniform_h0(config, m, t) + ((m, t) == (3, 7))

    # the engine hilbert_fn calls is off by one at an (m, t) that both window
    # rows notice and no other row does; the cached values it leaves behind
    # are dropped afterwards
    monkeypatch.setattr("ginlab.hilbert.uniform_h0", wrong)
    clear_caches()
    try:
        report = run_verification(PointConfig.general(5), max_m=4)
    finally:
        clear_caches()
    assert [(c.name, c.detail) for c in report.failures] == [
        ("orbit-engine", "divergence at m=3, t=7"), ("cremona", "divergence at m=3, t=7")]


def test_cremona_row_catches_a_wrong_value_past_the_orbit_cap(monkeypatch, capsys):
    def wrong(config, m, t):
        value = uniform_h0(config, m, t)
        return value + (config == PointConfig.general(6) and m % 7 == 3 and m > 8
                        and value > 0 and uniform_h0(config, m, t - 1) == 0)

    # H(alpha) + 1 on general:6 at m = 10 (and 17, 24, ...), in both engine
    # bindings, hilbert_fn's greedy and the walk's window: above orbit-engine's
    # m <= 8, below the nef threshold, and no product escapes at m <= 7, so
    # only the Cremona row sees it
    monkeypatch.setattr("ginlab.hilbert.uniform_h0", wrong)
    monkeypatch.setattr("ginlab.staircase.uniform_h0_window", window_of(wrong))
    clear_caches()
    try:
        report = run_verification(PointConfig.general(6), 14)
        clear_caches()
        code = cli.main(["verify", "general:6", "--max-m", "14"])
    finally:
        clear_caches()
    assert [(c.name, c.detail) for c in report.failures] == [("cremona", "divergence at m=10, t=24")]
    assert code == 1
    assert "FAIL cremona: divergence at m=10, t=24\n" in capsys.readouterr().out


# The src/ginlab defs that both routes of a pair row enter besides the
# primitives, each with the reason the row still checks something: a pair row
# missing here, or a side that gains a shared def, fails the test below.
PRIMITIVES = {"lattice.PointConfig.r", "lattice.PointConfig.l", "lattice.require_int"}
DECLARED_SHARED = {
    "orbit-engine": {"lattice._curve_orbits": "checks the peel arithmetic, not the curve list"},
    "cremona": {},
    "closed-form": {"hilbert.shgh_hilbert": "checks the closed form's layout, not the count"},
    "class-list": {"lattice.intersect": "the definition of C.C and C.K",
                   "lattice.DivisorClass.__new__": "builds the classes intersect reads"},
}
SIDE_SPECS = {GENERAL: ("general:2", "general:6", "general:8"),
              COLLINEAR: ("collinear:3", "collinear:8"), SHGH: ("shgh:9", "shgh:16")}


def pair_sides():
    """(row, config, engine run, oracle run): every _compare row of _CHECKS on
    its own window at m <= 3, once per spec of each kind it runs on, and
    class-list's general half."""
    def over(side, config, windows):
        return lambda: [side(config, m)(t) for m, ts in windows for t in ts]

    for name, check, kinds in verify._CHECKS:
        if getattr(check, "func", None) is verify._compare:
            engine, oracle, window = check.args[:3]
            for config in (PointConfig.parse(spec) for kind in kinds for spec in SIDE_SPECS[kind]):
                windows = [(m, window(config, m)) for m in range(1, 4)]
                yield name, config, over(engine, config, windows), over(oracle, config, windows)
    for config in map(PointConfig.parse, SIDE_SPECS[GENERAL]):
        yield ("class-list", config, partial(exceptional_classes, config),
               partial(brute_force_exceptional_classes, config.r))


def test_window_rows_share_only_what_they_declare():
    defined = defined_functions()

    def defs_entered(run) -> set[str]:
        clear_ginlab_caches()
        return {defined[key] for key in entered_by(run) if key in defined} - PRIMITIVES

    seen = set()
    for name, config, engine, oracle in pair_sides():
        engine_defs, oracle_defs = defs_entered(engine), defs_entered(oracle)
        assert engine_defs and oracle_defs, (name, config)
        assert engine_defs & oracle_defs == set(DECLARED_SHARED[name]), (name, config)
        seen.add(name)
    assert seen == set(DECLARED_SHARED)
    assert all(reason for shared in DECLARED_SHARED.values() for reason in shared.values())


def test_guard_errors_become_failed_checks(monkeypatch, capsys):
    def wrong(config, m, t):
        return uniform_h0(config, m, t) + ((m, t) == (2, 5))

    # the wrong value, handed to the window the walk reads, breaks staircase
    # reconstruction, which raises a guard error inside several checks; each
    # of them fails instead of the suite
    monkeypatch.setattr("ginlab.staircase.uniform_h0_window", window_of(wrong))
    clear_caches()
    try:
        report = run_verification(PointConfig.general(5), max_m=4)
        clear_caches()
        code = cli.main(["verify", "general:5", "--max-m", "4"])
    finally:
        clear_caches()
    guard = ("segment of 6 monomials at degree 6 is not the full 7 above the nef threshold"
             " for general:5, m=2")
    failed = {c.name: c.detail for c in report.failures}
    assert {name: failed[name] for name in ("colength", "convergence", "graded-system")} == {
        "colength": guard, "convergence": guard, "graded-system": guard}
    out = capsys.readouterr().out
    assert code == 1
    assert f"FAIL convergence: {guard}\n" in out
    assert out.endswith(f"{len(report.failures)} check(s) failed\n")


CONVERGENCE_FAILED = ("m=2: y-intercept 3 is off 1 by more than 3/2; "
                      "m=3: x-intercept 8/3 is off 1 by more than 1; "
                      "m=3: y-intercept 8/3 is off 1 by more than 1")
FAILING_VERIFY = {
    "text": (
        "# verify general:6 --max-m 3\n"
        "PASS class-list: 27 classes match brute-force enumeration\n"
        "PASS orbit-engine: orbit peeling equals reduce_to_nef from alpha-1 to the nef"
        " threshold+1 for m <= 3\n"
        "PASS colength: equals r*m*(m+1)/2 for every m <= 3\n"
        "PASS cremona: Cremona reduction equals the engine from alpha-1 to the nef"
        " threshold+1 for m <= 3\n"
        "PASS first-differences: within [0, t+1] for m in [1, 3]\n"
        f"FAIL convergence: {CONVERGENCE_FAILED}\n"
        "PASS graded-system: products and scaled nesting hold for m <= 1\n"
        "1 check(s) failed\n"),
    "json": (
        '{\n'
        '  "config": "general:6",\n'
        '  "max_m": 3,\n'
        '  "passed": false,\n'
        '  "checks": [\n'
        '    {\n'
        '      "name": "class-list",\n'
        '      "passed": true,\n'
        '      "detail": "27 classes match brute-force enumeration"\n'
        '    },\n'
        '    {\n'
        '      "name": "orbit-engine",\n'
        '      "passed": true,\n'
        '      "detail": "orbit peeling equals reduce_to_nef from alpha-1 to the nef'
        ' threshold+1 for m <= 3"\n'
        '    },\n'
        '    {\n'
        '      "name": "colength",\n'
        '      "passed": true,\n'
        '      "detail": "equals r*m*(m+1)/2 for every m <= 3"\n'
        '    },\n'
        '    {\n'
        '      "name": "cremona",\n'
        '      "passed": true,\n'
        '      "detail": "Cremona reduction equals the engine from alpha-1 to the nef'
        ' threshold+1 for m <= 3"\n'
        '    },\n'
        '    {\n'
        '      "name": "first-differences",\n'
        '      "passed": true,\n'
        '      "detail": "within [0, t+1] for m in [1, 3]"\n'
        '    },\n'
        '    {\n'
        '      "name": "convergence",\n'
        '      "passed": false,\n'
        f'      "detail": "{CONVERGENCE_FAILED}"\n'
        '    },\n'
        '    {\n'
        '      "name": "graded-system",\n'
        '      "passed": true,\n'
        '      "detail": "products and scaled nesting hold for m <= 1"\n'
        '    }\n'
        '  ]\n'
        '}\n'),
}


@pytest.mark.parametrize("fmt", sorted(FAILING_VERIFY))
def test_a_failing_verify_document_byte_for_byte(monkeypatch, capsys, fmt):
    # every intercept predicted at 1, so the convergence row fails and the
    # others pass
    monkeypatch.setattr(shape, "theoretical_shape", lambda config: (shape.Rational(1, 1),) * 2)
    assert cli.main(["verify", "general:6", "--max-m", "3", "--format", fmt]) == 1
    assert capsys.readouterr().out == FAILING_VERIFY[fmt]


# The two failure details no other test reaches, each from one doctored
# binding in verify: the graded row reads the staircase at m + 1 for every
# even m, so the one at 2 is the one at 3, which the products at m = 1 escape;
# the closed-form row reads the closed form at 4 for m = 3.
DOCTORED_VERIFY = {
    "graded-system": (
        "ginlab.verify.gin_staircase", lambda config, m: gin_staircase(config, m + (m % 2 == 0)),
        ["verify", "general:6", "--max-m", "4"],
        "# verify general:6 --max-m 4\n"
        "PASS class-list: 27 classes match brute-force enumeration\n"
        "PASS orbit-engine: orbit peeling equals reduce_to_nef from alpha-1 to the nef"
        " threshold+1 for m <= 4\n"
        "PASS colength: equals r*m*(m+1)/2 for every m <= 4\n"
        "PASS cremona: Cremona reduction equals the engine from alpha-1 to the nef"
        " threshold+1 for m <= 4\n"
        "PASS first-differences: within [0, t+1] for m in [1, 2, 4]\n"
        "PASS convergence: intercepts within 3/m for m <= 4\n"
        "FAIL graded-system: products escape at m=1\n"
        "1 check(s) failed\n"),
    "closed-form": (
        "ginlab.verify.shgh_gin_closed_form", lambda r, m: shgh_gin_closed_form(r, 4 if m == 3 else m),
        ["verify", "shgh:10", "--max-m", "4"],
        "# verify shgh:10 --max-m 4\n"
        "PASS colength: equals r*m*(m+1)/2 for every m <= 4\n"
        "FAIL closed-form: divergence at m=3, t=10\n"
        "PASS first-differences: within [0, t+1] for m in [1, 2, 4]\n"
        "PASS convergence: intercepts within 3/m for m <= 4\n"
        "PASS graded-system: products and scaled nesting hold for m <= 2\n"
        "1 check(s) failed\n"),
}


@pytest.mark.parametrize("row", sorted(DOCTORED_VERIFY))
def test_a_failing_row_document_byte_for_byte(monkeypatch, capsys, row):
    target, doctored, argv, document = DOCTORED_VERIFY[row]
    monkeypatch.setattr(target, doctored)
    assert cli.main(argv) == 1
    assert capsys.readouterr().out == document


def test_colength_and_convergence_read_shape_reports_staircases(monkeypatch):
    # both rows take their staircases from shape_report, whose guard rejects
    # the wrong colength; graded-system builds its own through verify's binding
    wrong = staircase_of((3,), 1, PointConfig.general(2))
    monkeypatch.setattr("ginlab.shape.gin_staircase", lambda config, m: wrong)
    report = run_verification(PointConfig.general(2), max_m=3)
    guard = "colength 3 differs from scheme length 2 for general:2, m=1"
    assert [(c.name, c.detail) for c in report.failures] == [
        ("colength", guard), ("convergence", guard)]
    (graded,) = [c for c in report.checks if c.name == "graded-system"]
    assert graded.passed


def test_first_differences_failure_names_config_m_and_t(monkeypatch):
    def wrong(config, m, t):
        return hilbert_fn(config, m, t) + 10 * ((m, t) == (2, 3))

    # the binding xy_count reads: the check sees the jump at t=3 through its guard
    monkeypatch.setattr("ginlab.staircase.hilbert_fn", wrong)
    clear_caches()
    try:
        report = run_verification(PointConfig.general(2), max_m=4)
    finally:
        clear_caches()
    failed = {c.name: c.detail for c in report.failures}
    assert failed["first-differences"] == (
        "first difference 13 outside [0, 4] at degree 3 for general:2, m=2; Hilbert engine bug")


def test_every_check_is_in_the_table_once():
    # each row is a _check_* def or a partial of _compare, the loop that pits two routes
    checks = [check for _, check, _ in verify._CHECKS]
    defined = [value for name, value in vars(verify).items() if name.startswith("_check_")]
    compared = [check for check in checks if getattr(check, "func", None) is verify._compare]
    assert [name for name, check, _ in verify._CHECKS if check in compared] == [
        "orbit-engine", "cremona", "closed-form"]
    assert sorted(checks, key=id) == sorted(defined + compared, key=id)
    assert len(set(checks)) == len(checks) == len({name for name, _, _ in verify._CHECKS})


@pytest.mark.parametrize("target,spec,max_m,check", [
    ("check_convergence", "general:2", 4, "convergence"),
    ("collinear_shape_check", "collinear:3", 6, "convergence"),
])
def test_shape_check_failures_fail_the_report(monkeypatch, target, spec, max_m, check):
    # each check is stubbed where its caller looks it up: verify calls
    # check_convergence, which calls collinear_shape_check for collinear
    owner = verify if target in vars(verify) else shape
    monkeypatch.setattr(owner, target, lambda *args: (False, "boom"))
    report = run_verification(PointConfig.parse(spec), max_m=max_m)
    assert not report.passed
    assert [(c.name, c.detail) for c in report.failures] == [(check, "boom")]


@pytest.mark.parametrize("m,column", [(1, 0), (3, 3), (5, 13), (6, 20)])
def test_graded_check_catches_a_product_escaping(monkeypatch, m, column):
    config = PointConfig.collinear_plus_one(5)

    def raised(config, n):
        s = gin_staircase(config, n)
        if n != 2 * m:
            return s
        profile = heights(s)
        return staircase_of((*profile[:column], profile[column] + 1, *profile[column + 1:]), n, config)

    # raising column i of staircase(2m) by one, still strictly decreasing,
    # leaves out x^i y^lambda_i, which is a product of two generators at m
    monkeypatch.setattr("ginlab.verify.gin_staircase", raised)
    report = run_verification(config, max_m=12)
    (check,) = [c for c in report.checks if c.name == "graded-system"]
    assert check == ("graded-system", False, f"products escape at m={m}")


def test_graded_check_without_a_pair_says_so(capsys):
    (check,) = [c for c in run_verification(PointConfig.general(2), max_m=1).checks
                if c.name == "graded-system"]
    assert check == ("graded-system", True, "no pair m, 2m <= 1; no product checked")
    assert cli.main(["verify", "general:2", "--max-m", "1"]) == 0
    assert "PASS graded-system: no pair m, 2m <= 1; no product checked\n" in capsys.readouterr().out


def profiles(top: int, width: int):
    """Strictly decreasing profiles of up to ``width`` columns and heights up
    to ``top``, as staircases; the config and m are placeholders, read by
    neither helper."""
    return st.sets(st.integers(1, top), min_size=1, max_size=width).map(
        lambda hs: staircase_of(tuple(sorted(hs, reverse=True)), 1, PointConfig.general(2)))


def test_run_starts_decide_the_graded_verdict():
    # big twice the size of small, as the staircase at 2m is: about a third
    # of the draws escape
    seen = set()

    @given(profiles(30, 12), profiles(60, 24))
    @settings(max_examples=400, deadline=None)
    def agrees(small, big):
        verdict = verify._products_inside(small, big)
        assert verdict == products_inside_all_pairs(small, big)
        seen.add(verdict)

    agrees()
    assert seen == {True, False}


@given(profiles(30, 12))
@settings(max_examples=200, deadline=None)
def test_run_starts_count_each_degree(s):
    assert [verify._degree_count(s, t) for t in range(s.zeta + 3)] == [
        degree_count(s, t) for t in range(s.zeta + 3)]
