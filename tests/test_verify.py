"""Cross-validation suite wiring."""

from __future__ import annotations

from itertools import permutations

import pytest

from ginlab import (DivisorClass, PointConfig, brute_force_exceptional_classes, cli,
                    exceptional_classes, gin_staircase, hilbert_fn, run_verification,
                    shgh_gin_closed_form)
from ginlab import shape, verify
from ginlab.lattice import uniform_h0
from oracles import staircase_of


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
    assert names == ["class-list", "orbit-engine", "colength", "nef-range-agreement",
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
        s = shgh_gin_closed_form(r, m)
        return staircase_of((s.lambdas[0] + 1,) + s.lambdas[1:], m, s.config)

    # only the check's own binding: the wrong staircase must be caught by the
    # closed-form check alone, not by colength inside the other checks
    monkeypatch.setattr("ginlab.verify.shgh_gin_closed_form", wrong)
    report = run_verification(PointConfig.shgh(10), max_m=4)
    assert [c.name for c in report.failures] == ["closed-form"]
    assert report.failures[0].detail == "reconstruction differs at m=1"


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

    # the engine hilbert_fn calls is off by one at an (m, t) that only this
    # check notices; the cached values it leaves behind are dropped afterwards
    monkeypatch.setattr("ginlab.hilbert.uniform_h0", wrong)
    clear_caches()
    try:
        report = run_verification(PointConfig.general(5), max_m=4)
    finally:
        clear_caches()
    assert [(c.name, c.detail) for c in report.failures] == [("orbit-engine", "divergence at m=3, t=7")]


def test_guard_errors_become_failed_checks(monkeypatch, capsys):
    def wrong(config, m, t):
        return uniform_h0(config, m, t) + ((m, t) == (2, 5))

    # the wrong value breaks staircase reconstruction, which raises a guard
    # error inside several checks; each of them fails instead of the suite
    monkeypatch.setattr("ginlab.hilbert.uniform_h0", wrong)
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
    checks = [check for _, check, _ in verify._CHECKS]
    defined = [value for name, value in vars(verify).items() if name.startswith("_check_")]
    assert sorted(checks, key=id) == sorted(defined, key=id)
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
        lambdas = (*s.lambdas[:column], s.lambdas[column] + 1, *s.lambdas[column + 1:])
        return staircase_of(lambdas, n, config)

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
