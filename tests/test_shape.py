"""Scaled staircase geometry, limiting intercepts, and convergence checks."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from ginlab import (PointConfig, SquareRootIntercept, check_convergence,
                    collinear_shape_check, colength, gin_staircase, shape_report,
                    theoretical_shape, within)
from ginlab.exporters import shape_json
from ginlab.shape import convergence_scale

F = Fraction


def test_theoretical_shape_table():
    expected = {
        2: (F(1), F(2)),
        3: (F(3, 2), F(2)),
        4: (F(2), F(2)),
        5: (F(2), F(5, 2)),
        6: (F(12, 5), F(5, 2)),
        7: (F(21, 8), F(8, 3)),
        8: (F(48, 17), F(17, 6)),
    }
    for r, pair in expected.items():
        assert theoretical_shape(PointConfig.general(r)) == pair
        assert pair[0] * pair[1] == r
    for r in (9, 10, 16):
        g1, g2 = theoretical_shape(PointConfig.shgh(r))
        assert g1 == SquareRootIntercept(r)
        assert g2 == SquareRootIntercept(r)


def test_theoretical_shape_collinear_is_none():
    assert theoretical_shape(PointConfig.collinear_plus_one(3)) is None


def test_square_root_intercept():
    assert str(SquareRootIntercept(9)) == "sqrt(9)"
    assert 3.16 < float(SquareRootIntercept(10)) < 3.17


def test_within_rational_target():
    assert within(F(5, 2), F(5, 2), F(0))
    assert within(F(24, 10), F(5, 2), F(1, 10))
    assert not within(F(24, 10), F(5, 2), F(1, 11))


def test_within_root_target_squares_exactly():
    ten = SquareRootIntercept(10)
    assert within(F(3), ten, F(1, 5))       # sqrt(10) - 3 ~ 0.1623
    assert not within(F(3), ten, F(1, 10))
    assert within(F(3), SquareRootIntercept(9), F(0))
    assert not within(F(3), SquareRootIntercept(9), F(-1))
    assert within(F(0), SquareRootIntercept(4), F(2))
    assert not within(F(0), SquareRootIntercept(4), F(1))


def test_shape_report_general_six():
    report = shape_report(PointConfig.general(6), [10])
    assert report.predicted == (F(12, 5), F(5, 2))
    assert not report.config.conjectural
    (e,) = report.entries
    assert (e.alpha, e.zeta, colength(e)) == (24, 26, 330)
    assert F(e.alpha, e.m) == F(12, 5)
    assert F(e.zeta, e.m) == F(13, 5)
    assert F(colength(e), e.m ** 2) == F(33, 10)
    corners = json.loads(shape_json(report))["entries"][0]["corners"]
    assert corners[0] == ["0/1", "13/5"]
    assert corners[-1] == ["12/5", "0/1"]
    xs = [F(x) for x, _ in corners]
    assert xs == sorted(xs)
    assert report.seshadri_estimate == F(24, 60)


def test_shape_report_interpolation_nine():
    report = shape_report(PointConfig.shgh(9), [5])
    assert report.config.conjectural
    (e,) = report.entries
    assert F(e.alpha, e.m) == F(3)
    assert colength(e) == 135
    assert F(colength(e), e.m ** 2) == F(27, 5)


def test_shape_report_collinear_has_no_predicted_segment():
    report = shape_report(PointConfig.collinear_plus_one(3), [6])
    assert report.predicted is None


def test_shape_report_sorts_and_dedupes():
    report = shape_report(PointConfig.general(2), [4, 2, 4])
    assert tuple(e.m for e in report.entries) == (2, 4)


def test_shape_report_rejects_bad_input():
    config = PointConfig.general(2)
    with pytest.raises(ValueError, match="need at least one multiplicity"):
        shape_report(config, [])
    with pytest.raises(ValueError, match="multiplicities must be positive"):
        shape_report(config, [0, 3])


def test_convergence_general_six():
    config = PointConfig.general(6)
    assert check_convergence(config, list(range(10, 51, 10))) == (
        True, "intercepts within 3/m for m <= 50")
    (first,) = shape_report(config, [10]).entries
    assert F(first.alpha, first.m) == F(12, 5)          # exact on the sequence
    assert F(first.zeta, first.m) - F(5, 2) == F(1, 10)  # off by exactly 1/m


def test_convergence_general_seven_and_interpolated():
    assert check_convergence(PointConfig.general(7), [24, 48]) == (
        True, "intercepts within 3/m for m <= 48")
    config = PointConfig.shgh(9)
    assert check_convergence(config, [10, 20]) == (True, "intercepts within 5/(2m) for m <= 20")
    (e,) = shape_report(config, [10]).entries
    assert F(e.alpha, e.m) == F(3)


def test_convergence_reports_an_intercept_off_target(monkeypatch):
    monkeypatch.setattr("ginlab.shape.theoretical_shape", lambda config: (F(3), F(5, 2)))
    assert check_convergence(PointConfig.general(6), [10]) == (
        False, "m=10: x-intercept 12/5 is off 3 by 3/5 > 3/10")


@pytest.mark.parametrize("config", [PointConfig.general(r) for r in range(2, 9)]
                         + [PointConfig.shgh(r) for r in range(9, 65)], ids=str)
def test_convergence_holds_at_every_m(config):
    passed, detail = check_convergence(config, range(1, 61))
    assert passed, detail


def test_convergence_scale():
    # 3/m would fail shgh:40 at m=20, where zeta/m = 13/2 is about 0.175 above sqrt(40)
    assert convergence_scale(PointConfig.general(8)) == 3
    assert convergence_scale(PointConfig.shgh(9)) == F(5, 2)
    assert {convergence_scale(PointConfig.shgh(r)) for r in range(10, 17)} == {3}
    assert convergence_scale(PointConfig.shgh(40)) == F(9, 2)


def test_convergence_message_names_the_applied_tolerance(monkeypatch):
    monkeypatch.setattr("ginlab.shape.theoretical_shape",
                        lambda config: (SquareRootIntercept(40), SquareRootIntercept(36)))
    assert check_convergence(PointConfig.shgh(40), [20]) == (
        False, "m=20: y-intercept 13/2 is off sqrt(36) by ~0.500000 > 9/40")


def test_convergence_judges_collinear_by_its_generator_degrees():
    for l in range(3, 9):
        assert check_convergence(PointConfig.collinear_plus_one(l), range(1, 61)) == \
            collinear_shape_check(l, range(1, 61)), l


def test_collinear_shape_check():
    assert collinear_shape_check(3, [6, 12]) == (
        True, "generator degrees 2m-floor(m/l) and lm confirmed for m <= 12; "
        "single segment excluded (5/2 > 2)")
    (e,) = shape_report(PointConfig.collinear_plus_one(3), [6]).entries
    assert F(colength(e), e.m ** 2) == F(4 * 7, 12)


def test_collinear_shape_check_reports_wrong_degrees(monkeypatch):
    # general:4 has the same r = 4 as collinear:3, so the colength guard
    # passes and only the degrees differ
    general_four = PointConfig.general(4)
    monkeypatch.setattr("ginlab.shape.gin_staircase",
                        lambda config, m: gin_staircase(general_four, m))
    assert collinear_shape_check(3, [6]) == (
        False, "m=6: least generator degree 12 != 2m - floor(m/l) = 10; "
        "m=6: top generator degree 13 != l*m = 18")


@pytest.mark.parametrize("l", range(3, 9))
def test_collinear_shape_check_holds_at_every_m(l):
    passed, detail = collinear_shape_check(l, range(1, 61))
    assert passed, detail
