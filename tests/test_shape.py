"""Scaled staircase geometry, limiting intercepts, and convergence checks."""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ginlab import PointConfig, Rational, SquareRootIntercept, colength, gin_staircase, shape_report
from ginlab.exporters import shape_json
from ginlab.shape import _near, check_convergence, collinear_shape_check, theoretical_shape
from oracles import GENERAL_INTERCEPTS, near_oracle

F = Fraction


def test_theoretical_shape_table():
    for r, pair in GENERAL_INTERCEPTS.items():
        assert tuple(F(*g) for g in theoretical_shape(PointConfig.general(r))) == pair
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


@given(n=st.integers(-10**30, 10**30), d=st.integers(-10**30, 10**30).filter(bool))
@example(n=6, d=3)       # an integer: "2"
@example(n=0, d=7)       # zero: "0", denominator 1
@example(n=-5, d=10)     # a negative: "-1/2"
@example(n=1, d=3)       # not a finite binary fraction
@example(n=1, d=-2)      # a negative denominator: the sign moves up, "-1/2"
@example(n=-6, d=-3)     # both negative: "2"
@example(n=0, d=-7)      # zero over a negative: "0", denominator 1
def test_rational_spells_and_converts_as_fraction(n, d):
    x, f = Rational(n, d), F(n, d)
    assert (str(x), float(x)) == (str(f), float(f))
    assert F(*x) == f and x == (f.numerator, f.denominator)
    assert hash(x) == hash(Rational(f.numerator, f.denominator))


@pytest.mark.parametrize("n", [0, 1, -1, 10**30])
def test_rational_over_zero_raises_as_fraction_does(n):
    with pytest.raises(ZeroDivisionError):
        F(n, 0)
    with pytest.raises(ZeroDivisionError, match=rf"^Rational\({n}, 0\)$"):
        Rational(n, 0)


def test_near_rational_target():
    # |v - m*g| <= c in degrees is |v/m - g| <= c/m on the scaled intercepts
    assert _near(25, 10, F(5, 2), 0)
    assert _near(24, 10, F(5, 2), 1)
    assert not _near(24, 10, F(5, 2), F(10, 11))


def test_near_root_target_squares_exactly():
    ten = SquareRootIntercept(10)
    assert _near(3, 1, ten, F(1, 5))        # sqrt(10) - 3 ~ 0.1623
    assert not _near(3, 1, ten, F(1, 10))
    assert _near(3, 1, SquareRootIntercept(9), 0)
    assert _near(0, 1, SquareRootIntercept(4), 2)
    assert not _near(0, 1, SquareRootIntercept(4), 1)


# R drawn also as a perfect square, where m*sqrt(R) is an integer that v +- c can hit
_RADICANDS = st.integers(1, 10**4) | st.integers(1, 100).map(lambda s: s * s)


@given(v=st.integers(0, 10**4), m=st.integers(1, 300), radicand=_RADICANDS, k=st.integers(0, 40))
@example(v=8, m=2, radicand=9, k=4)      # v - c = 6 = m*sqrt(R)
@example(v=10, m=3, radicand=16, k=4)    # v + c = 12 = m*sqrt(R)
@example(v=7, m=2, radicand=9, k=3)      # v - c = 11/2, just under m*sqrt(R)
@example(v=5, m=2, radicand=9, k=1)      # v + c = 11/2, just under m*sqrt(R)
@example(v=0, m=1, radicand=1, k=2)      # v - c = -1 < 0, v + c = 1 = m*sqrt(R)
def test_near_root_matches_integer_square_roots(v, m, radicand, k):
    # |v - m*sqrt(R)| <= k/2 is 2v - k <= sqrt(4m^2 R) <= 2v + k, and with
    # integer ends that is a test on floor and ceil of the root, isqrt(n) and
    # isqrt(n - 1) + 1 for n >= 1: nothing squared
    n = 4 * m * m * radicand
    expected = 2 * v - k <= isqrt(n) and isqrt(n - 1) + 1 <= 2 * v + k
    assert _near(v, m, SquareRootIntercept(radicand), F(k, 2)) == expected


@given(v=st.integers(0, 10**4), m=st.integers(1, 300), p=st.integers(0, 10**3),
       q=st.integers(1, 10**3), k=st.integers(0, 40))
@example(v=24, m=10, p=5, q=2, k=2)      # |24 - 25| = 1 = c
@example(v=24, m=10, p=5, q=2, k=1)      # |24 - 25| = 1 > 1/2
def test_near_rational_matches_cross_multiplication(v, m, p, q, k):
    # |v - m*p/q| <= k/2 is |2(v*q - m*p)| <= k*q
    expected = 2 * abs(v * q - m * p) <= k * q
    assert _near(v, m, F(p, q), F(k, 2)) == expected


_INTERCEPTS = (st.builds(Rational, st.integers(0, 10**3), st.integers(1, 10**3))
               | st.builds(SquareRootIntercept, _RADICANDS))
_TOLERANCES = st.integers(0, 12) | st.integers(0, 40).map(lambda k: Rational(k, 2))


@given(v=st.integers(0, 10**4), m=st.integers(1, 300), g=_INTERCEPTS, c=_TOLERANCES)
@example(v=8, m=2, g=SquareRootIntercept(9), c=2)               # v - c = m*sqrt(R)
@example(v=7, m=2, g=SquareRootIntercept(9), c=Rational(3, 2))  # v - c just under m*sqrt(R)
@example(v=0, m=1, g=SquareRootIntercept(1), c=2)               # v - c < 0, v + c > m*sqrt(R)
@example(v=24, m=10, g=Rational(5, 2), c=1)                     # |24 - 25| = c
@example(v=24, m=10, g=Rational(5, 2), c=Rational(1, 2))        # |24 - 25| > c
def test_near_matches_the_fraction_oracle(v, m, g, c):
    # the intercepts and tolerances check_convergence passes: a Rational or a
    # root g, c an int or a half-integer
    assert _near(v, m, g, c) == near_oracle(v, m, g, c)


def test_shape_report_general_six():
    report = shape_report(PointConfig.general(6), [10])
    assert tuple(F(*g) for g in report.predicted) == (F(12, 5), F(5, 2))
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
    assert F(*report.seshadri_estimate) == F(24, 60)


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
        False, "m=10: x-intercept 12/5 is off 3 by more than 3/10")


@pytest.mark.parametrize("config", [PointConfig.general(r) for r in range(2, 9)]
                         + [PointConfig.shgh(r) for r in range(9, 65)], ids=str)
def test_convergence_holds_at_every_m(config):
    passed, detail = check_convergence(config, range(1, 61))
    assert passed, detail


def test_convergence_tolerance_in_the_pass_line():
    def tolerance(config):
        passed, detail = check_convergence(config, [1, 2, 3])
        assert passed, detail
        return detail.removeprefix("intercepts within ").removesuffix(" for m <= 3")

    assert tolerance(PointConfig.general(8)) == "3/m"
    assert tolerance(PointConfig.shgh(9)) == "5/(2m)"
    assert {tolerance(PointConfig.shgh(r)) for r in range(10, 17)} == {"3/m"}
    assert tolerance(PointConfig.shgh(40)) == "9/(2m)"
    # 3 would fail shgh:40 at m=20, where zeta = 130 is about 3.5 above 20*sqrt(40)
    (e,) = shape_report(PointConfig.shgh(40), [20]).entries
    assert e.zeta == 130
    assert not _near(e.zeta, 20, SquareRootIntercept(40), 3)
    assert _near(e.zeta, 20, SquareRootIntercept(40), F(9, 2))


def test_convergence_message_names_the_applied_tolerance(monkeypatch):
    monkeypatch.setattr("ginlab.shape.theoretical_shape",
                        lambda config: (SquareRootIntercept(40), SquareRootIntercept(36)))
    assert check_convergence(PointConfig.shgh(40), [20]) == (
        False, "m=20: y-intercept 13/2 is off sqrt(36) by more than 9/40")


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
