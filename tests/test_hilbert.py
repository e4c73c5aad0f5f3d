"""Hilbert functions: interpolation formula, engine dispatch, thresholds."""

from __future__ import annotations

from fractions import Fraction as F
from math import ceil, comb, gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginlab import hilbert, lattice
from ginlab import (DivisorClass, PointConfig, alpha, alpha_shgh, exceptional_classes,
                    gin_staircase, hilbert_fn, nef_threshold, shgh_hilbert)
from ginlab.errors import ComputationGuardError


# Oracle for the closed-form initial degree: plain linear scan of the count.
def scan_alpha_shgh(r: int, m: int) -> int:
    t = 0
    while shgh_hilbert(r, m, t) == 0:
        t += 1
    return t


# Oracle for H(t) on up to 8 general points by Cremona reduction alone: no
# curve list, orbits or nef slope.  A class in standard form (d >= m1+m2+m3,
# multiplicities descending and nonnegative) is nef there, so h0 = max(chi, 0);
# otherwise the quadratic transformation at the top three points lowers d.
def cremona_h0(d: int, mults: tuple[int, ...]) -> int:
    mults = [*mults, 0, 0]  # at least three points
    while True:
        mults = sorted((max(a, 0) for a in mults), reverse=True)
        if d < 0:
            return 0
        e = d - mults[0] - mults[1] - mults[2]
        if e >= 0:
            return max(comb(d + 2, 2) - sum(comb(a + 1, 2) for a in mults), 0)
        d += e
        mults[:3] = (a + e for a in mults[:3])


def test_cremona_oracle_anchor():
    # general:6, m=10, t=24: the naive count is -5, the reduction finds the one section
    assert comb(26, 2) - 6 * comb(11, 2) == -5
    assert cremona_h0(24, (10,) * 6) == 1 == hilbert_fn(PointConfig.general(6), 10, 24)


@pytest.mark.parametrize("r", range(2, 9))
def test_hilbert_fn_matches_cremona_reduction(r):
    config = PointConfig.general(r)
    for m in [*range(1, 41), 97, 211, 500]:
        for t in range(3 * m + 3):
            assert hilbert_fn(config, m, t) == cremona_h0(t, (m,) * r), (m, t)


def test_shgh_hilbert_values():
    assert shgh_hilbert(9, 1, 3) == 1
    assert shgh_hilbert(9, 1, 2) == 0
    assert shgh_hilbert(10, 2, 7) == 6
    assert shgh_hilbert(9, 1, 4) == 6
    assert shgh_hilbert(9, 0, 0) == 1
    assert shgh_hilbert(9, 1, -1) == 0


def test_shgh_hilbert_validation():
    with pytest.raises(ValueError):
        shgh_hilbert(8, 1, 3)
    with pytest.raises(ValueError):
        shgh_hilbert(9, -1, 3)


def test_alpha_shgh_values():
    assert alpha_shgh(9, 1) == 3
    assert alpha_shgh(9, 5) == 15
    assert alpha_shgh(16, 10) == 41


@given(st.integers(9, 40), st.integers(0, 60))
@settings(max_examples=120, deadline=None)
def test_alpha_shgh_matches_scan(r, m):
    assert alpha_shgh(r, m) == scan_alpha_shgh(r, m)


@given(st.integers(9, 30), st.integers(1, 50))
@settings(max_examples=80, deadline=None)
def test_alpha_shgh_brackets_sqrt_r(r, m):
    # alpha/m approaches sqrt(r) from below at rate O(1/m)
    a = alpha_shgh(r, m)
    assert a * a <= r * m * (m + 1)
    assert (a + 2) * (a + 2) > r * m * m


def test_hilbert_fn_general_anchors():
    g6 = PointConfig.general(6)
    assert hilbert_fn(g6, 10, 23) == 0
    assert hilbert_fn(g6, 10, 24) == 1
    assert hilbert_fn(g6, 10, 25) == 21
    assert hilbert_fn(g6, 10, 26) == 48
    g8 = PointConfig.general(8)
    assert hilbert_fn(g8, 102, 288) == 1
    assert hilbert_fn(g8, 102, 289) == 171


def test_hilbert_fn_dispatches_to_interpolation():
    s9 = PointConfig.shgh(9)
    assert [hilbert_fn(s9, 1, t) for t in range(5)] == [0, 0, 0, 1, 6]
    assert hilbert_fn(s9, 1, 3) == shgh_hilbert(9, 1, 3)


def test_hilbert_fn_collinear():
    c3 = PointConfig.collinear_plus_one(3)
    assert hilbert_fn(c3, 6, 9) == 0
    assert hilbert_fn(c3, 6, 10) == 1
    assert hilbert_fn(c3, 1, 1) == 0
    assert hilbert_fn(c3, 1, 2) == 2


@pytest.mark.parametrize("spec", [f"general:{r}" for r in range(2, 9)] +
                         [f"collinear:{l}" for l in range(3, 9)])
def test_orbit_engine_builds_no_divisor_class(spec, monkeypatch):
    # uniform_h0 works on (d, a, b) alone; only the cached curve list holds classes
    config = PointConfig.parse(spec)
    expected = {m: gin_staircase(config, m) for m in (1, 4, 11)}
    lattice.nef_ratio(config)
    hilbert_fn.cache_clear()
    gin_staircase.cache_clear()

    def refuse(cls, *args):
        raise AssertionError("the orbit engine built a DivisorClass")

    monkeypatch.setattr(DivisorClass, "__new__", refuse)
    for m, stairs in expected.items():
        assert gin_staircase(config, m) == stairs
        assert hilbert_fn(config, m, nef_threshold(config, m) + 7) > 0


def test_hilbert_fn_negative_degree_and_bad_m():
    g6 = PointConfig.general(6)
    assert hilbert_fn(g6, 3, -1) == 0
    with pytest.raises(ValueError):
        hilbert_fn(g6, -2, 3)


def test_alpha_anchors():
    assert alpha(PointConfig.general(6), 10) == 24
    assert alpha(PointConfig.general(7), 24) == 63
    assert alpha(PointConfig.general(8), 102) == 288
    assert alpha(PointConfig.collinear_plus_one(3), 6) == 10
    assert alpha(PointConfig.shgh(9), 1) == 3


def test_alpha_definition_holds():
    for config, m in ((PointConfig.general(5), 7), (PointConfig.general(8), 11),
                      (PointConfig.collinear_plus_one(4), 9), (PointConfig.shgh(12), 4)):
        a = alpha(config, m)
        assert hilbert_fn(config, m, a) > 0
        assert hilbert_fn(config, m, a - 1) == 0


@pytest.mark.parametrize("spec", ["general:2", "general:5", "general:6", "general:8",
                                  "collinear:3", "collinear:6", "shgh:9", "shgh:14"])
def test_alpha_matches_linear_scan(spec):
    config = PointConfig.parse(spec)
    for m in range(1, 41):
        t = 0
        while hilbert_fn(config, m, t) == 0:
            t += 1
        assert alpha(config, m) == t


# alpha(m)/m tends to r/nu; for r <= 8 it is exactly the ceiling at every m
# checked, which no part of the engine assumes
@pytest.mark.parametrize("r,w", [(2, F(1)), (3, F(3, 2)), (4, F(2)), (5, F(2)),
                                 (6, F(12, 5)), (7, F(21, 8)), (8, F(48, 17))])
def test_alpha_general_is_ceiling_of_linear_bound(r, w):
    config = PointConfig.general(r)
    for m in range(1, 201):
        assert alpha(config, m) == ceil(w * m)


def test_alpha_rejects_nonpositive_m():
    with pytest.raises(ValueError):
        alpha(PointConfig.general(6), 0)


def test_alpha_guard_without_positive_value(monkeypatch):
    monkeypatch.setattr("ginlab.hilbert.hilbert_fn", lambda config, m, t: 0)
    config = PointConfig.general(6)
    with pytest.raises(ComputationGuardError) as excinfo:
        alpha(config, 10)
    # the bracket tops out at the nef threshold, 25 here
    top = nef_threshold(config, 10)
    assert str(excinfo.value) == f"no positive Hilbert value up to degree {top} for general:6, m=10"


def test_nef_threshold_values():
    assert nef_threshold(PointConfig.general(6), 10) == 25
    assert nef_threshold(PointConfig.general(7), 24) == 64
    assert nef_threshold(PointConfig.general(8), 6) == 17
    assert nef_threshold(PointConfig.general(2), 5) == 10
    assert nef_threshold(PointConfig.collinear_plus_one(3), 6) == 18
    assert nef_threshold(PointConfig.general(6), 0) == 0
    slopes = [F(2), F(2), F(2), F(5, 2), F(5, 2), F(8, 3), F(17, 6)]
    assert [F(*lattice.nef_ratio(PointConfig.general(r))) for r in range(2, 9)] == slopes
    for l in range(3, 9):
        assert F(*lattice.nef_ratio(PointConfig.collinear_plus_one(l))) == l


def test_nef_slope_lives_beside_the_orbit_table():
    # only lattice knows the layout of the _orbits rows; hilbert reads the slope
    # as lattice's int pair and never makes the Fraction
    assert hilbert.nef_ratio is lattice.nef_ratio
    assert not [name for name in ("_orbits", "nef_slope", "Fraction") if hasattr(hilbert, name)]
    assert lattice.nef_ratio.cache_info().maxsize is None


@pytest.mark.parametrize("spec", [*(f"general:{r}" for r in range(2, 9)),
                                  *(f"collinear:{l}" for l in range(3, 9))])
def test_nef_ratio_is_the_nef_slope_exactly(spec):
    # the int pair in lowest terms, and both ceilings hilbert takes on it, against
    # the same ceilings taken on the Fraction
    config = PointConfig.parse(spec)
    p, q = lattice.nef_ratio(config)
    assert q > 0 and gcd(p, q) == 1
    nu = F(p, q)
    for m in range(2001):
        assert nef_threshold(config, m) == ceil(m * nu)
    for m in range(1, 41):
        assert alpha(config, m) >= ceil(config.r * m / nu)


@pytest.mark.parametrize("spec", [*(f"general:{r}" for r in range(2, 9)),
                                  *(f"collinear:{l}" for l in range(3, 9))])
def test_nef_threshold_matches_curve_scan(spec):
    # oracle: the ratio m*sum(C)/deg(C) over every listed curve, one by one
    config = PointConfig.parse(spec)
    curves = [c for c in exceptional_classes(config) if c.d > 0]
    for m in range(61):
        assert nef_threshold(config, m) == max([0, *(-(-m * sum(c.mults) // c.d) for c in curves)])


def test_nef_threshold_is_sharp():
    from ginlab import DivisorClass, is_nef
    for r, m in ((6, 10), (7, 24), (8, 6), (3, 5)):
        config = PointConfig.general(r)
        n = nef_threshold(config, m)
        assert is_nef(DivisorClass.uniform(n, m, r), config)
        if n > 0:
            assert not is_nef(DivisorClass.uniform(n - 1, m, r), config)


@pytest.mark.parametrize("r", range(2, 9))
def test_nef_range_matches_binomial_count(r):
    config = PointConfig.general(r)
    for m in (1, 4, 9):
        n = nef_threshold(config, m)
        for t in range(n, n + 8):
            assert hilbert_fn(config, m, t) == comb(t + 2, 2) - r * comb(m + 1, 2)


@pytest.mark.parametrize("spec,m", [("general:6", 10), ("general:3", 7),
                                    ("collinear:3", 6), ("shgh:10", 3)])
def test_hilbert_first_differences_bounded(spec, m):
    config = PointConfig.parse(spec)
    if config.kind == "shgh":
        top = (isqrt(config.r) + 2) * m + 6
    else:
        top = nef_threshold(config, m) + 6
    prev = 0
    for t in range(0, top):
        value = hilbert_fn(config, m, t)
        assert 0 <= value - prev <= t + 1
        prev = value
