"""Scaled staircase geometry and its limiting shape.

Scaling the staircase of the multiplicity-m ideal by 1/m produces a nested
family of regions whose complement tends to a fixed shape of area r/2.  For
general points the boundary is a single segment with known intercepts; for
the collinear-plus-one arrangement it is genuinely non-linear and is reported
empirically from the computed corners.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import sqrt

from .errors import UnsupportedConfigError
from .hilbert import nef_slope
from .lattice import COLLINEAR, GENERAL, SHGH, PointConfig
from .staircase import MonomialStaircase, colength, gin_staircase


class SquareRootIntercept(namedtuple("SquareRootIntercept", "radicand")):
    """Intercept equal to sqrt(radicand), kept symbolic.

    Comparisons against rationals square both sides, so no floating-point
    value ever enters a verdict.
    """

    __slots__ = ()

    def __float__(self) -> float:
        return sqrt(self.radicand)

    def __str__(self) -> str:
        return f"sqrt({self.radicand})"


Intercept = Fraction | SquareRootIntercept


def within(value: Fraction, target: Intercept, tol: Fraction) -> bool:
    """Exact test |value - target| <= tol, squaring when target is a root."""
    if isinstance(target, Fraction):
        return abs(value - target) <= tol
    lo = value - tol
    hi = value + tol
    if hi < 0:
        return False
    lower_ok = lo <= 0 or lo * lo <= target.radicand
    return lower_ok and hi * hi >= target.radicand


def deviation_str(value: Fraction, target: Intercept) -> str:
    if isinstance(target, Fraction):
        return str(abs(value - target))
    return f"~{abs(float(value) - float(target)):.6f}"


def theoretical_shape(config: PointConfig) -> tuple[Intercept, Intercept]:
    """Intercepts (gamma1, gamma2) of the limiting segment x/g1 + y/g2 = 1.

    For up to 8 general points gamma2 is the nef slope nu and gamma1 = r/nu;
    from 9 points on both are sqrt(r).  Either way gamma1 * gamma2 = r,
    matching the complement area r/2.  The collinear arrangement has no
    single-segment limit and is rejected.
    """
    if config.kind == COLLINEAR:
        raise UnsupportedConfigError(
            "the collinear arrangement has a non-linear limit; use collinear_shape_check")
    if config.kind == SHGH:
        return SquareRootIntercept(config.r), SquareRootIntercept(config.r)
    nu = nef_slope(config)
    return config.r / nu, nu


class ShapeReport(namedtuple("ShapeReport", "config entries predicted seshadri_estimate")):
    """The staircases ascending in m, the predicted (gamma1, gamma2)
    intercepts or None, and the Fraction alpha(m)/(r*m) at the last
    multiplicity.  Each staircase scales to intercepts alpha/m and zeta/m
    and to colength/m^2."""

    __slots__ = ()


def _entries(config: PointConfig, m_list: list[int], step: int) -> tuple[MonomialStaircase, ...]:
    """One staircase per distinct multiplicity, ascending; each must be a
    positive multiple of ``step``.  Each colength is checked here, so a
    wrong one raises before any report is built."""
    ms = sorted(set(m_list))
    if not ms:
        raise ValueError("need at least one multiplicity")
    if ms[0] < 1:
        raise ValueError("multiplicities must be positive")
    bad = [m for m in ms if m % step]
    if bad:
        raise ValueError(f"multiplicities {bad} are not multiples of {step} for {config}")
    staircases = []
    for m in ms:
        staircases.append(gin_staircase(config, m))
        colength(staircases[-1])
    return tuple(staircases)


def shape_report(config: PointConfig, m_list: list[int]) -> ShapeReport:
    """Exact scaled-staircase report, ordered by multiplicity.

    The last multiplicity also yields the Seshadri-type estimate
    alpha(m)/(r*m).
    """
    entries = _entries(config, m_list, 1)
    try:
        predicted = theoretical_shape(config)
    except UnsupportedConfigError:
        predicted = None
    top = entries[-1]
    return ShapeReport(
        config=config,
        entries=entries,
        predicted=predicted,
        seshadri_estimate=Fraction(top.alpha, config.r * top.m),
    )


def scaled_staircases_nested(small: MonomialStaircase, big: MonomialStaircase) -> bool:
    """Whether the 1/m-scaled ideal region of ``small`` sits inside ``big``'s.

    Needs big.m to be a multiple of small.m; scaling each generator of the
    coarse staircase by the ratio and testing membership suffices because
    regions grow monotonically above their generators.
    """
    if big.m % small.m:
        raise ValueError("nesting test needs multiplicities with an integer ratio")
    factor = big.m // small.m
    return all(big.contains(factor * x, factor * y) for x, y in small.generators)


_SEQUENCE_STEP = {6: 10, 7: 24, 8: 102}


def divisibility_step(config: PointConfig) -> int:
    """Spacing of multiplicities with exact closed-form intercepts."""
    if config.kind == GENERAL:
        return _SEQUENCE_STEP.get(config.r, 1)
    if config.kind == COLLINEAR:
        return config.l * (config.l - 1)
    return 1


def check_convergence(config: PointConfig, m_list: list[int]) -> tuple[str, ...]:
    """Desk-scale convergence: intercepts within 3/m, area ratio within r/m.

    Multiplicities must lie on the divisibility sequence of the
    configuration so the intercepts admit exact comparison.  Returns one
    message per violation, naming the multiplicity and deviation; an empty
    tuple means the check passed.
    """
    g1, g2 = theoretical_shape(config)
    entries = _entries(config, m_list, divisibility_step(config))
    r = config.r
    failures = []
    for e in entries:
        m = e.m
        tol = Fraction(3, m)
        x, y = Fraction(e.alpha, m), Fraction(e.zeta, m)
        area = Fraction(colength(e), m * m)
        if not within(x, g1, tol):
            failures.append(f"m={m}: x-intercept {x} is off {g1} "
                            f"by {deviation_str(x, g1)} > 3/{m}")
        if not within(y, g2, tol):
            failures.append(f"m={m}: y-intercept {y} is off {g2} "
                            f"by {deviation_str(y, g2)} > 3/{m}")
        if abs(area - Fraction(r, 2)) > Fraction(r, m):
            failures.append(f"m={m}: colength/m^2 = {area} is off {r}/2 "
                            f"by more than {r}/{m}")
    return tuple(failures)


def collinear_shape_check(l: int, m_list: list[int]) -> tuple[str, ...]:
    """Empirical limit shape for l collinear points plus one.

    On multiplicities divisible by l*(l-1) the intercepts are exactly
    (2 - 1/l, l) and the complement area per m^2 is (l+1)(m+1)/(2m), tending
    to (l+1)/2.  A single segment with those intercepts would enclose area
    (2l-1)/2 instead, so the limit cannot be one segment; the computed
    corner lists are the empirical description of the true shape.  Returns
    one message per violated identity; an empty tuple means the check passed.
    """
    config = PointConfig.collinear_plus_one(l)
    entries = _entries(config, m_list, divisibility_step(config))
    expected_x = Fraction(2) - Fraction(1, l)
    expected_y = Fraction(l)
    failures = []
    for e in entries:
        m = e.m
        if e.alpha != 2 * m - m // l:
            failures.append(f"m={m}: least generator degree {e.alpha} != 2m - m/l = {2 * m - m // l}")
        if e.zeta != l * m:
            failures.append(f"m={m}: top generator degree {e.zeta} != l*m = {l * m}")
        x, y = Fraction(e.alpha, m), Fraction(e.zeta, m)
        if x != expected_x:
            failures.append(f"m={m}: x-intercept {x} != {expected_x}")
        if y != expected_y:
            failures.append(f"m={m}: y-intercept {y} != {expected_y}")
        area = Fraction(colength(e), m * m)
        expected_ratio = Fraction((l + 1) * (m + 1), 2 * m)
        if area != expected_ratio:
            failures.append(f"m={m}: colength/m^2 {area} != {expected_ratio}")
    return tuple(failures)
