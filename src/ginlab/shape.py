"""Scaled staircase geometry and its limiting shape.

Scaling the staircase of the multiplicity-m ideal by 1/m produces a nested
family of regions whose complement tends to a fixed shape of area r/2.  For
general points the boundary is a single segment with known intercepts; for
the collinear-plus-one arrangement it is genuinely non-linear and is reported
empirically from the computed corners.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Union

from .errors import ComputationGuardError, UnsupportedConfigError
from .lattice import COLLINEAR, GENERAL, PointConfig
from .staircase import MonomialStaircase, colength, gin_staircase


@dataclass(frozen=True)
class SquareRootIntercept:
    """Intercept equal to sqrt(radicand), kept symbolic.

    Comparisons against rationals square both sides, so no floating-point
    value ever enters a verdict.
    """

    radicand: int

    def __float__(self) -> float:
        return sqrt(self.radicand)

    def __str__(self) -> str:
        return f"sqrt({self.radicand})"


Intercept = Union[Fraction, SquareRootIntercept]


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

    The product gamma1 * gamma2 equals r, matching the complement area r/2.
    The collinear arrangement has no single-segment limit and is rejected.
    """
    if config.kind == COLLINEAR:
        raise UnsupportedConfigError(
            "the collinear arrangement has a non-linear limit; use collinear_shape_check")
    r = config.r
    pair: tuple[Intercept, Intercept]
    if r >= 9:
        pair = (SquareRootIntercept(r), SquareRootIntercept(r))
    elif r == 8:
        pair = (Fraction(48, 17), Fraction(17, 6))
    elif r == 7:
        pair = (Fraction(21, 8), Fraction(8, 3))
    elif r == 6:
        pair = (Fraction(12, 5), Fraction(5, 2))
    elif r >= 4:
        pair = (Fraction(2), Fraction(r, 2))
    else:
        pair = (Fraction(r, 2), Fraction(2))
    g1, g2 = pair
    if isinstance(g1, SquareRootIntercept):
        if g1.radicand != r or g2.radicand != r:  # type: ignore[union-attr]
            raise ComputationGuardError("intercept product must be r")
    elif g1 * g2 != r:
        raise ComputationGuardError("intercept product must be r")
    return pair


@dataclass(frozen=True)
class ShapeEntry:
    """Scaled staircase data for one multiplicity."""

    m: int
    alpha: int
    zeta: int
    colength: int
    x_intercept: Fraction
    y_intercept: Fraction
    colength_over_m2: Fraction
    generators: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ShapeReport:
    config: PointConfig
    entries: tuple[ShapeEntry, ...]
    predicted: tuple[Intercept, Intercept] | None
    seshadri_estimate: Fraction

    @property
    def conjectural(self) -> bool:
        return self.config.conjectural


def _entry(config: PointConfig, m: int) -> ShapeEntry:
    s = gin_staircase(config, m)
    length = colength(s)
    return ShapeEntry(
        m=m,
        alpha=s.alpha,
        zeta=s.zeta,
        colength=length,
        x_intercept=Fraction(s.alpha, m),
        y_intercept=Fraction(s.zeta, m),
        colength_over_m2=Fraction(length, m * m),
        generators=s.generators,
    )


def _entries(config: PointConfig, m_list: list[int], step: int) -> tuple[ShapeEntry, ...]:
    """One entry per distinct multiplicity, ascending; each must be a
    positive multiple of ``step``."""
    ms = sorted(set(m_list))
    if not ms:
        raise ValueError("need at least one multiplicity")
    if ms[0] < 1:
        raise ValueError("multiplicities must be positive")
    bad = [m for m in ms if m % step]
    if bad:
        raise ValueError(f"multiplicities {bad} are not multiples of {step} for {config}")
    return tuple(_entry(config, m) for m in ms)


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
        if not within(e.x_intercept, g1, tol):
            failures.append(f"m={m}: x-intercept {e.x_intercept} is off {g1} "
                            f"by {deviation_str(e.x_intercept, g1)} > 3/{m}")
        if not within(e.y_intercept, g2, tol):
            failures.append(f"m={m}: y-intercept {e.y_intercept} is off {g2} "
                            f"by {deviation_str(e.y_intercept, g2)} > 3/{m}")
        if abs(e.colength_over_m2 - Fraction(r, 2)) > Fraction(r, m):
            failures.append(f"m={m}: colength/m^2 = {e.colength_over_m2} is off {r}/2 "
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
        if e.x_intercept != expected_x:
            failures.append(f"m={m}: x-intercept {e.x_intercept} != {expected_x}")
        if e.y_intercept != expected_y:
            failures.append(f"m={m}: y-intercept {e.y_intercept} != {expected_y}")
        expected_ratio = Fraction((l + 1) * (m + 1), 2 * m)
        if e.colength_over_m2 != expected_ratio:
            failures.append(f"m={m}: colength/m^2 {e.colength_over_m2} != {expected_ratio}")
    return tuple(failures)
