"""Scaled staircase geometry and its limiting shape.

Scaling the staircase of the multiplicity-m ideal by 1/m produces a nested
family of regions whose complement tends to a fixed shape of area r/2.  For
general points the boundary is a single segment with known intercepts; for
the collinear-plus-one arrangement it is genuinely non-linear and is reported
empirically from the computed corners.  ``check_convergence`` judges every
kind at any positive multiplicities: degrees within a constant of m times
the intercepts, or the collinear generator degrees; it returns verify's row.

Intercepts are a ``Rational`` (``lattice``'s, re-exported here), an int
pair in lowest terms, or a ``SquareRootIntercept``; every verdict
cross-multiplies integers, so no process loads ``fractions``.
"""

from __future__ import annotations

from math import isqrt, sqrt

from .lattice import COLLINEAR, SHGH, PointConfig, Rational, Record, nef_ratio
from .staircase import colength, gin_staircase


class SquareRootIntercept(Record, fields="radicand"):
    """Intercept equal to sqrt(radicand), kept symbolic.

    Comparisons against rationals square both sides, so no floating-point
    value ever enters a verdict.
    """

    __slots__ = ()

    def __float__(self) -> float:
        return sqrt(self.radicand)

    def __str__(self) -> str:
        return f"sqrt({self.radicand})"


def theoretical_shape(config: PointConfig) -> (
        tuple[Rational, Rational] | tuple[SquareRootIntercept, SquareRootIntercept] | None):
    """Intercepts (gamma1, gamma2) of the limiting segment x/g1 + y/g2 = 1.

    For up to 8 general points gamma2 is the nef slope nu and gamma1 = r/nu;
    from 9 points on both are sqrt(r).  Either way gamma1 * gamma2 = r,
    matching the complement area r/2.  The collinear arrangement has no
    single-segment limit: None.
    """
    if config.kind == COLLINEAR:
        return None
    if config.kind == SHGH:
        return SquareRootIntercept(config.r), SquareRootIntercept(config.r)
    nu = nef_ratio(config)
    return Rational(config.r * nu.denominator, nu.numerator), nu


class ShapeReport(Record, fields="config entries predicted seshadri_estimate"):
    """The staircases ascending in m, the predicted (gamma1, gamma2)
    intercepts or None, and the Rational alpha(m)/(r*m) at the last
    multiplicity.  Each staircase scales to intercepts alpha/m and zeta/m
    and to colength/m^2."""

    __slots__ = ()


def shape_report(config: PointConfig, m_list: list[int]) -> ShapeReport:
    """Exact scaled-staircase report, one staircase per distinct
    multiplicity, ascending.

    Each colength is checked as its staircase is built, so a wrong one
    raises before the next staircase or any report.  The last multiplicity
    also yields the Seshadri-type estimate alpha(m)/(r*m).
    """
    ms = sorted(set(m_list))
    if not ms:
        raise ValueError("need at least one multiplicity")
    if ms[0] < 1:
        raise ValueError("multiplicities must be positive")
    entries = []
    for m in ms:
        entries.append(gin_staircase(config, m))
        colength(entries[-1])
    return ShapeReport(config, tuple(entries), theoretical_shape(config),
                       Rational(entries[-1].alpha, config.r * entries[-1].m))


def _near(v: int, m: int, g: Rational | SquareRootIntercept, c: Rational | int) -> bool:
    """Exact test |v - m*g| <= c on ints: both sides times the denominators,
    and squared when g is a root.  A rational g or c has .numerator and
    .denominator, as an int and a Fraction do."""
    a, b = c.numerator, c.denominator
    if isinstance(g, SquareRootIntercept):
        return max(b * v - a, 0) ** 2 <= (b * m) ** 2 * g.radicand <= (b * v + a) ** 2
    return abs(v * g.denominator - m * g.numerator) * b <= a * g.denominator


def check_convergence(config: PointConfig, m_list: list[int]) -> tuple[bool, str]:
    """The limit-shape verdict for every kind, at any positive multiplicities:
    alpha and zeta within c of m*gamma1 and m*gamma2, compared exactly (so the
    intercepts alpha/m and zeta/m lie within c/m of the predicted segment), or
    collinear_shape_check where theoretical_shape predicts none.

    c is 3 for up to 8 points, and (isqrt(r - 1) + 3)/2 = (ceil(sqrt(r)) + 2)/2
    for shgh: alpha(alpha+1) <= r*m(m+1) < (alpha+1)(alpha+2) and zeta <=
    alpha+1 put both degrees within sqrt(r)/2 + 1 of m*sqrt(r).  The
    complement area needs no check of its own: shape_report's colength guard
    fixes its area per m^2 at exactly r(m+1)/(2m).  Returns verify's row: on
    failure, one message per intercept off the segment, naming the
    multiplicity and the tolerance c/m it exceeds, joined by "; ".
    """
    predicted = theoretical_shape(config)
    if predicted is None:
        return collinear_shape_check(config.l, m_list)
    g1, g2 = predicted
    c = Rational(isqrt(config.r - 1) + 3, 2) if config.kind == SHGH else 3
    entries = shape_report(config, m_list).entries
    failures = []
    for e in entries:
        for axis, v, g in (("x", e.alpha, g1), ("y", e.zeta, g2)):
            if not _near(v, e.m, g, c):
                failures.append(f"m={e.m}: {axis}-intercept {Rational(v, e.m)} is off {g} "
                                f"by more than {Rational(c.numerator, c.denominator * e.m)}")
    if failures:
        return False, "; ".join(failures)
    tol = f"{c}/m" if c.denominator == 1 else f"{c.numerator}/({c.denominator}m)"
    return True, f"intercepts within {tol} for m <= {entries[-1].m}"


def collinear_shape_check(l: int, m_list: list[int]) -> tuple[bool, str]:
    """Empirical limit shape for l collinear points plus one, at any
    positive multiplicities: the least and top generator degrees must be
    2m - floor(m/l) and l*m, so the scaled intercepts tend to (2 - 1/l, l).

    The colength guard fixes the complement area per m^2 at (l+1)(m+1)/(2m),
    tending to (l+1)/2, while one segment with those intercepts would enclose
    (2l-1)/2; the computed corner lists describe the non-linear limit.
    Returns verify's row: on failure, one message per wrong degree, joined
    by "; ".
    """
    entries = shape_report(PointConfig.collinear_plus_one(l), m_list).entries
    failures = []
    for e in entries:
        m = e.m
        if e.alpha != 2 * m - m // l:
            failures.append(f"m={m}: least generator degree {e.alpha} "
                            f"!= 2m - floor(m/l) = {2 * m - m // l}")
        if e.zeta != l * m:
            failures.append(f"m={m}: top generator degree {e.zeta} != l*m = {l * m}")
    if failures:
        return False, "; ".join(failures)
    # PointConfig enforces l >= 3, so the single-segment area (2l-1)/2
    # always exceeds the limit area (l+1)/2.
    return True, (f"generator degrees 2m-floor(m/l) and lm confirmed for m <= {entries[-1].m}; "
                  f"single segment excluded ({Rational(2 * l - 1, 2)} > {Rational(l + 1, 2)})")
