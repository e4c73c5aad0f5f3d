"""Cross-validation suites pitting each engine against an independent check.

Every check recomputes its expected values from a different route than the
engine under test: class lists against brute-force lattice enumeration,
section counts against the plain interpolation count on nef classes,
staircase colengths against the scheme length, and scaled staircases against
the predicted limit.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import comb, isqrt

from .errors import ComputationGuardError
from .hilbert import hilbert_fn, nef_threshold
from .lattice import (COLLINEAR, GENERAL, SHGH, DivisorClass, PointConfig,
                      canonical_class, exceptional_classes, intersect)
from .shape import check_convergence, collinear_shape_check, divisibility_step, scaled_staircases_nested
from .staircase import colength, gin_staircase, graded_products_contained, shgh_gin_closed_form

DEFAULT_MAX_M = 50


def brute_force_exceptional_classes(r: int) -> tuple[DivisorClass, ...]:
    """Enumerate classes with C.C = -1 and C.K = -1 without any templates.

    Scans every degree 0..6 and every multiplicity vector with entries in
    -1..6 (adjunction bounds entries well inside that range for degrees up
    to 6), so the result is independent of the classified shape list.
    Candidates whose multiplicity sums fail C.K = -1 (sum = 3d - 1) or
    C.C = -1 (sum of squares = d^2 + 1) are skipped before any class is
    built; the survivors are still tested by the definition.
    """
    k = canonical_class(r)
    found: set[DivisorClass] = set()
    for d in range(0, 7):
        for sorted_mults in combinations_with_replacement(range(-1, 7), r):
            if sum(sorted_mults) != 3 * d - 1 or sum(a * a for a in sorted_mults) != d * d + 1:
                continue
            candidate = DivisorClass(d, sorted_mults)
            if intersect(candidate, candidate) == -1 and intersect(candidate, k) == -1:
                for mults in set(permutations(sorted_mults)):
                    found.add(DivisorClass(d, mults))
    return tuple(sorted(found, key=lambda c: (c.d, c.mults)))


VerifyCheck = namedtuple("VerifyCheck", "name passed detail")


class VerifyReport(namedtuple("VerifyReport", "max_m checks")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[VerifyCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _check_class_list(config: PointConfig) -> VerifyCheck:
    classes = exceptional_classes(config)
    if config.kind == GENERAL:
        expected = brute_force_exceptional_classes(config.r)
        ok = classes == expected
        detail = f"{len(classes)} classes match brute-force enumeration"
        if not ok:
            detail = (f"template list has {len(classes)} classes, "
                      f"brute force finds {len(expected)}")
    else:
        l = config.l
        ok = len(classes) == 2 * l + 2
        line = DivisorClass(1, (1,) * l + (0,))
        ok = ok and intersect(line, line) == 1 - l
        detail = f"{len(classes)} curves listed, line class has self-intersection {1 - l}"
    return VerifyCheck("class-list", ok, detail)


def _check_colength(config: PointConfig, max_m: int) -> VerifyCheck:
    try:
        for m in range(1, max_m + 1):
            colength(gin_staircase(config, m))
    except ComputationGuardError as exc:
        return VerifyCheck("colength", False, str(exc))
    return VerifyCheck("colength", True, f"equals r*m*(m+1)/2 for every m <= {max_m}")


def _check_engine_agreement(config: PointConfig, max_m: int) -> VerifyCheck:
    r = config.r
    top_m = min(max_m, 30)
    for m in range(1, top_m + 1):
        n = nef_threshold(config, m)
        for t in range(n, n + 11):
            expected = comb(t + 2, 2) - r * comb(m + 1, 2)
            if hilbert_fn(config, m, t) != expected:
                return VerifyCheck("nef-range-agreement", False,
                                   f"divergence at m={m}, t={t}")
    return VerifyCheck("nef-range-agreement", True,
                       f"matches the naive count on nef degrees for m <= {top_m}")


def _check_first_differences(config: PointConfig, max_m: int) -> VerifyCheck:
    sample = sorted({1, max(1, max_m // 2), max_m})
    for m in sample:
        if config.kind == SHGH:
            top = (isqrt(config.r) + 2) * m + 10
        else:
            top = nef_threshold(config, m) + 5
        prev = 0
        for t in range(0, top + 1):
            value = hilbert_fn(config, m, t)
            diff = value - prev
            if not 0 <= diff <= t + 1:
                return VerifyCheck("first-differences", False,
                                   f"difference {diff} out of range at m={m}, t={t}")
            prev = value
    return VerifyCheck("first-differences", True,
                       f"within [0, t+1] for m in {sample}")


def _check_convergence(config: PointConfig, max_m: int) -> VerifyCheck:
    step = divisibility_step(config)
    if config.kind == SHGH:
        step = max(1, max_m // 5)
    ms = list(range(step, max_m + 1, step))
    if not ms:
        return VerifyCheck("convergence", True,
                           f"no admissible multiplicity <= {max_m} (step {step}); skipped")
    failures = check_convergence(config, ms)
    if failures:
        return VerifyCheck("convergence", False, "; ".join(failures))
    return VerifyCheck("convergence", True,
                       f"intercepts within 3/m and area within r/m for m in {ms}")


def _check_graded_and_nested(config: PointConfig, max_m: int) -> VerifyCheck:
    for m in range(1, max_m // 2 + 1):
        small = gin_staircase(config, m)
        big = gin_staircase(config, 2 * m)
        if not graded_products_contained(small, big):
            return VerifyCheck("graded-system", False, f"products escape at m={m}")
        if not scaled_staircases_nested(small, big):
            return VerifyCheck("graded-system", False, f"scaled regions not nested at m={m}")
    return VerifyCheck("graded-system", True,
                       f"products and scaled nesting hold for m <= {max_m // 2}")


def _check_shgh_closed_form(config: PointConfig, max_m: int) -> VerifyCheck:
    # A strictly decreasing profile is Borel-fixed, so its degree counts
    # determine it: matching H(t) - H(t-1) around the generator degrees is
    # equality with the staircase rebuilt from the Hilbert function.
    r = config.r
    for m in range(1, max_m + 1):
        s = shgh_gin_closed_form(r, m)
        for t in range(s.alpha - 1, s.max_generator_degree + 2):
            count = sum(1 for i in range(t + 1) if s.contains(i, t - i))
            if count != hilbert_fn(config, m, t) - hilbert_fn(config, m, t - 1):
                return VerifyCheck("closed-form", False, f"reconstruction differs at m={m}")
    return VerifyCheck("closed-form", True,
                       f"closed form equals the reconstruction for m <= {max_m}")


def _check_collinear_degrees(config: PointConfig, max_m: int) -> VerifyCheck:
    l = config.l
    step = divisibility_step(config)
    ms = list(range(step, max_m + 1, step))
    if not ms:
        return VerifyCheck("collinear-degrees", True,
                           f"no multiple of {step} below {max_m}; skipped")
    failures = collinear_shape_check(l, ms)
    if failures:
        return VerifyCheck("collinear-degrees", False, "; ".join(failures))
    # PointConfig enforces l >= 3, so the single-segment area (2l-1)/2
    # always exceeds the limit area (l+1)/2.
    return VerifyCheck("collinear-degrees", True,
                       f"generator degrees 2m-m/l and lm confirmed for m in {ms}; "
                       f"single segment excluded ({Fraction(2 * l - 1, 2)} > {Fraction(l + 1, 2)})")


def run_verification(config: PointConfig, max_m: int = DEFAULT_MAX_M) -> VerifyReport:
    """Full cross-validation suite for one configuration."""
    if max_m < 1:
        raise ValueError("max_m must be positive")
    checks: list[VerifyCheck] = []
    if config.kind != SHGH:
        checks.append(_check_class_list(config))
    checks.append(_check_colength(config, max_m))
    if config.kind == GENERAL:
        checks.append(_check_engine_agreement(config, max_m))
    if config.kind == SHGH:
        checks.append(_check_shgh_closed_form(config, max_m))
    checks.append(_check_first_differences(config, max_m))
    if config.kind == COLLINEAR:
        checks.append(_check_collinear_degrees(config, max_m))
    else:
        checks.append(_check_convergence(config, max_m))
    checks.append(_check_graded_and_nested(config, max_m))
    return VerifyReport(max_m=max_m, checks=tuple(checks))
