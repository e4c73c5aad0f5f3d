"""Cross-validation suites pitting each engine against an independent check.

Every check recomputes its expected values from a different route than the
engine under test: class lists against brute-force lattice enumeration, orbit
peeling against curve-by-curve peeling, section counts against the
interpolation count on nef classes, staircase colengths against the scheme
length, scaled staircases against the limit shape (one verdict for every
kind, ``shape.check_convergence``), and generator products at m against the
staircase at 2m (the graded system).  First differences of the Hilbert
function are read through ``staircase.xy_count``, whose guard holds each to
[0, t+1].  The table ``_CHECKS`` lists the checks in report order with the
kinds each runs on.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterator
from itertools import combinations_with_replacement
from math import comb, isqrt

from .errors import ComputationGuardError
from .hilbert import alpha, hilbert_fn, nef_threshold
from .lattice import (COLLINEAR, GENERAL, SHGH, DivisorClass, PointConfig,
                      canonical_class, exceptional_classes, intersect, reduce_to_nef)
from .shape import check_convergence, shape_report
from .staircase import gin_staircase, shgh_gin_closed_form, xy_count

DEFAULT_MAX_M = 50


def brute_force_exceptional_classes(r: int) -> tuple[DivisorClass, ...]:
    """Enumerate classes with C.C = -1 and C.K = -1 without any templates.

    Scans every multiplicity vector with entries in -1..6 and degrees 0..6
    (adjunction bounds entries well inside that range for degrees up to 6),
    so the result is independent of the classified shape list.  Each sorted
    vector is tested once: C.K = -1 fixes the degree d = (sum + 1)/3, and
    vectors whose sum of squares is not d^2 + 1 (C.C = -1) are skipped
    before any class is built; the survivors are still tested by the
    definition, then expanded into their distinct orderings.
    """
    k = canonical_class(r)
    found: list[DivisorClass] = []
    for sorted_mults in combinations_with_replacement(range(-1, 7), r):
        d, rest = divmod(sum(sorted_mults) + 1, 3)
        if rest or not 0 <= d <= 6 or sum(a * a for a in sorted_mults) != d * d + 1:
            continue
        candidate = DivisorClass(d, sorted_mults)
        if intersect(candidate, candidate) == -1 and intersect(candidate, k) == -1:
            found += (DivisorClass(d, mults) for mults in _orderings(sorted_mults))
    return tuple(sorted(found, key=lambda c: (c.d, c.mults)))


def _orderings(ascending: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Each distinct ordering of an ascending tuple once, in lexicographic order.

    Each step finds the rightmost i with items[i] < items[i + 1], swaps
    items[i] with the rightmost larger entry and reverses the tail after i;
    equal entries are never swapped, so no ordering repeats.
    """
    items = list(ascending)
    while True:
        yield tuple(items)
        i = len(items) - 2
        while i >= 0 and items[i] >= items[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(items) - 1
        while items[j] <= items[i]:
            j -= 1
        items[i], items[j] = items[j], items[i]
        items[i + 1:] = reversed(items[i + 1:])


VerifyCheck = namedtuple("VerifyCheck", "name passed detail")


class VerifyReport(namedtuple("VerifyReport", "max_m checks")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[VerifyCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _check_class_list(config: PointConfig, max_m: int) -> tuple[bool, str]:
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
        line = DivisorClass(1, (1,) * l + (0,))
        if line not in classes:
            return False, f"line class {line} is not among the {len(classes)} curves listed"
        ok = len(classes) == 2 * l + 2
        detail = f"{len(classes)} curves listed, line class has self-intersection {1 - l}"
    return ok, detail


def _check_colength(config: PointConfig, max_m: int) -> tuple[bool, str]:
    shape_report(config, range(1, max_m + 1))
    return True, f"equals r*m*(m+1)/2 for every m <= {max_m}"


def _check_orbit_engine(config: PointConfig, max_m: int) -> tuple[bool, str]:
    top_m = min(max_m, 8)
    for m in range(1, top_m + 1):
        for t in range(alpha(config, m) - 1, nef_threshold(config, m) + 2):
            if reduce_to_nef(DivisorClass.uniform(t, m, config.r), config).h0 != hilbert_fn(config, m, t):
                return False, f"divergence at m={m}, t={t}"
    return True, (f"orbit peeling equals reduce_to_nef from alpha-1 to the nef threshold+1 "
                  f"for m <= {top_m}")


def _check_engine_agreement(config: PointConfig, max_m: int) -> tuple[bool, str]:
    r = config.r
    top_m = min(max_m, 30)
    for m in range(1, top_m + 1):
        n = nef_threshold(config, m)
        for t in range(n, n + 11):
            expected = comb(t + 2, 2) - r * comb(m + 1, 2)
            if hilbert_fn(config, m, t) != expected:
                return False, f"divergence at m={m}, t={t}"
    return True, f"matches the naive count on nef degrees for m <= {top_m}"


def _check_first_differences(config: PointConfig, max_m: int) -> tuple[bool, str]:
    # xy_count's guard names config, m and t if a difference leaves [0, t+1]
    sample = sorted({1, max(1, max_m // 2), max_m})
    for m in sample:
        top = (isqrt(config.r) + 2) * m + 10 if config.kind == SHGH else nef_threshold(config, m) + 5
        for t in range(top + 1):
            xy_count(config, m, t)
    return True, f"within [0, t+1] for m in {sample}"


def _check_convergence(config: PointConfig, max_m: int) -> tuple[bool, str]:
    return check_convergence(config, range(1, max_m + 1))


def _check_graded_and_nested(config: PointConfig, max_m: int) -> tuple[bool, str]:
    # Generator products generate ideal(m)^2, so they decide ideal(m)^2 inside
    # ideal(2m).  The pair (g, g) is g scaled by 2, so the 1/m-scaled regions
    # nest whenever the products do.
    for m in range(1, max_m // 2 + 1):
        big = gin_staircase(config, 2 * m)
        # big's profile expanded once and indexed: each contains call is O(runs)
        a, heights = big.alpha, big.lambdas
        pairs = combinations_with_replacement(gin_staircase(config, m).generators, 2)
        if not all(x1 + x2 >= a or y1 + y2 >= heights[x1 + x2] for (x1, y1), (x2, y2) in pairs):
            return False, f"products escape at m={m}"
    if max_m < 2:
        return True, f"no pair m, 2m <= {max_m}; no product checked"
    return True, f"products and scaled nesting hold for m <= {max_m // 2}"


def _check_shgh_closed_form(config: PointConfig, max_m: int) -> tuple[bool, str]:
    # A strictly decreasing profile is Borel-fixed, so its degree counts
    # determine it: matching xy_count, H(t) - H(t-1), around the generator
    # degrees is equality with the staircase rebuilt from the Hilbert function.
    # Each count is t + 1 less the first column of the top segment, bisected.
    r = config.r
    for m in range(1, max_m + 1):
        s = shgh_gin_closed_form(r, m)
        for t in range(s.alpha - 1, s.zeta + 2):
            count = t + 1 - bisect_left(range(t + 1), True, key=lambda i: s.contains(i, t - i))
            if count != xy_count(config, m, t):
                return False, f"reconstruction differs at m={m}"
    return True, f"closed form equals the reconstruction for m <= {max_m}"


# (name, check, kinds it runs on), in report order
_CHECKS = (
    ("class-list", _check_class_list, (GENERAL, COLLINEAR)),
    ("orbit-engine", _check_orbit_engine, (GENERAL, COLLINEAR)),
    ("colength", _check_colength, (GENERAL, COLLINEAR, SHGH)),
    ("nef-range-agreement", _check_engine_agreement, (GENERAL,)),
    ("closed-form", _check_shgh_closed_form, (SHGH,)),
    ("first-differences", _check_first_differences, (GENERAL, COLLINEAR, SHGH)),
    ("convergence", _check_convergence, (GENERAL, COLLINEAR, SHGH)),
    ("graded-system", _check_graded_and_nested, (GENERAL, COLLINEAR, SHGH)),
)


def run_verification(config: PointConfig, max_m: int = DEFAULT_MAX_M) -> VerifyReport:
    """Full cross-validation suite: the ``_CHECKS`` rows for the configuration's kind.

    A guard error inside a check fails that check with the guard's message.
    """
    if max_m < 1:
        raise ValueError("max_m must be positive")
    checks = []
    for name, check, kinds in _CHECKS:
        if config.kind in kinds:
            try:
                checks.append(VerifyCheck(name, *check(config, max_m)))
            except ComputationGuardError as exc:
                checks.append(VerifyCheck(name, False, str(exc)))
    return VerifyReport(max_m=max_m, checks=tuple(checks))
