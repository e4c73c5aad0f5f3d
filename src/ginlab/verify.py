"""Cross-validation suites pitting each engine against a second route.

Class lists against brute-force enumeration, general points' H(t) against
Cremona reduction, orbit peeling against curve-by-curve peeling, the shgh
closed form's degree counts against H's first differences (read through
``staircase.xy_count``, whose guard holds each to [0, t+1]), colengths against
the scheme length, scaled staircases against the limit shape, and generator
products at m against the staircase at 2m.  ``_CHECKS`` lists the rows in
report order with their kinds; ``_compare`` runs each (engine, oracle) pair,
whose sides share only what tests/test_verify.py declares: orbit peeling
``lattice._curve_orbits`` (the peel arithmetic is checked, not the curve list),
the closed form ``hilbert.shgh_hilbert`` (its layout, not the count), the class
list ``lattice.intersect`` (the definition of C.C and C.K).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from functools import partial
from itertools import combinations_with_replacement
from math import comb, inf, isqrt

from .errors import ComputationGuardError
from .hilbert import alpha, alpha_shgh, hilbert_fn, nef_threshold, shgh_hilbert
from .lattice import (COLLINEAR, GENERAL, SHGH, DivisorClass, PointConfig, Record,
                      canonical_class, exceptional_classes, intersect, reduce_to_nef,
                      require_int)
from .shape import check_convergence, shape_report
from .staircase import MonomialStaircase, gin_staircase, shgh_gin_closed_form, xy_count

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


class VerifyCheck(Record, fields="name passed detail"):
    """One row of a verify report: the check's name, its verdict and a detail line."""

    __slots__ = ()


class VerifyReport(Record, fields="max_m checks"):
    """The VerifyChecks run_verification ran, in report order, up to max_m."""

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


def cremona_h0(d: int, mults: tuple[int, ...]) -> int:
    """H(t) on up to 8 general points by Cremona reduction alone: no curve list, orbits or nef
    slope.  A class in standard form (d >= m1+m2+m3, multiplicities descending and nonnegative)
    is nef there, so h0 = max(chi, 0); otherwise the quadratic transformation at the top three
    points lowers d."""
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


def _compare(engine, oracle, window, cap, agrees, config: PointConfig, max_m: int) -> tuple[bool, str]:
    """engine(config, m)(t) against oracle(config, m)(t) for m <= min(max_m, cap) and t in
    window(config, m): the one loop of every row that pits two routes against each other.
    Each side is built once per m, so a side that holds a staircase builds it once."""
    top_m = min(max_m, cap)
    for m in range(1, top_m + 1):
        engine_at, oracle_at = engine(config, m), oracle(config, m)
        for t in window(config, m):
            if engine_at(t) != oracle_at(t):
                return False, f"divergence at m={m}, t={t}"
    return True, f"{agrees} for m <= {top_m}"


def _alpha_to_nef(config: PointConfig, m: int) -> range:
    return range(alpha(config, m) - 1, nef_threshold(config, m) + 2)


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


def _products_inside(small: MonomialStaircase, big: MonomialStaircase) -> bool:
    """Whether all products of two generators of ``small`` lie in ``big``.

    Along a run the height falls by exactly 1 per column, and big's profile by
    at least 1 until it reaches 0, so a product's margin never shrinks along
    either factor's run: run starts decide every pair, O(runs^2).  Big's height
    at k < alpha is y_q - (k - x_q), (x_q, y_q) its last run start at or
    before k, so x^k y^e is in big when k + e >= x_q + y_q, as from alpha on."""
    xs, degrees = zip(*[(x, x + y) for x, y in big.run_starts])
    return all(x1 + x2 + y1 + y2 >= degrees[bisect_right(xs, x1 + x2) - 1]
               for (x1, y1), (x2, y2) in combinations_with_replacement(small.run_starts, 2))


def _check_graded_and_nested(config: PointConfig, max_m: int) -> tuple[bool, str]:
    # Products of generators generate ideal(m)^2; (g, g) is g scaled by 2, so
    # the 1/m-scaled regions nest whenever the products lie in ideal(2m).
    for m in range(1, max_m // 2 + 1):
        if not _products_inside(gin_staircase(config, m), gin_staircase(config, 2 * m)):
            return False, f"products escape at m={m}"
    if max_m < 2:
        return True, f"no pair m, 2m <= {max_m}; no product checked"
    return True, f"products and scaled nesting hold for m <= {max_m // 2}"


def _degree_count(s: MonomialStaircase, t: int) -> int:
    """Degree-t monomials in s's ideal: column degrees x + lambda_x never rise
    with x, so x^k y^(t-k) is in from the first run start of degree <= t on."""
    return t + 1 - next((x for x, y in s.run_starts if x + y <= t), t + 1)


def _closed_form_degrees(config: PointConfig, m: int) -> range:
    """alpha - 1 to zeta + 1 of the closed form, read off H without building it: alpha is
    ``alpha_shgh``, the least degree of a positive H, and zeta is alpha when H(alpha) is the
    full alpha + 1, else alpha + 1.  A degree count of 0 is 0 below and a full one is full
    above, and degree counts determine a strictly decreasing profile, so matching xy_count
    there is equality with the staircase rebuilt from H."""
    a = alpha_shgh(config.r, m)
    return range(a - 1, a + 2 + (shgh_hilbert(config.r, m, a) <= a))


_WINDOW = "from alpha-1 to the nef threshold+1"
# (name, check, kinds it runs on), in report order.  A _compare row's sides are
# lambdas of (config, m), so each m reads the binding a tracer may have replaced.
_CHECKS = (
    ("class-list", _check_class_list, (GENERAL, COLLINEAR)),
    ("orbit-engine", partial(_compare, lambda c, m: partial(hilbert_fn, c, m),
                             lambda c, m: lambda t: reduce_to_nef(DivisorClass.uniform(t, m, c.r), c).h0,
                             _alpha_to_nef, 8, f"orbit peeling equals reduce_to_nef {_WINDOW}"),
     (GENERAL, COLLINEAR)),
    ("colength", _check_colength, (GENERAL, COLLINEAR, SHGH)),
    ("cremona", partial(_compare, lambda c, m: partial(hilbert_fn, c, m),
                        lambda c, m: lambda t: cremona_h0(t, (m,) * c.r), _alpha_to_nef, inf,
                        f"Cremona reduction equals the engine {_WINDOW}"), (GENERAL,)),
    ("closed-form", partial(_compare, lambda c, m: partial(xy_count, c, m),
                            lambda c, m: partial(_degree_count, shgh_gin_closed_form(c.r, m)),
                            _closed_form_degrees, inf, "closed form equals the reconstruction"),
     (SHGH,)),
    ("first-differences", _check_first_differences, (GENERAL, COLLINEAR, SHGH)),
    ("convergence", _check_convergence, (GENERAL, COLLINEAR, SHGH)),
    ("graded-system", _check_graded_and_nested, (GENERAL, COLLINEAR, SHGH)),
)


def run_verification(config: PointConfig, max_m: int = DEFAULT_MAX_M) -> VerifyReport:
    """Full cross-validation suite: the ``_CHECKS`` rows for the configuration's kind.

    A guard error inside a check fails that check with the guard's message.
    """
    require_int(max_m, "max_m", 1)
    checks = []
    for name, check, kinds in _CHECKS:
        if config.kind in kinds:
            try:
                checks.append(VerifyCheck(name, *check(config, max_m)))
            except ComputationGuardError as exc:
                checks.append(VerifyCheck(name, False, str(exc)))
    return VerifyReport(max_m=max_m, checks=tuple(checks))
