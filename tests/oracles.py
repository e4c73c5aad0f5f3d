"""Independent oracles, input finders and helpers shared by the test modules.

Each oracle rebuilds an engine result by a route that shares no code with
the engine it checks, and none calls ``verify``'s own oracles.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations_with_replacement, permutations

from ginlab import (DivisorClass, MonomialStaircase, PointConfig, SquareRootIntercept, exceptional_classes,
                    gin_staircase)
from ginlab.hilbert import alpha_shgh, nef_threshold, shgh_hilbert
from ginlab.lattice import EffectivityResult, intersect, uniform_h0


def clear_ginlab_caches() -> None:
    """Empty ginlab's lru_caches, so that a cached function is entered as in
    a fresh process."""
    for name, module in list(sys.modules.items()):
        if name.startswith("ginlab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# The limit intercepts of r <= 8 general points, (alpha-hat, nu), written down
# apart from lattice.nef_ratio: alpha-hat = lim alpha(m)/m, the x-intercept,
# from Nagata's table (Amer. J. Math. 81, 1959), and nu = r / alpha-hat, the
# slope above which (t; m, ..., m) is nef, the y-intercept.
GENERAL_INTERCEPTS = {r: (Fraction(*a), Fraction(*nu)) for r, a, nu in (
    (2, (1, 1), (2, 1)), (3, (3, 2), (2, 1)), (4, (2, 1), (2, 1)), (5, (2, 1), (5, 2)),
    (6, (12, 5), (5, 2)), (7, (21, 8), (8, 3)), (8, (48, 17), (17, 6)))}


# Written before the template list and deliberately independent of it: scan
# every degree 0..6 and every multiplicity multiset with entries in -1..6,
# keep the classes with self-intersection -1 and canonical pairing -1.
@lru_cache(maxsize=None)
def oracle_neg_one_classes(r: int) -> frozenset[DivisorClass]:
    k = DivisorClass(-3, (-1,) * r)
    found: set[DivisorClass] = set()
    for d in range(0, 7):
        for sorted_mults in combinations_with_replacement(range(-1, 7), r):
            c = DivisorClass(d, sorted_mults)
            if intersect(c, c) == -1 and intersect(c, k) == -1:
                found.update(DivisorClass(d, p) for p in set(permutations(sorted_mults)))
    return frozenset(found)


def combine(*terms: tuple[int, DivisorClass]) -> DivisorClass:
    """sum(k * c) over the (k, c) terms, degree and each multiplicity on
    their own: DivisorClass has no arithmetic."""
    (_, first), *_ = terms
    return DivisorClass(sum(k * c.d for k, c in terms),
                        tuple(sum(k * c.mults[i] for k, c in terms) for i in range(len(first.mults))))


# reduce_to_nef's oracle: the same peeling as a plain loop that pairs every
# class with every listed curve through intersect, where the engine pairs
# ints through its table of curve rows, and h0 as the Euler characteristic
# (f.f - f.K)/2 + 1 of the remainder.
def reference_reduce_to_nef(f: DivisorClass, config: PointConfig) -> EffectivityResult:
    curves = exceptional_classes(config)
    canonical = DivisorClass(-3, (-1,) * f.r)
    g, trace = f, []
    while True:
        if min(g.mults) < 0:
            trace += [(DivisorClass.exceptional(i + 1, f.r), -a) for i, a in enumerate(g.mults) if a < 0]
            g = DivisorClass(g.d, tuple(max(a, 0) for a in g.mults))
        if g.d < 0:
            return EffectivityResult(False, 0, None, g, tuple(trace))
        pairings = [intersect(g, c) for c in curves]
        worst = min(pairings)
        if worst >= 0:
            h0 = (intersect(g, g) - intersect(g, canonical)) // 2 + 1
            return EffectivityResult(True, h0, g, None, tuple(trace))
        curve = curves[pairings.index(worst)]
        k = -(worst // -intersect(curve, curve))
        g = combine((1, g), (-k, curve))
        trace.append((curve, k))


# The orbit table's oracle: group the expanded class list into orbits under
# permuting the first n points, count each orbit, build its sum S, whose
# multiplicity is the same at each of those points, and pair one member C
# with S.  Rows are (cd, ca, cb, sd, sa, sb, -C.S), sorted by orbit.
def grouped_orbits(config: PointConfig) -> tuple[tuple[int, ...], ...]:
    n, rest = config.n, config.r - config.n
    sizes = Counter((c.d, tuple(sorted(c.mults[:n])), sum(c.mults[n:]))
                    for c in exceptional_classes(config))
    rows = []
    for (d, on, off), size in sorted(sizes.items()):
        a = sum(on)
        assert size * a % n == 0, f"curve list of {config} is not symmetric in its first {n} points"
        member = DivisorClass(d, on + (off,) * rest)
        orbit_sum = DivisorClass(size * d, (size * a // n,) * n + (size * off,) * rest)
        rows.append((d, a, off, orbit_sum.d, orbit_sum.mults[0], size * off, -intersect(member, orbit_sum)))
    return tuple(rows)


# The closed form's oracle: rebuild the staircase from the first differences
# of the interpolation count, scanning from degree 0.  Column i enters the
# ideal in the first degree whose top segment reaches it.
def scan_shgh_staircase(r: int, m: int) -> MonomialStaircase:
    heights: dict[int, int] = {}
    t = 0
    while True:
        k = shgh_hilbert(r, m, t) - shgh_hilbert(r, m, t - 1)
        for i in range(t - k + 1, t + 1):
            heights.setdefault(i, t - i)
        if k == t + 1:
            break
        t += 1
    a = min(i for i, h in heights.items() if h == 0)
    return staircase_of(tuple(heights[i] for i in range(a)), m, PointConfig.shgh(r))


def runs_of(heights: tuple[int, ...]) -> tuple[range, ...]:
    """A column profile cut into its maximal stretches falling by exactly 1."""
    runs, start = [], 0
    for i in range(1, len(heights) + 1):
        if i == len(heights) or heights[i] != heights[i - 1] - 1:
            runs.append(range(heights[start], heights[i - 1] - 1, -1))
            start = i
    return tuple(runs)


def staircase_of(heights: tuple[int, ...], m: int, config: PointConfig) -> MonomialStaircase:
    """The staircase with these column heights, alpha = their number."""
    return MonomialStaircase(alpha=len(heights), runs=runs_of(heights), m=m, config=config)


# The profile as the engine built it before it kept runs or read residue
# families: the walk down from the nef threshold, reading each H(t) from the
# greedy uniform_h0 at its own degree, every column height appended to one
# list, and the shgh closed form as one tuple.  Property tests expand the runs
# against these.
def walk_heights(config: PointConfig, m: int) -> tuple[int, ...]:
    t = nef_threshold(config, m) + 1
    upper, lower = uniform_h0(config, m, t), uniform_h0(config, m, t - 1)
    assert upper - lower == t + 1
    heights: list[int] = []
    lo = 0
    while upper:
        t -= 1
        upper = lower
        lower = uniform_h0(config, m, t - 1) if upper else 0
        start = t + 1 - (upper - lower)
        assert lo <= start <= t + 1
        heights += range(t + 1 - lo, t + 1 - start, -1)
        lo = start
    return tuple(heights)


def window_of(value):
    """A stand-in for ``uniform_h0_window`` that reads value(config, m, t) at
    each degree: how a test hands a wrong Hilbert value to the binding that
    the walk or the hilbert command reads."""
    return lambda config, m, ts: map(partial(value, config, m), ts)


def closed_form_heights(r: int, m: int) -> tuple[int, ...]:
    a = alpha_shgh(r, m)
    eta = shgh_hilbert(r, m, a)
    return (*range(a + 1, eta, -1), *range(eta - 1, 0, -1))


# A staircase expanded, O(alpha): what the record itself never builds.
def heights(s: MonomialStaircase) -> tuple[int, ...]:
    """Every column height from column 0."""
    return tuple(chain.from_iterable(s.runs))


def generators(s: MonomialStaircase) -> tuple[tuple[int, int], ...]:
    """The minimal generators as (x, y) exponents, x^alpha first, descending x."""
    profile = heights(s)
    return ((s.alpha, 0), *((x, profile[x]) for x in range(s.alpha - 1, -1, -1)))


def membership(s: MonomialStaircase):
    """x^x y^y in the ideal, read off the expanded profile: x, y >= 0 and y at
    least column x's height, which is 0 from alpha on."""
    profile = heights(s)
    return lambda x, y: x >= 0 and y >= 0 and y >= (profile[x] if x < s.alpha else 0)


# The graded row's oracle: every pair of generators of small, its product
# tested against big's expanded profile, O(alpha^2).
def products_inside_all_pairs(small: MonomialStaircase, big: MonomialStaircase) -> bool:
    inside = membership(big)
    return all(inside(x1 + x2, y1 + y2)
               for (x1, y1), (x2, y2) in combinations_with_replacement(generators(small), 2))


# The closed-form row's oracle: the degree-t monomials of the ideal, one by one.
def degree_count(s: MonomialStaircase, t: int) -> int:
    inside = membership(s)
    return sum(inside(k, t - k) for k in range(t + 1))


def expected_generator_line(s: MonomialStaircase) -> str:
    """The text generator line built pair by pair."""
    def monomial(x: int, y: int) -> str:
        return (f"x^{x}" if x > 1 else "x" * x) + (f"y^{y}" if y > 1 else "y" * y)
    return "generators: " + " ".join(monomial(x, y) for x, y in generators(s))


def shgh_with_alpha(a: int) -> MonomialStaircase:
    """An shgh staircase with alpha = a, from the first r in 9..40 that has
    one: alpha = 1024 first occurs at r = 17."""
    for r in range(9, 41):
        m = 1 + bisect_left(range(1, a + 1), a, key=lambda m: alpha_shgh(r, m))
        if alpha_shgh(r, m) == a:
            return gin_staircase(PointConfig.shgh(r), m)
    raise LookupError(f"no shgh staircase with alpha {a}")


# shape._near's oracle: |v - m*g| <= c on Fractions.  For g = sqrt(R) the
# distance is bounded by its ends: v - c <= m*sqrt(R) holds at once when
# v - c <= 0, and otherwise squares to (v - c)^2 <= m^2 R; m*sqrt(R) <= v + c
# needs v + c >= 0 and then squares to m^2 R <= (v + c)^2.
def near_oracle(v: int, m: int, g, c) -> bool:
    c = Fraction(*c) if isinstance(c, tuple) else Fraction(c)
    if isinstance(g, SquareRootIntercept):
        low, high, square = v - c, v + c, m * m * g.radicand
        return (low <= 0 or low * low <= square) and high >= 0 and square <= high * high
    return abs(v - m * Fraction(*g)) <= c
