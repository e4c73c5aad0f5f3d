"""Independent oracles and input finders shared by the test modules.

Each oracle rebuilds an engine result by a route that shares no code with
the engine it checks, and none calls ``verify``'s own oracles.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

from ginlab import (DivisorClass, MonomialStaircase, PointConfig, SquareRootIntercept, exceptional_classes,
                    gin_staircase, hilbert_fn, intersect, nef_threshold, shgh_hilbert)
from ginlab.hilbert import alpha_shgh


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


# The profile as the engine built it before it kept runs: the walk down from
# the nef threshold, every column height appended to one list, and the shgh
# closed form as one tuple.  Property tests expand the runs against these.
def walk_heights(config: PointConfig, m: int) -> tuple[int, ...]:
    t = nef_threshold(config, m) + 1
    upper, lower = hilbert_fn(config, m, t), hilbert_fn(config, m, t - 1)
    assert upper - lower == t + 1
    heights: list[int] = []
    lo = 0
    while upper:
        t -= 1
        upper = lower
        lower = hilbert_fn(config, m, t - 1) if upper else 0
        start = t + 1 - (upper - lower)
        assert lo <= start <= t + 1
        heights += range(t + 1 - lo, t + 1 - start, -1)
        lo = start
    return tuple(heights)


def closed_form_heights(r: int, m: int) -> tuple[int, ...]:
    a = alpha_shgh(r, m)
    eta = shgh_hilbert(r, m, a)
    return (*range(a + 1, eta, -1), *range(eta - 1, 0, -1))


def expected_generator_line(s: MonomialStaircase) -> str:
    """The text generator line built pair by pair."""
    def monomial(x: int, y: int) -> str:
        return (f"x^{x}" if x > 1 else "x" * x) + (f"y^{y}" if y > 1 else "y" * y)
    return "generators: " + " ".join(monomial(x, y) for x, y in s.generators)


def shgh_with_alpha(a: int) -> MonomialStaircase:
    """An shgh staircase with alpha = a, from the first r in 9..16 that has one."""
    for r in range(9, 17):
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
