"""Independent oracles and input finders shared by the test modules.

Each oracle rebuilds an engine result by a route that shares no code with
the engine it checks, and none calls ``verify``'s own oracles.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

from ginlab import (DivisorClass, MonomialStaircase, PointConfig, exceptional_classes, gin_staircase, intersect,
                    shgh_hilbert)
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
    return MonomialStaircase(alpha=a, lambdas=tuple(heights[i] for i in range(a)),
                             m=m, config=PointConfig.shgh(r))


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
