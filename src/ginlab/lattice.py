"""Exact divisor-class arithmetic on blow-ups of the projective plane.

Classes live in the Picard lattice with basis e0 (pullback of a line) and
e_1..e_r (exceptional curves); the intersection form is diag(1, -1, ..., -1).
Section counts of nef classes come from Riemann-Roch.  Other classes are
driven to a nef representative by peeling off negative curves; each peel
preserves the section count.  The curves are one table of orbits under
permuting the points, ``_curve_orbits``.  The orbit engine ``uniform_h0``
peels uniform classes a whole orbit at a time on plain ints (d, a, b) and
evaluates Riemann-Roch on them in closed form; ``reduce_to_nef`` peels
curve by curve on ``DivisorClass`` values from the table's expansion,
``exceptional_classes``.  The nef slope read off the same orbits is the
int pair ``nef_ratio``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import repeat
from math import gcd
from operator import add, mul, sub

from .errors import ComputationGuardError, UnsupportedConfigError

GENERAL = "general"
SHGH = "shgh"
COLLINEAR = "collinear"


class DivisorClass(namedtuple("DivisorClass", "d mults")):
    """The class d*e0 - sum(mults[i] * e_{i+1}).

    The sign convention keeps fat-point data positive: the scheme of r points
    with multiplicity m imposed on degree-t curves is ``(t; m, ..., m)``.
    Consequently the exceptional curve over point i is ``(0; ..., -1, ...)``
    and the canonical class is ``(-3; -1, ..., -1)``.
    """

    __slots__ = ()

    def __new__(cls, d: int, mults: tuple[int, ...]) -> "DivisorClass":
        if not isinstance(mults, tuple):
            mults = tuple(mults)
        if len(mults) < 1:
            raise ValueError("a divisor class needs at least one exceptional index")
        return tuple.__new__(cls, (d, mults))

    @property
    def r(self) -> int:
        return len(self.mults)

    @classmethod
    def uniform(cls, t: int, m: int, r: int) -> "DivisorClass":
        """Fat-point class t*e0 - m*(e_1 + ... + e_r)."""
        return cls(t, (m,) * r)

    @classmethod
    def exceptional(cls, i: int, r: int) -> "DivisorClass":
        """Class of the exceptional curve over point i (1-based)."""
        if not 1 <= i <= r:
            raise ValueError(f"point index {i} out of range 1..{r}")
        mults = [0] * r
        mults[i - 1] = -1
        return cls(0, tuple(mults))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _check_same_rank(self, other)
        return DivisorClass(self.d + other.d, tuple(map(add, self.mults, other.mults)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        _check_same_rank(self, other)
        return DivisorClass(self.d - other.d, tuple(map(sub, self.mults, other.mults)))

    def __rmul__(self, k: int) -> "DivisorClass":
        return DivisorClass(k * self.d, tuple(map(mul, repeat(k), self.mults)))

    __mul__ = __rmul__

    def __str__(self) -> str:
        return _class_str(self.d, self.mults)


def _class_str(d: int, mults: tuple[int, ...]) -> str:
    return f"({d}; {', '.join(map(str, mults))})"


def _check_same_rank(a: DivisorClass, b: DivisorClass) -> None:
    if len(a.mults) != len(b.mults):
        raise ValueError(f"rank mismatch: {len(a.mults)} vs {len(b.mults)}")


class PointConfig(namedtuple("PointConfig", "kind n")):
    """Point arrangement selecting a Hilbert-function engine.

    kind "general" is 2..8 points in general position: the exceptional
    classes form a finite classified list and the divisor engine is exact.
    kind "shgh" is r >= 9 general points, served by the conjectural
    interpolation count; everything derived from it stays flagged
    conjectural.  kind "collinear" is l points on a line plus one off it;
    the divisor engine applies with an explicit curve list whose
    completeness is validated empirically rather than by classification.

    ``n`` holds r for the general kinds and l for the collinear one.
    """

    __slots__ = ()

    def __new__(cls, kind: str, n: int) -> "PointConfig":
        if kind == GENERAL:
            if not 2 <= n <= 8:
                raise ValueError("general-position engine covers 2 to 8 points")
        elif kind == SHGH:
            if n < 9:
                raise ValueError("interpolation engine starts at 9 points; use general:r below that")
        elif kind == COLLINEAR:
            if n < 3:
                raise ValueError("collinear arrangement needs at least 3 points on the line")
        else:
            raise ValueError(f"unknown configuration kind {kind!r}")
        return tuple.__new__(cls, (kind, n))

    @classmethod
    def general(cls, r: int) -> "PointConfig":
        return cls(GENERAL, r)

    @classmethod
    def shgh(cls, r: int) -> "PointConfig":
        return cls(SHGH, r)

    @classmethod
    def collinear_plus_one(cls, l: int) -> "PointConfig":
        return cls(COLLINEAR, l)

    @classmethod
    def parse(cls, spec: str) -> "PointConfig":
        """Parse "general:R", "shgh:R" or "collinear:L"; blanks around either part are dropped."""
        kind, sep, num = spec.partition(":")
        num = num.strip()
        if not sep or not num.removeprefix("-").isdecimal():
            raise ValueError(f"bad configuration {spec!r}; expected kind:number")
        return cls(kind.strip(), int(num))

    @property
    def r(self) -> int:
        """Number of blown-up points."""
        return self.n + 1 if self.kind == COLLINEAR else self.n

    @property
    def l(self) -> int:
        if self.kind != COLLINEAR:
            raise AttributeError("only the collinear arrangement has a line size")
        return self.n

    @property
    def conjectural(self) -> bool:
        return self.kind == SHGH

    @property
    def provenance(self) -> str:
        """How much to trust the engine: proven, conjectural or empirical."""
        return {GENERAL: "proven", SHGH: "conjectural", COLLINEAR: "empirical"}[self.kind]

    def __str__(self) -> str:
        return f"{self.kind}:{self.n}"


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection pairing; e0.e0 = 1, e_i.e_i = -1, mixed terms vanish."""
    _check_same_rank(a, b)
    return a.d * b.d - sum(map(mul, a.mults, b.mults))


def canonical_class(r: int) -> DivisorClass:
    """Canonical class -3*e0 + e_1 + ... + e_r."""
    if r < 1:
        raise ValueError("need at least one point")
    return DivisorClass(-3, (-1,) * r)


# Degree and nonzero multiplicities of every exceptional-class shape on the
# blow-up at eight general points.  On fewer points only shapes whose support
# fits remain; indices are then permuted over the available points.
_EXCEPTIONAL_TEMPLATES: tuple[tuple[int, tuple[int, ...]], ...] = (
    (0, (-1,)),
    (1, (1, 1)),
    (2, (1, 1, 1, 1, 1)),
    (3, (2, 1, 1, 1, 1, 1, 1)),
    (4, (2, 2, 2, 1, 1, 1, 1, 1)),
    (5, (2, 2, 2, 2, 2, 2, 1, 1)),
    (6, (3, 2, 2, 2, 2, 2, 2, 2)),
)


def _distinct_permutations(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Each distinct ordering of values exactly once, in lexicographic order.

    A template has far fewer distinct orderings than permutations (at most
    56 against 8! = 40320 per shape on eight points), so they are built one
    distinct leading value at a time instead of deduplicating permutations.
    """
    if not values:
        yield ()
        return
    for first in sorted(set(values)):
        rest = list(values)
        rest.remove(first)
        for tail in _distinct_permutations(tuple(rest)):
            yield (first,) + tail


def _curve_orbits(config: PointConfig) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """The negative curves the nef test has to see, one row per orbit under
    permuting the first n points: (degree, sorted multiplicities on those n
    points, the multiplicities past them), in that order.

    General position: the template shapes fitting into r points.
    Collinear-plus-one: the exceptional curves over the line's points and
    over the extra point, the lines joining a collinear point to the extra
    one, and the line through the collinear points.
    """
    if config.kind == SHGH:
        raise UnsupportedConfigError(
            "9 or more general points carry infinitely many exceptional classes")
    if config.kind == GENERAL:
        r = config.r
        return tuple((d, tuple(sorted(support + (0,) * (r - len(support)))), ())
                     for d, support in _EXCEPTIONAL_TEMPLATES if len(support) <= r)
    zeros = (0,) * (config.l - 1)
    return ((0, (-1, *zeros), (0,)), (0, (0, *zeros), (-1,)),
            (1, (*zeros, 1), (1,)), (1, (1,) * config.l, (0,)))


@lru_cache(maxsize=None)
def exceptional_classes(config: PointConfig) -> tuple[DivisorClass, ...]:
    """Every listed negative curve, sorted by (d, mults): the rows of
    ``_curve_orbits`` expanded over the distinct orderings of their first n
    multiplicities, for the curve-by-curve routes and the class listings."""
    out = tuple(sorted((DivisorClass(d, on + off) for d, orbit, off in _curve_orbits(config)
                        for on in _distinct_permutations(orbit)), key=lambda c: (c.d, c.mults)))
    for c in out:
        # the reduction loop divides by -C.C, so every listed curve must be negative
        if intersect(c, c) >= 0:
            raise ComputationGuardError(f"curve list contains non-negative class {c}")
    return out


def is_nef(f: DivisorClass, config: PointConfig) -> bool:
    """Whether f meets every listed negative curve nonnegatively."""
    _check_rank(f, config)
    return all(intersect(f, c) >= 0 for c in exceptional_classes(config))


def riemann_roch_h0(f: DivisorClass, config: PointConfig) -> int:
    """Section count (f.f - f.K)/2 + 1, valid for nef classes.

    Higher cohomology vanishes for nef classes on these surfaces, so the
    Euler characteristic is the full section count.
    """
    if not is_nef(f, config):
        raise ValueError(f"{f} is not nef; Riemann-Roch alone does not give h0")
    return _euler_h0(f)


def _euler_h0(f: DivisorClass) -> int:
    """(f.f - f.K)/2 + 1 for a class already known to be nef."""
    # f.f - f.K = d^2 + 3d - sum(a^2 + a) with K = (-3; -1, ..., -1)
    # is even: d(d+3) = d(d+1) + 2d, and a(a+1) is even for every a
    chi2 = f.d * (f.d + 3) - sum(a * (a + 1) for a in f.mults)
    value = chi2 // 2 + 1
    if value < 0:
        raise ComputationGuardError(f"negative section count for nef class {f}")
    return value


class EffectivityResult(namedtuple("EffectivityResult",
                                   "effective h0 nef_remainder witness trace")):
    """Outcome of driving a class to a nef representative.

    When ``effective``, ``h0`` counts sections, ``nef_remainder`` is the nef
    class with the same count, and the input equals
    ``nef_remainder + sum(k * c for c, k in trace)``.  Otherwise ``witness``
    is the reduced class whose degree went negative, certifying emptiness.
    The fields are ``effective`` (bool), ``h0`` (int), ``nef_remainder`` and
    ``witness`` (DivisorClass or None) and ``trace`` (pairs of a curve and
    the number of times it was subtracted).
    """

    __slots__ = ()


def reduce_to_nef(f: DivisorClass, config: PointConfig) -> EffectivityResult:
    """Peel negative curves off f until it is nef or visibly empty.

    Each pass clamps negative multiplicities to zero (repeated subtraction
    of exceptional curves met negatively), stops if the degree went
    negative, and otherwise subtracts the worst-met curve, the first listed
    one on ties, as often as f.C stays negative: each subtraction raises
    f.C by -C.C.  Every step preserves the section count, so h0 of the
    input is the Riemann-Roch count of the nef remainder.
    """
    _check_rank(f, config)
    curves = exceptional_classes(config)
    g, trace = f, []
    # every iteration either clamps or lowers the degree, so this bound is generous
    budget = (max(f.d, 0) + 2) * (len(curves) + 2) + sum(-a for a in f.mults if a < 0) + 8
    while True:
        budget -= 1
        if budget < 0:
            raise ComputationGuardError(f"reduction of {f} failed to terminate")
        if min(g.mults) < 0:
            trace += [(DivisorClass.exceptional(i + 1, f.r), -a) for i, a in enumerate(g.mults) if a < 0]
            g = DivisorClass(g.d, tuple(max(a, 0) for a in g.mults))
        if g.d < 0:
            return EffectivityResult(False, 0, None, g, tuple(trace))
        pairings = [intersect(g, c) for c in curves]
        worst_pairing = min(pairings)
        if worst_pairing >= 0:
            return EffectivityResult(True, _euler_h0(g), g, None, tuple(trace))
        worst = curves[pairings.index(worst_pairing)]
        drop = -intersect(worst, worst)
        k = (-worst_pairing + drop - 1) // drop
        g = g - k * worst
        trace.append((worst, k))


@lru_cache(maxsize=None)
def _orbits(config: PointConfig) -> tuple[tuple[int, int, int, int, int, int, int], ...]:
    """The rows of ``_curve_orbits`` as the orbit engine reads them.

    Each orbit is (degree, multiplicity sum on the n points, multiplicity
    off them) of one member C, then the same for the orbit sum S, whose
    multiplicity is the same at each of the n points, then -C.S, by which
    one subtraction of S raises the pairing with C.
    """
    n = config.n
    orbits = []
    for d, on, off in _curve_orbits(config):
        size = sum(1 for _ in _distinct_permutations(on))
        a, b = sum(on), sum(off)
        sd, sa, sb = size * d, size * a // n, size * b
        orbits.append((d, a, b, sd, sa, sb, sa * a + sb * b - sd * d))
    return tuple(orbits)


@lru_cache(maxsize=None)
def nef_ratio(config: PointConfig) -> tuple[int, int]:
    """Slope nu at which (t; m, ..., m) turns nef, as (p, q) in lowest terms
    with q > 0: the class is nef exactly when q*t >= p*m.

    The uniform class meets curve C nonnegatively once t >= m*sum(C)/deg(C),
    and that ratio is the same across an orbit of the listed curves.  The
    largest ratio is found by cross-multiplying, so nu stays exact without a
    Fraction.  For general points nu is the y-intercept of the limiting shape.
    """
    # every divisor kind lists a line through two or more points, so nu > 0
    p, q = 0, 1
    for cd, ca, cb, *_ in _orbits(config):
        if cd > 0 and (ca + cb) * q > p * cd:
            p, q = ca + cb, cd
    g = gcd(p, q)
    return p // g, q // g


def uniform_h0(config: PointConfig, m: int, t: int) -> int:
    """Section count of (t; m, ..., m), peeling whole orbits of curves.

    The class stays uniform on the n permuted points, as (d, a on them, b
    off them), and meets all of an orbit alike.  If it meets the worst
    orbit negatively, the orbit sum S comes off ceil(-f.C / -C.S) times.
    A fixed part has a negative-definite intersection matrix (Zariski), so
    C.S >= 0 means the class is empty.  Two orbit peels sufficed on every
    value checked (the chambers of Bauer-Kuronya-Szemberg); eight is a guard.
    The nef remainder's count is Riemann-Roch on (d, a, b) in closed form,
    (d(d+3) - n*a(a+1) - (r-n)*b(b+1))/2 + 1, with no class built.
    """
    orbits = _orbits(config)
    d, a, b = t, m, m
    for _ in range(8):
        if d < 0:
            return 0
        # the first orbit met most negatively; row[:3] is (cd, ca, cb)
        worst, worst_pairing = None, 0
        for row in orbits:
            pairing = d * row[0] - a * row[1] - b * row[2]
            if pairing < worst_pairing:
                worst, worst_pairing = row, pairing
        if worst is None:
            n, rest = config.n, config.r - config.n
            chi2 = d * (d + 3) - n * a * (a + 1) - rest * b * (b + 1)  # even, as in _euler_h0
            value = chi2 // 2 + 1
            if value < 0:
                raise ComputationGuardError(
                    f"negative section count for nef class {_class_str(d, (a,) * n + (b,) * rest)}")
            return value
        _, _, _, sd, sa, sb, drop = worst
        if drop <= 0:
            return 0
        k = (-worst_pairing + drop - 1) // drop
        d, a, b = d - k * sd, a - k * sa, b - k * sb
    raise ComputationGuardError(f"orbit reduction of ({t}; {m}, ...) on {config} failed to terminate")


def h0(f: DivisorClass, config: PointConfig) -> int:
    """Dimension of the space of curves in the class f (0 when empty)."""
    return reduce_to_nef(f, config).h0


def _check_rank(f: DivisorClass, config: PointConfig) -> None:
    if f.r != config.r:
        raise ValueError(f"class has rank {f.r} but configuration has {config.r} points")
