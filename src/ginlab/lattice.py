"""Exact divisor-class arithmetic on blow-ups of the projective plane.

Classes live in the Picard lattice with basis e0 (pullback of a line) and
e_1..e_r (exceptional curves); the intersection form is diag(1, -1, ..., -1).
Section counts of nef classes come from Riemann-Roch, and arbitrary classes
are driven to a nef representative by peeling off negative curves, which
preserves the section count step by step.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache

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
    def line(cls, r: int) -> "DivisorClass":
        return cls(1, (0,) * r)

    @classmethod
    def exceptional(cls, i: int, r: int) -> "DivisorClass":
        """Class of the exceptional curve over point i (1-based)."""
        if not 1 <= i <= r:
            raise ValueError(f"point index {i} out of range 1..{r}")
        mults = [0] * r
        mults[i - 1] = -1
        return cls(0, tuple(mults))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if self.r != other.r:
            raise ValueError(f"rank mismatch: {self.r} vs {other.r}")
        return DivisorClass(self.d + other.d,
                            tuple(a + b for a, b in zip(self.mults, other.mults)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if self.r != other.r:
            raise ValueError(f"rank mismatch: {self.r} vs {other.r}")
        return DivisorClass(self.d - other.d,
                            tuple(a - b for a, b in zip(self.mults, other.mults)))

    def __rmul__(self, k: int) -> "DivisorClass":
        return DivisorClass(k * self.d, tuple(k * a for a in self.mults))

    __mul__ = __rmul__

    def __str__(self) -> str:
        return f"({self.d}; {', '.join(str(a) for a in self.mults)})"


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
        """Parse "general:R", "shgh:R" or "collinear:L"."""
        kind, sep, num = spec.partition(":")
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
    if a.r != b.r:
        raise ValueError(f"rank mismatch: {a.r} vs {b.r}")
    return a.d * b.d - sum(x * y for x, y in zip(a.mults, b.mults))


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


@lru_cache(maxsize=None)
def exceptional_classes(config: PointConfig) -> tuple[DivisorClass, ...]:
    """Every negative curve the nef test has to see, sorted by (d, mults).

    General position: all index permutations of the template shapes fitting
    into r points.  Collinear-plus-one: the r exceptional curves, the line
    through the collinear points, and the lines joining each collinear point
    to the extra one.
    """
    if config.kind == SHGH:
        raise UnsupportedConfigError(
            "9 or more general points carry infinitely many exceptional classes")
    r = config.r
    classes: set[DivisorClass] = set()
    if config.kind == GENERAL:
        for d, support in _EXCEPTIONAL_TEMPLATES:
            if len(support) > r:
                continue
            for mults in _distinct_permutations(support + (0,) * (r - len(support))):
                classes.add(DivisorClass(d, mults))
    else:
        l = config.l
        for i in range(1, r + 1):
            classes.add(DivisorClass.exceptional(i, r))
        classes.add(DivisorClass(1, (1,) * l + (0,)))
        for i in range(1, l + 1):
            mults = [0] * r
            mults[i - 1] = 1
            mults[l] = 1
            classes.add(DivisorClass(1, tuple(mults)))
    out = tuple(sorted(classes, key=lambda c: (c.d, c.mults)))
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
    chi2 = f.d * (f.d + 3) - sum(a * (a + 1) for a in f.mults)
    if chi2 % 2:
        raise ComputationGuardError(f"odd Euler number for {f}; lattice data is corrupt")
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


class _CurveTable:
    """What the reduction loop needs to know about one configuration's curves.

    ``degrees[j]`` is C_j's degree, ``drops[j]`` is -C_j.C_j and
    ``mult_sums[j]`` the sum of C_j's multiplicities.  Degree 0 sorts
    first, so ``curves[i]`` is the exceptional curve E_{i+1} and its Gram
    row holds every curve's multiplicity at point i.  A Gram row C_w.C_j is
    built the first time C_w is peeled or clamped; uniform classes only
    ever touch a handful of curves, so few rows are built.
    """

    __slots__ = ("curves", "degrees", "drops", "mult_sums", "_gram")

    def __init__(self, config: PointConfig) -> None:
        curves = exceptional_classes(config)
        r = config.r
        if curves[:r] != tuple(DivisorClass.exceptional(i, r) for i in range(1, r + 1)):
            raise ComputationGuardError(f"curve list of {config} does not open with E_1..E_{r}")
        self.curves = curves
        self.degrees = tuple(c.d for c in curves)
        self.drops = tuple(-intersect(c, c) for c in curves)
        self.mult_sums = tuple(sum(c.mults) for c in curves)
        self._gram: dict[int, tuple[int, ...]] = {}

    def gram_row(self, w: int) -> tuple[int, ...]:
        row = self._gram.get(w)
        if row is None:
            peeled = self.curves[w]
            row = self._gram[w] = tuple(intersect(peeled, c) for c in self.curves)
        return row


@lru_cache(maxsize=None)
def _curve_table(config: PointConfig) -> _CurveTable:
    return _CurveTable(config)


def reduce_to_nef(f: DivisorClass, config: PointConfig) -> EffectivityResult:
    """Peel negative curves off f until it is nef or visibly empty.

    Each pass clamps negative multiplicities to zero (repeated subtraction
    of exceptional curves met negatively), stops if the degree went
    negative, and otherwise subtracts the worst-met curve in one batch,
    the first listed one on ties.  Subtracting C once raises f.C by -C.C,
    so the batch size is the exact number of steps for which the pairing
    stays negative.  Every step preserves the section count, so h0 of the
    input equals h0 of the nef remainder.

    The pairings f.C_j are kept in one vector and updated by each step's
    change instead of being recomputed; once none is negative the
    remainder is nef and Riemann-Roch gives its section count.
    """
    _check_rank(f, config)
    table = _curve_table(config)
    curves = table.curves
    d = f.d
    mults = list(f.mults)
    r = f.r
    if mults.count(mults[0]) == r:
        m = mults[0]
        pairings = [d * c - m * s for c, s in zip(table.degrees, table.mult_sums)]
    else:
        pairings = [intersect(f, c) for c in curves]
    trace: list[tuple[DivisorClass, int]] = []
    # every iteration either clamps or lowers the degree, so this bound is generous
    budget = (max(d, 0) + 2) * (len(curves) + 2) + sum(-a for a in mults if a < 0) + 8
    while True:
        budget -= 1
        if budget < 0:
            raise ComputationGuardError(f"reduction of {f} failed to terminate")
        for i, a in enumerate(mults):
            if a < 0:
                trace.append((curves[i], -a))
                mults[i] = 0
                pairings = [p + a * g for p, g in zip(pairings, table.gram_row(i))]
        if d < 0:
            witness = DivisorClass(d, tuple(mults))
            return EffectivityResult(False, 0, None, witness, tuple(trace))
        worst_pairing = min(pairings)
        if worst_pairing >= 0:
            remainder = DivisorClass(d, tuple(mults))
            return EffectivityResult(True, _euler_h0(remainder), remainder, None, tuple(trace))
        w = pairings.index(worst_pairing)
        worst = curves[w]
        drop = table.drops[w]
        k = (-worst_pairing + drop - 1) // drop
        d -= k * table.degrees[w]
        mults = [a - k * b for a, b in zip(mults, worst.mults)]
        pairings = [p - k * g for p, g in zip(pairings, table.gram_row(w))]
        trace.append((worst, k))


def h0(f: DivisorClass, config: PointConfig) -> int:
    """Dimension of the space of curves in the class f (0 when empty)."""
    return reduce_to_nef(f, config).h0


def _check_rank(f: DivisorClass, config: PointConfig) -> None:
    if f.r != config.r:
        raise ValueError(f"class has rank {f.r} but configuration has {config.r} points")
