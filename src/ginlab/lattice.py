"""Divisor classes, negative curves and section counts on blown-up planes.

Classes live in the Picard lattice with basis e0 (pullback of a line) and
e_1..e_r (exceptional curves); the intersection form is diag(1, -1, ..., -1).
Section counts of nef classes come from Riemann-Roch.  Other classes are
driven to a nef representative by peeling off negative curves; each peel
preserves the section count.  The curves are one table of orbits under
permuting the points, ``_curve_orbits``.  The orbit engine ``uniform_h0``
peels uniform classes a whole orbit at a time on plain ints (d, a, b) and
evaluates Riemann-Roch on them in closed form; it is the one per-degree
decision procedure.  ``uniform_h0_window`` serves a run of consecutive
degrees at fixed m from it: H is Riemann-Roch of a class affine in t on each
residue family of t that shares the greedy's trace, so the greedy runs only
at the two ends of each family.  ``reduce_to_nef`` peels curve by curve on
plain ints (d, mults), through one row per curve of the table's expansion,
``exceptional_classes``.  The nef slope read off the same orbits is the
``Rational`` ``nef_ratio``.

Every result record in the package is a ``Record``: a tuple subclass whose
fields are the C getters ``namedtuple`` installs, built without compiling
any source, so importing the package runs no compiler.
"""

from __future__ import annotations

from collections import _tuplegetter
from collections.abc import Iterator
from functools import lru_cache, partial
from math import factorial, gcd
from operator import mul

from .errors import ComputationGuardError, UnsupportedConfigError

GENERAL = "general"
SHGH = "shgh"
COLLINEAR = "collinear"


class Record(tuple):
    """Base of the result records: what ``namedtuple`` gives, built without
    compiling any source.  ``class R(Record, fields="a b")`` reads field i
    through the C getter ``namedtuple`` installs, and each record writes
    ``__slots__ = ()``.  ``__new__`` takes the fields in order, trailing ones
    by name; only records that validate or reduce write one.  The repr is
    namedtuple's, and pickle and ``copy`` rebuild a record through its
    ``__new__``."""

    __slots__ = ()

    def __init_subclass__(cls, fields: str) -> None:
        cls._fields = tuple(fields.split())
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))

    def __new__(cls, *values, **named):
        fields = cls._fields
        if named:
            rest = fields[len(values):]
            for name in named:
                if name not in rest:
                    got = "multiple values for" if name in fields else "an unexpected"
                    raise TypeError(f"{cls.__name__}() got {got} field {name!r}")
            values += tuple(named[name] for name in rest if name in named)
        if len(values) != len(fields):
            if len(values) > len(fields):
                raise TypeError(f"{cls.__name__}() takes {len(fields)} fields but {len(values)} were given")
            missing = [name for name in fields[len(values) - len(named):] if name not in named]
            raise TypeError(f"{cls.__name__}() missing field {missing[0]!r}")
        return tuple.__new__(cls, values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)


class Rational(Record, fields="numerator denominator"):
    """numerator/denominator in lowest terms with a positive denominator, as
    Fraction keeps it: the str and float of the equal Fraction, which
    Fraction(*x) makes.  A zero denominator raises ZeroDivisionError."""

    __slots__ = ()

    def __new__(cls, numerator: int, denominator: int) -> "Rational":
        if not denominator:
            raise ZeroDivisionError(f"Rational({numerator}, 0)")
        g = gcd(numerator, denominator) if denominator > 0 else -gcd(numerator, denominator)
        return tuple.__new__(cls, (numerator // g, denominator // g))

    def __float__(self) -> float:
        return self.numerator / self.denominator

    def __str__(self) -> str:
        n, d = self
        return f"{n}/{d}" if d != 1 else str(n)


class DivisorClass(Record, fields="d mults"):
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
        if type(d) is not int:
            raise ValueError(f"degree must be an int, not {type(d).__name__}")
        for a in mults:
            if type(a) is not int:
                raise ValueError(f"multiplicity must be an int, not {type(a).__name__}")
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

    def __add__(self, other):
        # a tuple's own + and * would concatenate or repeat the fields
        raise TypeError("a DivisorClass has no arithmetic: it refuses + and *")

    __radd__ = __mul__ = __rmul__ = __add__

    def __str__(self) -> str:
        return _class_str(self.d, self.mults)


def require_int(value, what: str, least: int | None = None) -> None:
    """Refuse a value that is not exactly an int, naming its type: a bool or
    10.0 would pass the range tests, and would hash equal to the int in an
    untyped cache.  Then refuse one below least, 0 ("nonnegative") or 1
    ("positive"), when it is given."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, not {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be {'nonnegative' if least == 0 else 'positive'}")


def _class_str(d: int, mults: tuple[int, ...]) -> str:
    return f"({d}; {', '.join(map(str, mults))})"


class PointConfig(Record, fields="kind n"):
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
        require_int(n, "point count")
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
    if len(a.mults) != len(b.mults):
        raise ValueError(f"rank mismatch: {len(a.mults)} vs {len(b.mults)}")
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


@lru_cache(maxsize=None)
def _curve_rows(config: PointConfig) -> tuple[tuple[int, int, tuple[int, ...], int, DivisorClass], ...]:
    """(deg C, sum C, mults C, -C.C, C) for each curve C of
    ``exceptional_classes``, in its order: a uniform class (d; a, ..., a)
    meets C in d*deg C - a*sum C, any other in d*deg C - sum(a_i * c_i)."""
    return tuple((c.d, sum(c.mults), c.mults, -intersect(c, c), c) for c in exceptional_classes(config))


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
    return _euler_h0(*f)


def _euler_h0(d: int, mults: tuple[int, ...]) -> int:
    """(f.f - f.K)/2 + 1 for a class f = (d; mults) already known to be nef."""
    # f.f - f.K = d^2 + 3d - sum(a^2 + a) with K = (-3; -1, ..., -1)
    # is even: d(d+3) = d(d+1) + 2d, and a(a+1) is even for every a
    chi2 = d * (d + 3) - sum(a * (a + 1) for a in mults)
    value = chi2 // 2 + 1
    if value < 0:
        raise ComputationGuardError(f"negative section count for nef class {_class_str(d, mults)}")
    return value


class EffectivityResult(Record, fields="effective h0 nef_remainder witness trace"):
    """Outcome of driving a class to a nef representative.

    When ``effective``, ``h0`` counts sections, ``nef_remainder`` is the nef
    class with the same count, and the input is ``nef_remainder`` plus k*c
    for each (c, k) in ``trace``, field by field.  Otherwise ``witness`` is
    the reduced class in its place, negative in degree, certifying emptiness.
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
    f.C by -C.C.  Every step preserves the section count, so h0 of the input
    is the Riemann-Roch count of the nef remainder.  The class is kept as
    ints (d, mults), paired through ``_curve_rows``; only the clamped curves
    of the trace and the result are built as classes.
    """
    _check_rank(f, config)
    rows = _curve_rows(config)
    d, mults, trace = f.d, f.mults, []
    # every iteration either clamps or lowers the degree, so this bound is generous
    budget = (max(d, 0) + 2) * (len(rows) + 2) + sum(-a for a in mults if a < 0) + 8
    while True:
        budget -= 1
        if budget < 0:
            raise ComputationGuardError(f"reduction of {f} failed to terminate")
        if min(mults) < 0:
            trace += [(DivisorClass.exceptional(i + 1, f.r), -a) for i, a in enumerate(mults) if a < 0]
            mults = tuple([max(a, 0) for a in mults])
        if d < 0:
            return EffectivityResult(False, 0, None, DivisorClass(d, mults), tuple(trace))
        if mults.count(mults[0]) == len(mults):
            a = mults[0]
            pairings = [d * cd - a * cs for cd, cs, _, _, _ in rows]
        else:
            pairings = [d * cd - sum(map(mul, mults, cm)) for cd, _, cm, _, _ in rows]
        worst_pairing = min(pairings)
        if worst_pairing >= 0:
            return EffectivityResult(True, _euler_h0(d, mults), DivisorClass(d, mults), None, tuple(trace))
        cd, _, cm, drop, worst = rows[pairings.index(worst_pairing)]
        k = (-worst_pairing + drop - 1) // drop
        d, mults = d - k * cd, tuple([a - k * c for a, c in zip(mults, cm)])
        trace.append((worst, k))


@lru_cache(maxsize=None)
def _orbits(config: PointConfig) -> tuple[tuple[int, int, int, int, int, int, int], ...]:
    """The rows of ``_curve_orbits`` as the orbit engine reads them.

    Each orbit is (degree, multiplicity sum on the n points, multiplicity
    off them) of one member C, then the same for the orbit sum S, whose
    multiplicity is the same at each of the n points, then -C.S, by which
    one subtraction of S raises the pairing with C.  An orbit has as many
    members as its multiplicities on the n points have distinct orderings:
    the multinomial n! / prod(c_v!) over the count c_v of each value v.
    """
    n = config.n
    orbits = []
    for d, on, off in _curve_orbits(config):
        size = factorial(n)
        for value in set(on):
            size //= factorial(on.count(value))
        a, b = sum(on), sum(off)
        sd, sa, sb = size * d, size * a // n, size * b
        orbits.append((d, a, b, sd, sa, sb, sa * a + sb * b - sd * d))
    return tuple(orbits)


@lru_cache(maxsize=None)
def nef_ratio(config: PointConfig) -> Rational:
    """Slope nu at which (t; m, ..., m) turns nef, as the Rational p/q: the
    class is nef exactly when q*t >= p*m.

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
    return Rational(p, q)


# how the greedy's trace ends: at a nef class, at a negative degree, or at an
# orbit whose sum does not raise the pairing, which leaves the class empty
_NEF, _NEGATIVE, _EMPTY = -1, -2, -3


def uniform_h0(config: PointConfig, m: int, t: int, trace: list | None = None) -> int:
    """Section count of (t; m, ..., m), peeling whole orbits of curves.

    The class stays uniform on the n permuted points, as (d, a on them, b
    off them), and meets all of an orbit alike.  If it meets the worst
    orbit negatively, the first such row on ties, the orbit sum S comes off
    ceil(-f.C / -C.S) times.  A fixed part has a negative-definite
    intersection matrix (Zariski), so C.S >= 0 means the class is empty.
    Two orbit peels sufficed on every value checked (the chambers of
    Bauer-Kuronya-Szemberg); eight is a guard.  The nef remainder's count
    is Riemann-Roch on (d, a, b) in closed form,
    (d(d+3) - n*a(a+1) - (r-n)*b(b+1))/2 + 1, with no class built.

    This greedy is the one per-degree decision procedure.  Handed a list as
    ``trace``, it appends its trace there for ``uniform_h0_window``: the
    index of each orbit it peels, how it stopped (_NEF, _NEGATIVE, or the
    index of the orbit it could not peel and _EMPTY), and the class d, a, b
    it stopped at.
    """
    orbits = _orbits(config)
    d, a, b = t, m, m
    for _ in range(8):
        if d < 0:
            if trace is not None:
                trace += (_NEGATIVE, d, a, b)
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
            if trace is not None:
                trace += (_NEF, d, a, b)
            return value
        _, _, _, sd, sa, sb, drop = worst
        if trace is not None:
            trace.append(orbits.index(worst))
        if drop <= 0:
            if trace is not None:
                trace += (_EMPTY, d, a, b)
            return 0
        k = (-worst_pairing + drop - 1) // drop
        d, a, b = d - k * sd, a - k * sa, b - k * sb
    raise ComputationGuardError(f"orbit reduction of ({t}; {m}, ...) on {config} failed to terminate")


@lru_cache(maxsize=None)
def _trace_period(config: PointConfig, trace: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(D, vd, va, vb) of a trace of ``uniform_h0``, its orbit indices and
    how it stopped: the period D, and the change of the class the greedy
    stops at when t rises by D along the trace.

    The class starts at (t; m, ..., m), of slope (1, 0, 0) in t.  A peel of
    an orbit takes its sum off k = ceil(-pairing / drop) times, so dk/dt is
    minus the pairing's slope over drop.  D is the least common multiple of
    those denominators, found with ints: the slope is kept as an int vector
    over D degrees, and D grows by what each peel's division needs.
    """
    orbits = _orbits(config)
    period, vd, va, vb = 1, 1, 0, 0
    for i in trace[:-2] if trace[-1] == _EMPTY else trace[:-1]:
        cd, ca, cb, sd, sa, sb, drop = orbits[i]
        slope = vd * cd - va * ca - vb * cb  # of the pairing, over `period` degrees
        scale = drop // gcd(slope, drop)
        period, vd, va, vb = period * scale, vd * scale, va * scale, vb * scale
        dk = -slope * scale // drop  # exact
        vd, va, vb = vd - dk * sd, va - dk * sa, vb - dk * sb
    return period, vd, va, vb


def uniform_h0_window(config: PointConfig, m: int, ts: range) -> Iterator[int]:
    """``uniform_h0(config, m, t)`` for each t of ts, a range of step 1 or
    -1, in order, running the greedy only at the two ends of residue
    families.

    The greedy's trace at t is the orbits it peels, the count k of each
    peel, and how it stops; ``_trace_period`` gives the trace's period D.
    When t moves by D along a trace, every k moves by an integer, and so
    does the class.  Each decision of the greedy along t, t + D, t + 2D, ...
    is then a sign test of an affine function of the step index j (d < 0; a
    pairing below the worst so far, ties to the first row; every pairing
    >= 0), or the ceiling of an affine function with an integer step, which
    moves by that step.  So the indices that share a trace form an interval:
    when the traces at both ends are equal, every index between has that
    trace too.  There the greedy stops at the affine class c + j*v, and H is
    0 for an empty stop, or else Riemann-Roch of c + j*v, a quadratic in j
    served by two additions per degree and still refused when negative.

    A family opens at the first degree no open family covers, with one
    greedy run there, or the run a failed probe left there.  Its far end is
    probed where the same trace's last family ended, or else at the last
    member in ts; the search gallops on from the last match (from the start
    when the far end failed), and bisects once a later probe fails.  The
    greedy at the far end certifies the family, and its class must be
    c + J*v.  A failed probe is kept for the family that opens at its
    degree, so every run is at a degree no other run visited: the greedy
    runs at most once per degree of ts.  When a family serves that degree
    instead, the probe's value must be the family's, and it is dropped
    there.  Only the open families, O(D) of them, and the failed
    probes ahead are held.  A window below _SHORT_WINDOW degrees runs the
    greedy at each degree.
    """
    if ts.step not in (1, -1):
        raise ValueError("a window runs in steps of 1 or -1")
    if len(ts) < _SHORT_WINDOW:
        return map(partial(uniform_h0, config, m), ts)
    return _family_values(config, m, ts)


# a family saves runs only from its third member on, and on shorter windows
# the families' bookkeeping measured slower than the greedy runs it saves
_SHORT_WINDOW = 32


def _family_values(config: PointConfig, m: int, ts: range) -> Iterator[int]:
    """``uniform_h0_window`` on a window of _SHORT_WINDOW degrees or more."""
    size, sign, n, rest = len(ts), ts.step, config.n, config.r - config.n
    # position in ts -> [H there, its next step, the step's step, members left, D]
    families: dict[int, list] = {}
    # position in ts -> [trace..., d, a, b, H] of a run there that no family took
    probes: dict[int, list] = {}
    ends: dict[tuple, int] = {}  # trace -> the degree where a family of it ended

    def run(q: int) -> list:
        found = probes.pop(q, None)
        if found is None:
            found = []
            value = uniform_h0(config, m, ts[q], found)
            found.append(value)
        return found

    for p, t in enumerate(ts):
        family = families.pop(p, None)
        if family is not None:
            value, step, second, left, period = family
            if value < 0:
                raise ComputationGuardError(
                    f"negative section count {value} served at degree {t} for {config}, m={m}")
            probe = probes.pop(p, None)  # failed for another trace; the greedy ran here
            if probe is not None and probe[-1] != value:
                raise ComputationGuardError(
                    f"the greedy gives {probe[-1]} at degree {t}, where its family serves {value}, "
                    f"for {config}, m={m}")
            if left > 1:
                family[0], family[1], family[3] = value + step, step + second, left - 1
                families[p + period] = family
            yield value
            continue
        found = run(p)
        trace, (d, a, b, value) = found[:-4], found[-4:]
        yield value
        key = tuple(trace)
        period, vd, va, vb = _trace_period(config, key)
        last = (size - 1 - p) // period
        if not last:
            continue
        # the last member sharing the trace: probed where this trace's last
        # family ended, or else at the far end; then galloping on from the
        # last match, and bisecting once a probe past the first has failed
        guess = ends.get(key)
        j = last if guess is None else min(max((guess - t) * sign // period, 1), last)
        inside, outside, stride, gallop, far = 0, last + 1, 1, True, None
        while outside - inside > 1:
            q = p + j * period
            probe = run(q)
            if probe[:-4] == trace:
                inside, far = j, probe
            else:
                outside = j
                probes[q] = probe
                gallop = gallop and guess is None and j == last  # a failed far end gallops from 0
            j = min(inside + stride, outside - 1) if gallop else (inside + outside) // 2
            stride *= 2
        if outside <= last:
            ends[key] = ts[p + inside * period]
        last = inside
        if not last:
            continue
        vd, va, vb = sign * vd, sign * va, sign * vb
        if far[-4:-1] != [d + last * vd, a + last * va, b + last * vb]:
            raise ComputationGuardError(
                f"the class at degree {ts[p + last * period]} is not affine along the trace "
                f"from degree {t} for {config}, m={m}")
        if trace[-1] == _NEF:
            # H(j) = chi2(c + j*v)/2 + 1, with chi2(d, a, b) = d(d+3) - n*a(a+1) - (r-n)*b(b+1)
            step = (vd * (2 * d + vd + 3) - n * va * (2 * a + va + 1) - rest * vb * (2 * b + vb + 1)) // 2
            second = vd * vd - n * va * va - rest * vb * vb
            families[p + period] = [value + step, step + second, second, last, period]
        else:
            families[p + period] = [0, 0, 0, last, period]


def h0(f: DivisorClass, config: PointConfig) -> int:
    """Dimension of the space of curves in the class f (0 when empty)."""
    return reduce_to_nef(f, config).h0


def _check_rank(f: DivisorClass, config: PointConfig) -> None:
    if f.r != config.r:
        raise ValueError(f"class has rank {f.r} but configuration has {config.r} points")
