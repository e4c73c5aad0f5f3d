"""Reverse-lex generic initial ideal staircases.

After a generic change of coordinates the initial ideal of a uniform
fat-point ideal is Borel-fixed, hence generated in two variables, and in
each degree it is the top segment in the x-exponent.  The segment sizes are
the first differences of the Hilbert function, so the whole staircase can be
rebuilt from Hilbert values alone, walking down from the nef threshold.  For
r >= 9 general points the staircase has a closed form, which serves that
kind directly.  Both keep a staircase as its runs, one step -1 range of
column heights per generator degree, and never expand the profile.  Only
this module and `exporters`, whose writers read the runs in one pass each,
know that layout; no reader slices a staircase by column.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import chain

from .errors import ComputationGuardError
from .hilbert import alpha_shgh, hilbert_fn, nef_threshold, shgh_hilbert
from .lattice import SHGH, PointConfig, uniform_h0


class MonomialStaircase(namedtuple("MonomialStaircase", "alpha runs m config")):
    """Staircase of a Borel-fixed monomial ideal in x and y.

    Column i < alpha has height lambdas[i], the least e with x^i y^e in the
    ideal, and x^alpha is the lowest pure power of x.  Borel-fixedness forces
    the strictly decreasing profile lambdas[0] > lambdas[1] > ... >= 1.
    ``runs`` holds it from column 0 as step -1 ranges, one per maximal stretch
    falling by exactly 1, which is one generator degree: O(runs), not O(alpha).
    """

    __slots__ = ()

    def __new__(cls, alpha: int, runs: tuple[range, ...], m: int,
                config: PointConfig) -> "MonomialStaircase":
        if alpha < 1:
            raise ComputationGuardError("staircase needs a positive initial degree")
        if not all(isinstance(run, range) and run.step == -1 and run for run in runs):
            raise ComputationGuardError("each run must be a non-empty range of step -1")
        if sum(map(len, runs)) != alpha:
            raise ComputationGuardError("one column height per x-exponent below alpha")
        column = 0
        for left, right in zip(runs, runs[1:]):
            column += len(left)
            if right[0] >= left[-1] - 1:
                raise ComputationGuardError(
                    f"column heights must strictly decrease, by 2 or more between runs: column "
                    f"{column - 1} has height {left[-1]}, column {column} has height {right[0]}")
        if runs[-1][-1] < 1:
            raise ComputationGuardError("the column next to x^alpha must be positive")
        return tuple.__new__(cls, (alpha, runs, m, config))

    @property
    def zeta(self) -> int:
        """Largest generator degree; the pure y generator is y^zeta."""
        return self.runs[0][0]

    @property
    def lambdas(self) -> tuple[int, ...]:
        """Every column height, expanded: O(alpha), for oracles and library callers."""
        return tuple(chain.from_iterable(self.runs))

    @property
    def generators(self) -> tuple[tuple[int, int], ...]:
        """Minimal generators as (x, y) exponents, descending x-exponent."""
        return ((self.alpha, 0), *zip(range(self.alpha - 1, -1, -1), reversed(self.lambdas)))

    def contains(self, x: int, y: int) -> bool:
        """Monomial membership of x^x y^y, O(runs); columns from alpha on have height 0."""
        for run in self.runs:
            if 0 <= x < len(run):
                return y >= run[x]
            x -= len(run)
        return x >= 0 and y >= 0  # x is now x - alpha, negative if it was


def xy_count(config: PointConfig, m: int, t: int) -> int:
    """Number of degree-t monomials in the initial ideal: H(t) - H(t-1).

    ``verify`` reads every first difference through here, so this guard is
    where a difference outside [0, t+1] fails the suite.
    """
    value = hilbert_fn(config, m, t) - hilbert_fn(config, m, t - 1)
    if not 0 <= value <= t + 1:
        raise ComputationGuardError(f"first difference {value} outside [0, {t + 1}] at degree {t} "
                                    f"for {config}, m={m}; Hilbert engine bug")
    return value


@lru_cache(maxsize=None)
def gin_staircase(config: PointConfig, m: int) -> MonomialStaircase:
    """Staircase of the multiplicity-m ideal of ``config``.

    The shgh kind takes the closed form.  The divisor kinds walk down once
    from degree N + 1, N the nef threshold, where H is the Euler
    characteristic and the segment is full, reading each H(t) once straight
    from the divisor engine ``uniform_h0``, so ``hilbert_fn``'s cache keeps
    none of them.  The degree-t piece of the ideal is the top H(t) - H(t-1)
    monomials in the x-exponent, from column lo(t), so columns
    lo(t+1)..lo(t)-1 have height t + 1 - i.  The walk ends at
    H(alpha - 1) = 0, below which H vanishes.
    """
    if m < 1:
        raise ValueError("multiplicity must be positive")
    if config.kind == SHGH:
        return shgh_gin_closed_form(config.r, m)
    t = nef_threshold(config, m) + 1
    upper, lower = uniform_h0(config, m, t), uniform_h0(config, m, t - 1)
    if upper - lower != t + 1:
        raise ComputationGuardError(
            f"segment of {upper - lower} monomials at degree {t} is not the full {t + 1} "
            f"above the nef threshold for {config}, m={m}")
    runs: list[range] = []
    lo = 0  # lo(t + 1): columns 0..lo-1 have their heights
    while upper:
        t -= 1
        upper = lower
        lower = uniform_h0(config, m, t - 1) if upper else 0
        start = t + 1 - (upper - lower)
        # a first difference in [0, t + 1], and no segment left of the one above
        if not lo <= start <= t + 1:
            raise ComputationGuardError(
                f"segment at degree {t} starts at column {start}, outside [{lo}, {t + 1}] "
                f"for {config}, m={m}; Hilbert engine bug")
        if start > lo:  # the degree's generators, one run; consecutive degrees drop by >= 2
            runs.append(range(t + 1 - lo, t + 1 - start, -1))
        lo = start
    return MonomialStaircase(alpha=lo, runs=tuple(runs), m=m, config=config)


def shgh_gin_closed_form(r: int, m: int) -> MonomialStaircase:
    """Staircase for r >= 9 general points, straight from the closed form.

    With a = least positive degree and eta = value there, the generators sit
    in degree a only (eta = a + 1) or split between degrees a and a + 1:
    x^a, ..., x^(a-eta+1) y^(eta-1) and then x^(a-eta) y^(eta+1), ..., y^(a+1).
    """
    if m < 1:
        raise ValueError("multiplicity must be positive")
    a = alpha_shgh(r, m)
    eta = shgh_hilbert(r, m, a)
    if not 1 <= eta <= a + 1:
        raise ComputationGuardError(f"value {eta} at the initial degree is out of range")
    runs = tuple(run for run in (range(a + 1, eta, -1), range(eta - 1, 0, -1)) if run)
    return MonomialStaircase(alpha=a, runs=runs, m=m, config=PointConfig.shgh(r))


def colength(s: MonomialStaircase) -> int:
    """Monomials outside the ideal; must equal the scheme length r*m*(m+1)/2."""
    count = sum(len(run) * (run[0] + run[-1]) // 2 for run in s.runs)  # arithmetic series
    expected = s.config.r * s.m * (s.m + 1) // 2
    if count != expected:
        raise ComputationGuardError(
            f"colength {count} differs from scheme length {expected} for {s.config}, m={s.m}")
    return count
