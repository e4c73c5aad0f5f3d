"""Reverse-lex generic initial ideal staircases.

After a generic change of coordinates the initial ideal of a uniform
fat-point ideal is Borel-fixed, hence generated in two variables, and in
each degree it is the top segment in the x-exponent.  The segment sizes are
the first differences of the Hilbert function, so the whole staircase can be
rebuilt from Hilbert values alone, walking down from the nef threshold.  For
r >= 9 general points the staircase has a closed form, which serves that
kind directly.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import islice
from operator import gt

from .errors import ComputationGuardError
from .hilbert import alpha_shgh, hilbert_fn, nef_threshold, shgh_hilbert
from .lattice import SHGH, PointConfig


class MonomialStaircase(namedtuple("MonomialStaircase", "alpha lambdas m config")):
    """Staircase of a Borel-fixed monomial ideal in x and y.

    ``lambdas[i]`` is the least e with x^i y^e in the ideal (i < alpha), and
    x^alpha is the lowest pure power of x.  Borel-fixedness forces the
    strictly decreasing profile lambdas[0] > lambdas[1] > ... >= 1.
    """

    __slots__ = ()

    def __new__(cls, alpha: int, lambdas: tuple[int, ...], m: int,
                config: PointConfig) -> "MonomialStaircase":
        if alpha < 1:
            raise ComputationGuardError("staircase needs a positive initial degree")
        if len(lambdas) != alpha:
            raise ComputationGuardError("one column height per x-exponent below alpha")
        if not all(map(gt, lambdas, islice(lambdas, 1, None))):
            raise ComputationGuardError(f"column heights must strictly decrease: {lambdas}")
        if lambdas[-1] < 1:
            raise ComputationGuardError("the column next to x^alpha must be positive")
        return tuple.__new__(cls, (alpha, lambdas, m, config))

    @property
    def zeta(self) -> int:
        """Largest generator degree; the pure y generator is y^zeta."""
        return self.lambdas[0]

    @property
    def generators(self) -> tuple[tuple[int, int], ...]:
        """Minimal generators as (x, y) exponents, descending x-exponent."""
        return ((self.alpha, 0), *zip(range(self.alpha - 1, -1, -1), reversed(self.lambdas)))

    def contains(self, x: int, y: int) -> bool:
        """Monomial membership of x^x y^y."""
        if x < 0 or y < 0:
            return False
        if x >= self.alpha:
            return True
        return y >= self.lambdas[x]


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
    characteristic and the segment is full, reading each H(t) once.  The
    degree-t piece of the ideal is the top H(t) - H(t-1) monomials in the
    x-exponent, from column lo(t), so columns lo(t+1)..lo(t)-1 have height
    t + 1 - i.  The walk ends at H(alpha - 1) = 0, below which H vanishes.
    """
    if m < 1:
        raise ValueError("multiplicity must be positive")
    if config.kind == SHGH:
        return shgh_gin_closed_form(config.r, m)
    t = nef_threshold(config, m) + 1
    upper, lower = hilbert_fn(config, m, t), hilbert_fn(config, m, t - 1)
    if upper - lower != t + 1:
        raise ComputationGuardError(
            f"segment of {upper - lower} monomials at degree {t} is not the full {t + 1} "
            f"above the nef threshold for {config}, m={m}")
    lambdas: list[int] = []
    lo = 0  # lo(t + 1): columns 0..lo-1 have their heights
    while upper:
        t -= 1
        upper = lower
        lower = hilbert_fn(config, m, t - 1) if upper else 0
        start = t + 1 - (upper - lower)
        # a first difference in [0, t + 1], and no segment left of the one above
        if not lo <= start <= t + 1:
            raise ComputationGuardError(
                f"segment at degree {t} starts at column {start}, outside [{lo}, {t + 1}] "
                f"for {config}, m={m}; Hilbert engine bug")
        lambdas += range(t + 1 - lo, t + 1 - start, -1)
        lo = start
    return MonomialStaircase(alpha=lo, lambdas=tuple(lambdas), m=m, config=config)


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
    lambdas = (*range(a + 1, eta, -1), *range(eta - 1, 0, -1))
    return MonomialStaircase(alpha=a, lambdas=lambdas, m=m, config=PointConfig.shgh(r))


def colength(s: MonomialStaircase) -> int:
    """Monomials outside the ideal; must equal the scheme length r*m*(m+1)/2."""
    count = sum(s.lambdas)
    expected = s.config.r * s.m * (s.m + 1) // 2
    if count != expected:
        raise ComputationGuardError(
            f"colength {count} differs from scheme length {expected} for {s.config}, m={s.m}")
    return count
