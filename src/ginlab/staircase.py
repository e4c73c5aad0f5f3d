"""Reverse-lex generic initial ideal staircases.

After a generic change of coordinates the initial ideal of a uniform
fat-point ideal is Borel-fixed, hence generated in two variables, and in
each degree it is the top segment in the x-exponent.  The segment sizes are
the first differences of the Hilbert function, so the whole staircase can be
rebuilt degree by degree from Hilbert values alone.  For r >= 9 general
points the staircase has a closed form, which serves that kind directly.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations_with_replacement

from .errors import ComputationGuardError
from .hilbert import alpha, alpha_shgh, hilbert_fn, nef_threshold, shgh_hilbert
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
        if any(a <= b for a, b in zip(lambdas, lambdas[1:])):
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
        gens = [(self.alpha, 0)]
        for i in range(self.alpha - 1, -1, -1):
            gens.append((i, self.lambdas[i]))
        return tuple(gens)

    @property
    def min_generator_degree(self) -> int:
        return min(x + y for x, y in self.generators)

    @property
    def max_generator_degree(self) -> int:
        return max(x + y for x, y in self.generators)

    def contains(self, x: int, y: int) -> bool:
        """Monomial membership of x^x y^y."""
        if x < 0 or y < 0:
            return False
        if x >= self.alpha:
            return True
        return y >= self.lambdas[x]

    @property
    def conjectural(self) -> bool:
        return self.config.conjectural


def xy_count(config: PointConfig, m: int, t: int) -> int:
    """Number of degree-t monomials in the initial ideal: H(t) - H(t-1)."""
    value = hilbert_fn(config, m, t) - hilbert_fn(config, m, t - 1)
    if not 0 <= value <= t + 1:
        raise ComputationGuardError(
            f"first difference {value} outside [0, {t + 1}] at degree {t}; Hilbert engine bug")
    return value


@lru_cache(maxsize=None)
def gin_staircase(config: PointConfig, m: int) -> MonomialStaircase:
    """Staircase of the multiplicity-m ideal of ``config``.

    The shgh kind takes the closed form.  For the divisor kinds the staircase
    is rebuilt from Hilbert first differences: the degree-t piece of the
    ideal is the top xy_count(t) monomials in the x-exponent, so each degree
    pins down the columns newly reached.  The scan runs from the first
    nonzero degree until the segment saturates at t + 1 monomials, and
    checks that saturation persists for three more degrees before trusting
    the result.
    """
    if m < 1:
        raise ValueError("multiplicity must be positive")
    if config.kind == SHGH:
        return shgh_gin_closed_form(config.r, m)
    a = alpha(config, m)
    stop_guard = nef_threshold(config, m) + 2
    lambdas = [0] * a
    prev_lo = a + 1
    prev_k = 0
    t = a
    while True:
        if t > stop_guard:
            raise ComputationGuardError(
                f"segment never saturated by degree {stop_guard} for {config}, m={m}")
        k = xy_count(config, m, t)
        if k <= prev_k:
            # an ideal's segments must strictly grow once they are nonempty
            raise ComputationGuardError(
                f"segment size fell from {prev_k} to {k} at degree {t}; Hilbert engine bug")
        lo = t - k + 1
        for i in range(lo, prev_lo):
            if i < a:
                lambdas[i] = t - i
        prev_lo = lo
        prev_k = k
        if k == t + 1:
            full_at = t
            break
        t += 1
    for u in range(full_at + 1, full_at + 4):
        if xy_count(config, m, u) != u + 1:
            raise ComputationGuardError(
                f"segment saturation did not persist at degree {u} for {config}, m={m}")
    return MonomialStaircase(alpha=a, lambdas=tuple(lambdas), m=m, config=config)


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
    lambdas = [0] * a
    if eta == a + 1:
        for i in range(a):
            lambdas[i] = a - i
    else:
        for i in range(a - eta + 1, a):
            lambdas[i] = a - i
        for i in range(0, a - eta + 1):
            lambdas[i] = a + 1 - i
    return MonomialStaircase(alpha=a, lambdas=tuple(lambdas), m=m, config=PointConfig.shgh(r))


def colength(s: MonomialStaircase) -> int:
    """Monomials outside the ideal; must equal the scheme length r*m*(m+1)/2."""
    count = sum(s.lambdas)
    expected = s.config.r * s.m * (s.m + 1) // 2
    if count != expected:
        raise ComputationGuardError(
            f"colength {count} differs from scheme length {expected} for {s.config}, m={s.m}")
    return count


def graded_products_contained(small: MonomialStaircase, big: MonomialStaircase) -> bool:
    """Check ideal(m) * ideal(m) inside ideal(2m) on generator products.

    Generator products generate the product ideal, so checking them is
    enough; membership of larger monomials follows from the staircase shape.
    """
    if big.config != small.config or big.m != 2 * small.m:
        raise ValueError("expected staircases of the same configuration at m and 2m")
    return all(big.contains(x1 + x2, y1 + y2)
               for (x1, y1), (x2, y2) in combinations_with_replacement(small.generators, 2))
