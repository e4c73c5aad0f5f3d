"""Hilbert functions of uniform fat-point ideals.

For up to 8 general points (and the collinear-plus-one arrangement) the value
in degree t is the section count of the class (t; m, ..., m) on the blow-up.
From 9 points on, the conjectural interpolation count takes over.  The nef
slope nu enters only through two integer ceilings on its lowest-terms pair
(p, q): the nef threshold ceil(nu*m) and alpha's lower bracket ceil(r*m/nu).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import comb, isqrt

from .errors import ComputationGuardError
from .lattice import SHGH, PointConfig, nef_ratio, uniform_h0

def shgh_hilbert(r: int, m: int, t: int) -> int:
    """Conjectural Hilbert function for r >= 9 general points.

    The naive count of interpolation conditions, clamped at zero; for 9 or
    more general uniform points no special linear systems are expected.
    Every value of this engine is conjectural.
    """
    if r < 9:
        raise ValueError("interpolation count is reserved for r >= 9; use the divisor engine")
    if m < 0:
        raise ValueError("multiplicity must be nonnegative")
    if t < 0:
        return 0
    return max(comb(t + 2, 2) - r * comb(m + 1, 2), 0)

def alpha_shgh(r: int, m: int) -> int:
    """Least degree with a positive conjectural Hilbert value.

    Computed as floor(-1/2 + sqrt(1/4 + r*m*(m+1))) using integer square
    roots only: the floor equals the largest j with (2j+1)^2 <= 4*r*m*(m+1)+1.
    """
    if r < 9:
        raise ValueError("interpolation count is reserved for r >= 9")
    if m < 0:
        raise ValueError("multiplicity must be nonnegative")
    return (isqrt(4 * r * m * (m + 1) + 1) - 1) // 2

def nef_threshold(config: PointConfig, m: int) -> int:
    """Smallest N making (t; m, ..., m) nef for every t >= N: ceil(nu*m)."""
    if m < 0:
        raise ValueError("multiplicity must be nonnegative")
    p, q = nef_ratio(config)
    return -(-m * p // q)

@lru_cache(maxsize=None)
def hilbert_fn(config: PointConfig, m: int, t: int) -> int:
    """Hilbert function of the multiplicity-m uniform fat-point ideal.

    Values for the shgh kind inherit the conjectural flag from the
    configuration; serialized reports carry it explicitly.
    """
    if m < 0:
        raise ValueError("multiplicity must be nonnegative")
    if config.kind == SHGH:
        return shgh_hilbert(config.r, m, t)
    return uniform_h0(config, m, t)

def alpha(config: PointConfig, m: int) -> int:
    """Least degree whose Hilbert value is positive.

    The shgh kind takes the closed form.  For the divisor kinds H(t) > 0
    forces H(t+1) > 0 (multiply by a linear form), so the degree is found by
    bisection between ceil(r*m/nu) and the nef threshold, both certified by
    the nef slope nu; no positive value by the threshold means the engine is
    broken and raises instead of returning a wrong answer.
    """
    if m < 1:
        raise ValueError("multiplicity must be positive")
    r = config.r
    if config.kind == SHGH:
        return alpha_shgh(r, m)
    # With nu = p/q the class (p; q, ..., q) is nef, so any effective
    # (t; m, ..., m) meets it nonnegatively: t >= r*m/nu.  At the threshold
    # the class is nef, and -K is effective on every divisor kind, so the
    # value there is its Euler characteristic, at least 1.
    p, q = nef_ratio(config)
    lo = -(-r * m * q // p)
    hi = nef_threshold(config, m)
    if lo > hi or hilbert_fn(config, m, hi) <= 0:
        raise ComputationGuardError(f"no positive Hilbert value up to degree {hi} for {config}, m={m}")
    return lo + bisect_left(range(lo, hi), True, key=lambda t: hilbert_fn(config, m, t) > 0)
