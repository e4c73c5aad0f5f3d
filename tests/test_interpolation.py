"""Hilbert values from the rank of interpolation conditions over F_p, a route
that shares no code with ginlab: shgh:9-16 at m <= 3, general:2-8 and
collinear:3-8 at m <= 4."""

from __future__ import annotations

import random
from math import comb

import pytest

from ginlab import PointConfig, hilbert_fn
from ginlab.hilbert import alpha_shgh, nef_threshold, shgh_hilbert
from ginlab.lattice import COLLINEAR

P = 2**61 - 1  # a Mersenne prime
SEEDS = (46, 47)


def random_points(r: int, rng: random.Random) -> list[tuple[int, int]]:
    return [(rng.randrange(P), rng.randrange(P)) for _ in range(r)]


def pivots_by_degree(points: list[tuple[int, int]], m: int, top: int) -> list[int]:
    """H(t) for t = 0..top at the given points of F_p^2 with multiplicity m,
    as C(t+2, 2) minus the rank of their conditions.

    A degree-t form with z = 1 is a polynomial of degree <= t in x and y, and
    it vanishes to order m at (a, b) when the coefficient of x^i y^j in
    f(x + a, y + b) is 0 for every i + j < m: sum over k >= i, l >= j of
    C(k, i) C(l, j) a^(k-i) b^(l-j) c_kl.  The columns x^k y^l are in degree
    order, so one elimination that takes pivots column by column gives every
    t: the rank in degree t is the number of pivots among the first
    C(t+2, 2) columns."""
    columns = [(k, d - k) for d in range(top + 1) for k in range(d, -1, -1)]
    rows = []
    for a, b in points:
        for i in range(m):
            for j in range(m - i):
                rows.append([comb(k, i) * comb(l, j) * pow(a, k - i, P) * pow(b, l - j, P) % P
                             if k >= i and l >= j else 0 for k, l in columns])
    pivot_columns = []
    for c in range(len(columns)):
        at = next((n for n, row in enumerate(rows) if row[c]), None)
        if at is None:
            continue
        pivot = rows.pop(at)
        inverse = pow(pivot[c], P - 2, P)
        for row in rows:
            if row[c]:
                factor = row[c] * inverse % P
                row[c:] = [(x - factor * y) % P for x, y in zip(row[c:], pivot[c:])]
        pivot_columns.append(c)
    return [comb(t + 2, 2) - sum(c < comb(t + 2, 2) for c in pivot_columns) for t in range(top + 1)]


@pytest.mark.parametrize("r", range(9, 17))
def test_shgh_values_equal_the_rank_over_f_p(r):
    """H(t) at m <= 3 for every t from 0 to alpha + 2 equals C(t+2, 2) minus
    the rank of the order-m conditions at r random points over F_p.

    The rank can only drop when the points are specialised and reduced mod p,
    so each value over F_p is at least the general one, which is at least the
    expected count max(C(t+2, 2) - r*C(m+1, 2), 0): agreement proves it.  An
    unlucky draw (Schwartz-Zippel) can only lower the rank, that is, raise a
    value, so a mismatch is drawn again with the second seed before it fails."""
    config = PointConfig.shgh(r)
    for m in range(1, 4):
        top = alpha_shgh(r, m) + 2
        expected = [shgh_hilbert(r, m, t) for t in range(top + 1)]
        assert expected == [hilbert_fn(config, m, t) for t in range(top + 1)]
        for seed in SEEDS:
            found = pivots_by_degree(random_points(r, random.Random(seed)), m, top)
            if found == expected:
                break
        assert found == expected, (r, m)


def divisor_points(config: PointConfig, rng: random.Random) -> list[tuple[int, int]]:
    """r random points of F_p^2 for a divisor kind: for collinear, the l
    points on y = 0 and one off that line."""
    if config.kind == COLLINEAR:
        return [(rng.randrange(P), 0) for _ in range(config.l)] + [
            (rng.randrange(P), rng.randrange(1, P))]
    return random_points(config.r, rng)


@pytest.mark.parametrize("spec", [*(f"general:{r}" for r in range(2, 9)),
                                  *(f"collinear:{l}" for l in range(3, 9))])
def test_divisor_values_equal_the_rank_over_f_p(spec):
    """H(t) at m <= 4 for every t from 0 to the nef threshold + 1 equals
    C(t+2, 2) minus the rank of the order-m conditions at random points over
    F_p, on collinear the only route that shares nothing with the curve table.

    On these kinds agreement bounds the engine's value from one side only:
    specialising the points and reducing mod p can only drop the rank, so the
    value over F_p is at least the one at general points of the kind, and
    agreement shows that the engine's value is not below it.  No certified
    lower bound is built beside it, so this is evidence, not a proof: a draw
    that is special (Schwartz-Zippel makes that unlikely) could match an engine
    that is too high.  A mismatch is drawn again with the second seed before it
    fails."""
    config = PointConfig.parse(spec)
    for m in range(1, 5):
        top = nef_threshold(config, m) + 1
        expected = [hilbert_fn(config, m, t) for t in range(top + 1)]
        for seed in SEEDS:
            found = pivots_by_degree(divisor_points(config, random.Random(seed)), m, top)
            if found == expected:
                break
        assert found == expected, (spec, m)


@pytest.mark.parametrize("r,t", [(2, 2), (5, 4)])
def test_the_rank_sees_a_special_system(r, t):
    # the doubled line through 2 double points and the doubled conic through
    # 5: one section where the expected count has none, as the engine says
    values = pivots_by_degree(random_points(r, random.Random(SEEDS[0])), 2, t)
    assert comb(t + 2, 2) - 3 * r <= 0 < values[t] == 1 == hilbert_fn(PointConfig.general(r), 2, t)
