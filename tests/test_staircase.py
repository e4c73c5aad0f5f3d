"""Staircase reconstruction from Hilbert data and its closed form."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ginlab.lattice
from ginlab import (MonomialStaircase, PointConfig, alpha, colength, gin_staircase,
                    hilbert_fn, shgh_gin_closed_form, verify, xy_count)
from ginlab.errors import ComputationGuardError
from ginlab.exporters import heights_down
from ginlab.lattice import SHGH, uniform_h0
from oracles import closed_form_heights, scan_shgh_staircase, staircase_of, walk_heights


# Oracle: count the complement by walking the grid, independently of the
# column-sum shortcut inside colength().
def grid_complement_count(s: MonomialStaircase) -> int:
    top = s.lambdas[0] if s.lambdas else 1
    return sum(1
               for x in range(0, s.alpha)
               for y in range(0, top)
               if not s.contains(x, y))


def test_xy_count_anchors():
    g6 = PointConfig.general(6)
    assert xy_count(g6, 10, 24) == 1
    assert xy_count(g6, 10, 25) == 20
    assert xy_count(g6, 10, 26) == 27
    assert xy_count(g6, 10, 5) == 0


def test_staircase_r6_m10_frozen():
    s = gin_staircase(PointConfig.general(6), 10)
    assert s.alpha == 24
    assert s.zeta == 26
    expected = tuple(26 - i for i in range(6)) + tuple(25 - i for i in range(6, 24))
    assert s.lambdas == expected
    assert len(s.generators) == s.alpha + 1
    assert colength(s) == 330
    assert not s.config.conjectural


def test_staircase_two_points_multiplicity_one():
    s = gin_staircase(PointConfig.general(2), 1)
    assert s.generators == ((1, 0), (0, 2))
    assert colength(s) == 2


def test_staircase_collinear_frozen():
    s = gin_staircase(PointConfig.collinear_plus_one(3), 6)
    assert s.alpha == 10
    assert s.zeta == 18
    assert s.lambdas == (18, 15, 12, 9, 8, 7, 6, 4, 3, 2)
    assert colength(s) == 84


def test_closed_form_two_degree_case():
    s = shgh_gin_closed_form(9, 1)
    assert s.generators == ((3, 0), (2, 2), (1, 3), (0, 4))
    assert s.config.conjectural
    s = shgh_gin_closed_form(9, 5)
    assert s.alpha == 15
    assert s.lambdas == tuple(16 - i for i in range(15))
    assert colength(s) == 135


def test_closed_form_single_degree_case():
    # r*m*(m+1) = alpha*(alpha+1) makes every generator sit in degree alpha
    s = shgh_gin_closed_form(15, 1)
    assert s.alpha == 5
    assert s.lambdas == (5, 4, 3, 2, 1)
    assert {x + y for x, y in s.generators} == {5}
    s = shgh_gin_closed_form(12, 2)
    assert s.alpha == 8
    assert s.lambdas == (8, 7, 6, 5, 4, 3, 2, 1)
    assert {x + y for x, y in s.generators} == {8}


@pytest.mark.parametrize("r", range(9, 17))
def test_closed_form_equals_reconstruction(r):
    for m in range(1, 13):
        assert shgh_gin_closed_form(r, m) == scan_shgh_staircase(r, m)


def test_shgh_staircase_and_alpha_skip_hilbert_fn():
    gin_staircase.cache_clear()
    hilbert_fn.cache_clear()
    for r in (9, 14):
        config = PointConfig.shgh(r)
        for m in (1, 7, 40):
            assert gin_staircase(config, m) == shgh_gin_closed_form(r, m)
            assert alpha(config, m) == gin_staircase(config, m).alpha
    assert hilbert_fn.cache_info().currsize == 0


def test_divisor_hilbert_skips_reduce_to_nef(monkeypatch):
    calls = []
    original = ginlab.lattice.reduce_to_nef

    def counted(f, config):
        calls.append(f)
        return original(f, config)

    monkeypatch.setattr(ginlab.lattice, "reduce_to_nef", counted)
    gin_staircase.cache_clear()
    hilbert_fn.cache_clear()
    gin_staircase(PointConfig.general(8), 102)
    hilbert_fn(PointConfig.collinear_plus_one(5), 20, 50)
    assert calls == []


@pytest.mark.parametrize("spec", ["general:2", "general:5", "general:8",
                                  "shgh:9", "collinear:3", "collinear:5"])
def test_colength_identity_and_grid_oracle(spec):
    config = PointConfig.parse(spec)
    for m in range(1, 11):
        s = gin_staircase(config, m)
        expected = config.r * m * (m + 1) // 2
        assert colength(s) == expected
        assert grid_complement_count(s) == expected


def test_generator_degrees_weakly_decrease_with_x():
    # Borel-fixedness in two variables: i + lambdas[i] is nonincreasing in i
    for spec, m in (("general:6", 10), ("general:7", 24), ("collinear:4", 12)):
        s = gin_staircase(PointConfig.parse(spec), m)
        degs = [x + y for x, y in s.generators]  # descending x order
        assert degs == sorted(degs)


@pytest.mark.parametrize("spec", [f"general:{r}" for r in range(2, 9)]
                         + [f"collinear:{l}" for l in range(3, 9)]
                         + [f"shgh:{r}" for r in range(9, 17)])
def test_generator_degrees_span_alpha_to_zeta(spec):
    # the strictly decreasing profile puts the least generator degree at
    # x^alpha and the largest at y^zeta
    config = PointConfig.parse(spec)
    for m in range(1, 41):
        s = gin_staircase(config, m)
        degrees = [x + y for x, y in s.generators]
        assert (min(degrees), max(degrees)) == (s.alpha, s.zeta), m


def test_contains_membership():
    s = gin_staircase(PointConfig.general(2), 1)  # generators x, y^2
    assert s.contains(1, 0)
    assert s.contains(5, 3)
    assert s.contains(0, 2)
    assert not s.contains(0, 1)
    assert not s.contains(0, 0)
    assert not s.contains(-1, 4)


def test_staircase_validation_rejects_bad_profiles():
    config = PointConfig.general(2)
    with pytest.raises(ComputationGuardError):
        staircase_of((2, 2), 1, config)
    with pytest.raises(ComputationGuardError):
        staircase_of((2, 0), 1, config)
    with pytest.raises(ComputationGuardError):
        MonomialStaircase(alpha=2, runs=(range(3, 2, -1),), m=1, config=config)


def test_gin_staircase_rejects_nonpositive_m():
    with pytest.raises(ValueError):
        gin_staircase(PointConfig.general(6), 0)


# The walk's guards fire only on a broken Hilbert engine, so each test feeds
# it doctored values at general:6, m=4: the nef threshold is 10, alpha = 10,
# and H(9), H(10), H(11) = 0, 6, 18, so the segment sizes are 6 at degree 10
# and t + 1 from degree 11 on.  The cached wrapper is bypassed so the walk
# really runs.
@pytest.mark.parametrize("doctor,message", [
    (lambda t, h: h - 1 if t == 11 else h,
     "segment of 11 monomials at degree 11 is not the full 12 above the nef threshold"
     " for general:6, m=4"),
    (lambda t, h: h + 7 if t == 9 else h,  # first difference -1 at degree 10
     "segment at degree 10 starts at column 12, outside [0, 11] for general:6, m=4;"
     " Hilbert engine bug"),
    (lambda t, h: 3 if t == 9 else h,  # segments of 3 at degrees 10 and 9
     "segment at degree 9 starts at column 7, outside [8, 10] for general:6, m=4;"
     " Hilbert engine bug"),
], ids=["not-full", "out-of-range", "out-of-order"])
def test_walk_guards_name_the_failure(monkeypatch, doctor, message):
    monkeypatch.setattr("ginlab.staircase.uniform_h0",
                        lambda config, m, t: doctor(t, uniform_h0(config, m, t)))
    with pytest.raises(ComputationGuardError) as excinfo:
        gin_staircase.__wrapped__(PointConfig.general(6), 4)
    assert str(excinfo.value) == message


DIVISOR_SPECS = [f"general:{r}" for r in range(2, 9)] + [f"collinear:{l}" for l in range(3, 9)]


@pytest.mark.parametrize("spec", DIVISOR_SPECS)
def test_walk_reads_each_hilbert_value_once(monkeypatch, spec):
    reads = []

    def counted(config, m, t):
        reads.append((config, m, t))
        return uniform_h0(config, m, t)

    monkeypatch.setattr("ginlab.staircase.uniform_h0", counted)  # the binding the walk reads
    config = PointConfig.parse(spec)
    for m in (1, 7, 40):
        gin_staircase.__wrapped__(config, m)
    assert reads
    assert [read for read, count in Counter(reads).items() if count > 1] == []


@pytest.mark.parametrize("spec", DIVISOR_SPECS)
def test_walk_alpha_matches_bisection(spec):
    config = PointConfig.parse(spec)
    for m in (*range(1, 61), 211, 997):
        assert gin_staircase(config, m).alpha == alpha(config, m), m


def test_staircase_cache_returns_same_object():
    a = gin_staircase(PointConfig.general(6), 10)
    b = gin_staircase(PointConfig.general(6), 10)
    assert a is b


@given(st.sampled_from(["general:3", "general:6", "shgh:9", "collinear:3"]),
       st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_graded_products_contained_property(spec, m):
    # verify's graded-system check at max m = 2m covers every m' <= m
    assert verify._check_graded_and_nested(PointConfig.parse(spec), 2 * m) == (
        True, f"products and scaled nesting hold for m <= {m}")


# Runs against the tuple-building walk and closed form the engine used before
# it kept runs: any kind, any r, m up to a few hundred.
CONFIGS = st.one_of(st.builds("general:{}".format, st.integers(2, 8)),
                    st.builds("collinear:{}".format, st.integers(3, 8)),
                    st.builds("shgh:{}".format, st.integers(9, 40)))


@given(CONFIGS, st.integers(1, 300), st.data())
@settings(max_examples=150, deadline=None)
def test_runs_expand_to_the_tuple_oracle(spec, m, data):
    config = PointConfig.parse(spec)
    s = gin_staircase(config, m)
    oracle = closed_form_heights(config.r, m) if config.kind == SHGH else walk_heights(config, m)
    heights = s.lambdas
    assert heights == oracle and s.alpha == len(oracle)
    # canonical: non-empty step -1 ranges, each the generators of one degree
    # i + lambdas[i], and the degrees strictly fall from run to run
    column, degrees = 0, []
    for run in s.runs:
        assert isinstance(run, range) and run.step == -1 and len(run) > 0
        (degree,) = {column + i + h for i, h in enumerate(run)}
        degrees.append(degree)
        column += len(run)
    assert degrees == sorted(set(degrees), reverse=True)
    assert set(degrees) == {i + h for i, h in enumerate(heights)}
    assert colength(s) == sum(heights)
    assert s.zeta == heights[0]
    assert s.generators == ((s.alpha, 0), *((i, heights[i]) for i in range(s.alpha - 1, -1, -1)))
    drawn = data.draw(st.lists(st.integers(0, s.alpha - 1), max_size=12))
    for x in {-1, 0, s.alpha - 1, s.alpha, s.alpha + 1, *drawn}:
        height = heights[x] if 0 <= x < s.alpha else 0
        for y in (-1, height - 1, height):
            assert s.contains(x, y) == (x >= 0 and y >= 0 and y >= height), (x, y)
    # the writers' backward pass, reversed, is the expansion and x^alpha's 0
    assert tuple(heights_down(s))[::-1] == (*heights, 0)
