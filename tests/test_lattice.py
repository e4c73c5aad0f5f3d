"""Divisor-class arithmetic, class enumeration and the nef reduction."""

from __future__ import annotations

import operator
from collections import Counter
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginlab import DivisorClass, PointConfig, exceptional_classes, hilbert_fn
from ginlab.errors import ComputationGuardError, UnsupportedConfigError
from ginlab.hilbert import alpha, nef_threshold
from ginlab.lattice import (_EXCEPTIONAL_TEMPLATES, _curve_orbits, _distinct_permutations, _orbits,
                            canonical_class, h0, intersect, is_nef, reduce_to_nef, riemann_roch_h0,
                            uniform_h0)
from oracles import combine, grouped_orbits, oracle_neg_one_classes, reference_reduce_to_nef


ORACLE_COUNTS = {2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


def test_intersect_basis_rules():
    line = DivisorClass(1, (0,) * 3)
    assert intersect(line, line) == 1
    e1 = DivisorClass.exceptional(1, 3)
    assert intersect(e1, e1) == -1
    assert intersect(line, e1) == 0
    assert intersect(DivisorClass(2, (1, 1, 1, 1, 1, 0)),
                     DivisorClass.uniform(24, 10, 6)) == -2
    assert intersect(DivisorClass(3, (2, 1, 1, 1, 1, 1, 1)), canonical_class(7)) == -1


def test_intersect_rank_mismatch():
    a, b = DivisorClass(1, (0,) * 3), DivisorClass(1, (0,) * 4)
    with pytest.raises(ValueError, match="^rank mismatch: 3 vs 4$"):
        intersect(a, b)


def test_canonical_class_square():
    k8 = canonical_class(8)
    assert k8 == DivisorClass(-3, (-1,) * 8)
    assert intersect(k8, k8) == 1
    assert intersect(canonical_class(6), canonical_class(6)) == 3


@given(st.integers(2, 8), st.data())
@settings(max_examples=40, deadline=None)
def test_intersect_symmetric_bilinear(r, data):
    ints = st.integers(-6, 6)
    mk = st.tuples(ints, st.tuples(*[ints] * r)).map(lambda p: DivisorClass(p[0], p[1]))
    a, b, c = data.draw(mk), data.draw(mk), data.draw(mk)
    assert intersect(a, b) == intersect(b, a)
    assert intersect(combine((1, a), (1, b)), c) == intersect(a, c) + intersect(b, c)
    assert intersect(a, b) == a.d * b.d - sum(x * y for x, y in zip(a.mults, b.mults))


@pytest.mark.parametrize("r", range(2, 9))
def test_exceptional_classes_match_oracle(r):
    listed = set(exceptional_classes(PointConfig.general(r)))
    expected = oracle_neg_one_classes(r)
    assert listed == expected
    assert len(listed) == ORACLE_COUNTS[r]


@pytest.mark.parametrize("r", range(2, 9))
def test_exceptional_classes_match_permutation_sets(r):
    # the construction the distinct-ordering enumeration replaced
    classes = set()
    for d, support in _EXCEPTIONAL_TEMPLATES:
        if len(support) <= r:
            for mults in set(permutations(support + (0,) * (r - len(support)))):
                classes.add(DivisorClass(d, mults))
    expected = tuple(sorted(classes, key=lambda c: (c.d, c.mults)))
    assert exceptional_classes(PointConfig.general(r)) == expected


def test_exceptional_classes_sorted_and_cached():
    config = PointConfig.general(6)
    first = exceptional_classes(config)
    assert first is exceptional_classes(PointConfig.general(6))
    assert list(first) == sorted(first, key=lambda c: (c.d, c.mults))


def test_exceptional_classes_r2_explicit():
    listed = set(exceptional_classes(PointConfig.general(2)))
    assert listed == {DivisorClass(0, (-1, 0)), DivisorClass(0, (0, -1)),
                      DivisorClass(1, (1, 1))}


def test_exceptional_classes_shgh_rejected():
    with pytest.raises(UnsupportedConfigError):
        exceptional_classes(PointConfig.shgh(9))


ORBIT_CONFIGS = [*(f"general:{r}" for r in range(2, 9)), *(f"collinear:{l}" for l in range(3, 13))]


@pytest.mark.parametrize("spec", ORBIT_CONFIGS)
def test_orbit_rows_match_the_grouped_class_list(spec):
    config = PointConfig.parse(spec)
    assert _orbits(config) == grouped_orbits(config)


@pytest.mark.parametrize("spec", [*(f"general:{r}" for r in range(2, 9)),
                                  *(f"collinear:{l}" for l in range(3, 9))])
def test_orbit_sizes_are_the_enumeration_counts(spec):
    # _orbits counts each orbit by the multinomial; the orbit sum S = size * C
    # shows the size in its degree and multiplicities
    config = PointConfig.parse(spec)
    for (d, on, off), row in zip(_curve_orbits(config), _orbits(config), strict=True):
        size = sum(1 for _ in _distinct_permutations(on))
        assert row[3:6] == (size * d, size * sum(on) // config.n, size * sum(off)), (d, on, off)


@pytest.mark.parametrize("spec", ORBIT_CONFIGS)
def test_class_list_is_the_orbit_table_expanded(spec):
    config = PointConfig.parse(spec)
    # an orbit's size is the number of distinct orderings of its first n multiplicities
    sizes = [factorial(config.n) // prod(map(factorial, Counter(on).values()))
             for _, on, _ in _curve_orbits(config)]
    expected = ORACLE_COUNTS[config.r] if config.kind == "general" else 2 * config.l + 2
    assert len(exceptional_classes(config)) == sum(sizes) == expected


def test_collinear_class_list():
    config = PointConfig.collinear_plus_one(3)
    listed = set(exceptional_classes(config))
    expected = {DivisorClass.exceptional(i, 4) for i in range(1, 5)}
    expected.add(DivisorClass(1, (1, 1, 1, 0)))
    expected |= {DivisorClass(1, (1, 0, 0, 1)), DivisorClass(1, (0, 1, 0, 1)),
                 DivisorClass(1, (0, 0, 1, 1))}
    assert listed == expected
    line = DivisorClass(1, (1, 1, 1, 0))
    assert intersect(line, line) == -2


def test_is_nef_examples():
    g6 = PointConfig.general(6)
    assert is_nef(DivisorClass(5, (2,) * 6), g6)
    assert not is_nef(DivisorClass.uniform(24, 10, 6), g6)
    assert is_nef(DivisorClass(1, (0,) * 4), PointConfig.general(4))
    assert not is_nef(DivisorClass(3, (1, 1, -1, 1)), PointConfig.general(4))


def test_riemann_roch_values():
    g6 = PointConfig.general(6)
    assert riemann_roch_h0(DivisorClass(0, (0,) * 6), g6) == 1
    assert riemann_roch_h0(DivisorClass.uniform(25, 10, 6), g6) == 21
    with pytest.raises(ValueError):
        riemann_roch_h0(DivisorClass.uniform(24, 10, 6), g6)


@pytest.mark.parametrize("r,t,m", [(2, 5, 2), (4, 9, 3), (6, 25, 10), (8, 17, 6)])
def test_riemann_roch_matches_binomials_on_nef_uniform(r, t, m):
    from math import comb
    config = PointConfig.general(r)
    f = DivisorClass.uniform(t, m, r)
    assert is_nef(f, config)
    assert riemann_roch_h0(f, config) == comb(t + 2, 2) - r * comb(m + 1, 2)


def test_reduce_full_cycles_r6():
    config = PointConfig.general(6)
    f = DivisorClass.uniform(24, 10, 6)
    res = reduce_to_nef(f, config)
    assert res.effective
    assert res.h0 == 1
    assert res.nef_remainder == DivisorClass(0, (0,) * 6)
    assert sum(k for _, k in res.trace) == 12
    # two full cycles: each of the six quintic-support conic classes twice
    per_class: dict[DivisorClass, int] = {}
    for c, k in res.trace:
        per_class[c] = per_class.get(c, 0) + k
    assert set(per_class) == {c for c in exceptional_classes(config) if c.d == 2}
    assert all(k == 2 for k in per_class.values())


def test_reduce_full_cycles_r7():
    config = PointConfig.general(7)
    res = reduce_to_nef(DivisorClass.uniform(63, 24, 7), config)
    assert res.effective and res.h0 == 1
    assert res.nef_remainder == DivisorClass(0, (0,) * 7)
    per_class: dict[DivisorClass, int] = {}
    for c, k in res.trace:
        per_class[c] = per_class.get(c, 0) + k
    assert set(per_class) == {c for c in exceptional_classes(config) if c.d == 3}
    assert all(k == 3 for k in per_class.values())


def test_reduce_not_effective_witness():
    config = PointConfig.general(6)
    res = reduce_to_nef(DivisorClass.uniform(23, 10, 6), config)
    assert not res.effective
    assert res.h0 == 0
    assert res.nef_remainder is None
    assert res.witness is not None and res.witness.d < 0


def test_reduce_clamps_negative_multiplicities():
    config = PointConfig.general(3)
    f = DivisorClass(4, (-2, 1, 1))
    res = reduce_to_nef(f, config)
    # clamping subtracts the exceptional curve over point 1 twice
    assert (DivisorClass.exceptional(1, 3), 2) in res.trace
    assert res.h0 == h0(DivisorClass(4, (0, 1, 1)), config)


def _trace_sum(res, reduced):
    """reduced + sum(k * c for c, k in res.trace)."""
    return combine((1, reduced), *((k, c) for c, k in res.trace))


CLASS_LIST_CONFIGS = st.one_of(st.builds(PointConfig.general, st.integers(2, 8)),
                               st.builds(PointConfig.collinear_plus_one, st.integers(3, 8)))


@given(CLASS_LIST_CONFIGS, st.data())
@settings(max_examples=60, deadline=None)
def test_reduce_conserves_the_class(config, data):
    d = data.draw(st.integers(-3, 24))
    mults = data.draw(st.tuples(*[st.integers(-3, 9)] * config.r))
    res = reduce_to_nef(DivisorClass(d, mults), config)
    if res.effective:
        assert _trace_sum(res, res.nef_remainder) == DivisorClass(d, mults)
        assert is_nef(res.nef_remainder, config)
        assert res.h0 == riemann_roch_h0(res.nef_remainder, config)
    else:
        assert _trace_sum(res, res.witness) == DivisorClass(d, mults)
        assert res.witness.d < 0


@given(st.integers(2, 8), st.data())
@settings(max_examples=40, deadline=None)
def test_h0_permutation_invariant(r, data):
    config = PointConfig.general(r)
    d = data.draw(st.integers(0, 20))
    mults = data.draw(st.lists(st.integers(-2, 8), min_size=r, max_size=r))
    shuffled = data.draw(st.permutations(mults))
    assert h0(DivisorClass(d, tuple(mults)), config) == \
        h0(DivisorClass(d, tuple(shuffled)), config)


# reduce_to_nef pairs ints through its table of curve rows, a uniform class
# from (deg C, sum C) and any other from mults C; the reference pairs every
# class with every curve through intersect, so the result, trace included,
# must not depend on the route.  Degrees reach 70, past the nef threshold
# + 1 = 65 that verify's orbit-engine row reads on collinear:8 at m = 8.
@given(CLASS_LIST_CONFIGS, st.data())
@settings(max_examples=200, deadline=None)
def test_reduce_to_nef_matches_the_full_intersect_loop(config, data):
    d = data.draw(st.integers(-4, 70), label="d")
    if data.draw(st.booleans(), label="uniform"):
        mults = (data.draw(st.integers(-4, 14), label="a"),) * config.r
    else:
        mults = data.draw(st.tuples(*[st.integers(-4, 14)] * config.r), label="mults")
    f = DivisorClass(d, mults)
    assert reduce_to_nef(f, config) == reference_reduce_to_nef(f, config)


@pytest.mark.parametrize("spec", [f"general:{r}" for r in range(2, 9)] +
                         [f"collinear:{l}" for l in range(3, 9)])
def test_reduce_to_nef_builds_classes_only_for_clamps_and_the_result(spec, monkeypatch):
    # the loop peels ints; the peeled curves in the trace are the cached list's own
    config = PointConfig.parse(spec)
    curves = exceptional_classes(config)
    r = config.r
    inputs = [DivisorClass.uniform(t, m, r) for m in (1, 3, 8) for t in range(3 * m + 3)]
    inputs += [DivisorClass(d, tuple((3 * i) % 7 - 2 for i in range(r))) for d in (-1, 4, 9)]
    built = []
    new = DivisorClass.__new__

    def recording(cls, d, mults):
        c = new(cls, d, mults)
        built.append(c)
        return c

    monkeypatch.setattr(DivisorClass, "__new__", recording)
    peeled = 0
    for f in inputs:
        built.clear()
        res = reduce_to_nef(f, config)
        clamps = [c for c, _ in res.trace if not any(c is curve for curve in curves)]
        assert all(c.d == 0 and sorted(c.mults)[:2] == [-1, 0] for c in clamps), f
        expected = [*clamps, res.nef_remainder if res.effective else res.witness]
        assert len(built) == len(expected) and all(map(operator.is_, built, expected)), f
        peeled += len(res.trace) - len(clamps)
    assert peeled > 0


# The curve-by-curve reduction is the oracle for the orbit engine behind
# hilbert_fn: the two share only the curve list and Riemann-Roch.
@given(CLASS_LIST_CONFIGS, st.data())
@settings(max_examples=200, deadline=None)
def test_reduce_matches_reference(config, data):
    t = data.draw(st.integers(-3, 60), label="t")
    m = data.draw(st.integers(0, 25), label="m")
    assert hilbert_fn(config, m, t) == reduce_to_nef(DivisorClass.uniform(t, m, config.r), config).h0


# The orbit engine's guards fire only on a corrupt orbit table, so each case
# doctors one.  Rows are (cd, ca, cb, sd, sa, sb, -C.S).
@pytest.mark.parametrize("rows,message", [
    # a curve every class meets nonnegatively, so (0; 5, ...) passes as nef
    ([(1, 0, 0, 1, 0, 0, -1)], "negative section count for nef class (0; 5, 5, 5, 5)"),
    # two orbits that hand the multiplicity back and forth
    ([(0, 1, 0, 0, 1, -1, 1), (0, 0, 1, 0, -1, 1, 1)],
     "orbit reduction of (0; 5, ...) on collinear:3 failed to terminate"),
])
def test_orbit_engine_guards_name_the_class(monkeypatch, rows, message):
    monkeypatch.setattr("ginlab.lattice._orbits", lambda config: rows)
    with pytest.raises(ComputationGuardError) as excinfo:
        uniform_h0(PointConfig.collinear_plus_one(3), 5, 0)
    assert str(excinfo.value) == message


def _sparse_band(lo: int, hi: int) -> list[int]:
    # both ends of the band in full, every 31st degree between them
    return sorted({*range(lo, lo + 4), *range(lo, hi + 1, 31), *range(hi - 3, hi + 1)})


@pytest.mark.parametrize("spec", [f"general:{r}" for r in range(2, 9)] +
                         [f"collinear:{l}" for l in range(3, 9)])
def test_reduce_matches_reference_on_uniform_band(spec):
    # every degree from below alpha to past the nef threshold, as gin_staircase asks
    config = PointConfig.parse(spec)
    cases = [(m, t) for m in (1, 2, 5, 12) for t in range(0, 4 * m + 4)]
    if config.kind == "collinear" or config.r >= 6:
        # bench-sized multiplicities, from alpha-2 to the nef threshold+2
        cases += [(m, t) for m in (300, 1001, 2500)
                  for t in _sparse_band(alpha(config, m) - 2, nef_threshold(config, m) + 2)]
    for m, t in cases:
        f = DivisorClass.uniform(t, m, config.r)
        assert hilbert_fn(config, m, t) == reduce_to_nef(f, config).h0, (m, t)


def test_h0_anchors():
    assert h0(DivisorClass.uniform(24, 10, 6), PointConfig.general(6)) == 1
    assert h0(DivisorClass.uniform(288, 102, 8), PointConfig.general(8)) == 1
    assert h0(DivisorClass.uniform(23, 10, 6), PointConfig.general(6)) == 0


def test_h0_monotone_in_degree():
    config = PointConfig.general(7)
    values = [h0(DivisorClass.uniform(t, 5, 7), config) for t in range(0, 20)]
    assert values == sorted(values)


def test_divisor_class_str_and_arith():
    c = DivisorClass(2, (1, 0))
    assert str(c) == "(2; 1, 0)"
    # a class is a tuple, but it neither adds, subtracts, concatenates nor repeats
    for op in (lambda: c + c, lambda: (0,) + c, lambda: c * 2, lambda: 2 * c,
               lambda: c - c, lambda: sum([c, c])):
        with pytest.raises(TypeError):
            op()


def test_point_config_parse_and_validation():
    assert PointConfig.parse("general:6") == PointConfig.general(6)
    assert PointConfig.parse("shgh:11") == PointConfig.shgh(11)
    assert PointConfig.parse("collinear:4") == PointConfig.collinear_plus_one(4)
    assert PointConfig.parse("collinear:4").r == 5
    assert str(PointConfig.general(6)) == "general:6"
    for bad in ("general:1", "general:9", "shgh:8", "collinear:2", "foo:3", "general"):
        with pytest.raises(ValueError):
            PointConfig.parse(bad)


# blanks around the kind and the number are dropped, as around --t-range's ends
@pytest.mark.parametrize("spec", [" general:6", "general :6", "general: 6", "general:6 "])
def test_point_config_parse_strips_both_sides(spec):
    assert PointConfig.parse(spec) == PointConfig.general(6)


def test_provenance_flags():
    assert PointConfig.general(6).provenance == "proven"
    assert PointConfig.shgh(9).provenance == "conjectural"
    assert PointConfig.collinear_plus_one(3).provenance == "empirical"
    assert PointConfig.shgh(9).conjectural
    assert not PointConfig.general(6).conjectural
