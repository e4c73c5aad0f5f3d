"""Acceptance gate: ten criteria, one printed verdict line each.

Run ``python3 -m pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; without -s pytest shows them only for failing criteria.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ginlab import PointConfig, exceptional_classes, gin_staircase, hilbert_fn, verify
from ginlab.hilbert import alpha, nef_threshold
from ginlab.staircase import shgh_gin_closed_form
from oracles import (GENERAL_INTERCEPTS, generators, heights, membership, oracle_neg_one_classes,
                     scan_shgh_staircase)

F = Fraction

GENERAL_CONFIGS = tuple(PointConfig.general(r) for r in range(2, 9))
SHGH_CONFIGS = tuple(PointConfig.shgh(r) for r in range(9, 17))
COLLINEAR_CONFIGS = tuple(PointConfig.collinear_plus_one(l) for l in range(3, 6))
ALL_CONFIGS = GENERAL_CONFIGS + SHGH_CONFIGS + COLLINEAR_CONFIGS


def _verdict(number: int, description: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    return ok


def test_criterion_01_class_lists_match_oracle():
    expected_counts = {2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
    failures = []
    for r, count in expected_counts.items():
        oracle = oracle_neg_one_classes(r)
        listed = exceptional_classes(PointConfig.general(r))
        if len(oracle) != count:
            failures.append(f"r={r}: oracle finds {len(oracle)} classes, expected {count}")
        if set(listed) != oracle:
            failures.append(f"r={r}: template list disagrees with the oracle")
    ok = _verdict(1, "exceptional class lists for r=2..8 match the brute-force "
                     "oracle (counts 3, 6, 10, 16, 27, 56, 240)", not failures)
    assert ok, failures


def _landmark_failures(r: int, m: int, a: int, h_a: int, h_next: int, top: int) -> list:
    config = PointConfig.general(r)
    failures = []
    if alpha(config, m) != a:
        failures.append(f"alpha={alpha(config, m)}, expected {a}")
    if hilbert_fn(config, m, a) != h_a:
        failures.append(f"H({a})={hilbert_fn(config, m, a)}, expected {h_a}")
    if hilbert_fn(config, m, a + 1) != h_next:
        failures.append(f"H({a + 1})={hilbert_fn(config, m, a + 1)}, expected {h_next}")
    degrees = [x + y for x, y in generators(gin_staircase(config, m))]
    if max(degrees) != top:
        failures.append(f"top generator degree {max(degrees)}, expected {top}")
    return failures


def test_criterion_02_six_points():
    failures = _landmark_failures(6, 10, 24, 1, 21, 26)
    ok = _verdict(2, "r=6, m=10: alpha=24, H(24)=1, H(25)=21, top generator "
                     "degree 26", not failures)
    assert ok, failures


def test_criterion_03_seven_points():
    failures = _landmark_failures(7, 24, 63, 1, 45, 65)
    ok = _verdict(3, "r=7, m=24: alpha=63, H(63)=1, H(64)=45, top generator "
                     "degree 65", not failures)
    assert ok, failures


def test_criterion_04_eight_points():
    failures = _landmark_failures(8, 102, 288, 1, 171, 290)
    ok = _verdict(4, "r=8, m=102: alpha=288, H(288)=1, H(289)=171, top "
                     "generator degree 290", not failures)
    assert ok, failures


def test_criterion_05_colength_identity():
    failures = []
    for config in ALL_CONFIGS:
        r = config.r
        for m in range(1, 51):
            count = sum(heights(gin_staircase(config, m)))
            if count != r * m * (m + 1) // 2:
                failures.append(f"{config}, m={m}: colength {count} != {r * m * (m + 1) // 2}")
        # independent recount on a small sample: walk the grid below the top row
        for m in (1, 2, 3):
            s = gin_staircase(config, m)
            inside = membership(s)
            cells = sum(1 for x in range(s.alpha) for y in range(s.zeta) if not inside(x, y))
            if cells != r * m * (m + 1) // 2:
                failures.append(f"{config}, m={m}: grid recount {cells} disagrees")
    ok = _verdict(5, "staircase colength equals r*m*(m+1)/2 for general:2..8, "
                     "shgh:9..16 and collinear:3..5, every m <= 50", not failures)
    assert ok, failures


def _within_sqrt(value: F, radicand: int, tol: F) -> bool:
    lo, hi = value - tol, value + tol
    return (lo <= 0 or lo * lo <= radicand) and hi >= 0 and hi * hi >= radicand


def test_criterion_06_intercept_convergence():
    # the divisibility sequence of each r: every 10th m, and multiples of 24 and 102
    sequences = {**dict.fromkeys(range(2, 7), range(10, 101, 10)), 7: range(24, 241, 24),
                 8: range(102, 511, 102)}
    failures = []
    for r, (g1, g2) in GENERAL_INTERCEPTS.items():
        config = PointConfig.general(r)
        for m in sorted(set(sequences[r]) | set(range(1, 61))):
            s = gin_staircase(config, m)
            tol = F(3, m)
            if abs(F(s.alpha, m) - g1) > tol:
                failures.append(f"{config}, m={m}: alpha/m = {F(s.alpha, m)} vs {g1}")
            if abs(F(s.zeta, m) - g2) > tol:
                failures.append(f"{config}, m={m}: zeta/m = {F(s.zeta, m)} vs {g2}")
    for r in (9, 16):
        config = PointConfig.shgh(r)
        for m in range(10, 101, 10):
            s = gin_staircase(config, m)
            tol = F(3, m)
            if not _within_sqrt(F(s.alpha, m), r, tol):
                failures.append(f"{config}, m={m}: alpha/m = {F(s.alpha, m)} vs sqrt({r})")
            if not _within_sqrt(F(s.zeta, m), r, tol):
                failures.append(f"{config}, m={m}: zeta/m = {F(s.zeta, m)} vs sqrt({r})")
    ok = _verdict(6, "scaled intercepts sit within 3/m of the predicted pair "
                     "for general:2..8 at every m <= 60 and along the divisibility "
                     "sequences, and for shgh:9 and shgh:16 at m = 10..100", not failures)
    assert ok, failures


def test_criterion_07_engine_agreement_on_nef_range():
    failures = []
    for config in GENERAL_CONFIGS:
        r = config.r
        for m in range(1, 31):
            n = nef_threshold(config, m)
            for t in range(n, n + 21):
                expected = comb(t + 2, 2) - r * comb(m + 1, 2)
                if hilbert_fn(config, m, t) != expected:
                    failures.append(f"{config}, m={m}, t={t}")
    ok = _verdict(7, "lattice engine equals the naive count C(t+2,2)-r*C(m+1,2) "
                     "for r=2..8, m <= 30, t in [nef threshold, +20]", not failures)
    assert ok, failures


def test_criterion_08_closed_form_cross_check():
    failures = []
    for r in range(9, 13):
        for m in range(1, 51):
            if shgh_gin_closed_form(r, m) != scan_shgh_staircase(r, m):
                failures.append(f"r={r}, m={m}")
    ok = _verdict(8, "closed-form staircase equals the Hilbert-difference "
                     "reconstruction for r=9..12, m <= 50", not failures)
    assert ok, failures


def test_criterion_09_collinear_degrees_and_shape():
    failures = []
    for l in range(3, 9):
        config = PointConfig.collinear_plus_one(l)
        for m in range(1, 61):
            s = gin_staircase(config, m)
            degrees = [x + y for x, y in generators(s)]
            if min(degrees) != -(-(2 * l - 1) * m // l):
                failures.append(f"l={l}, m={m}: lowest degree {min(degrees)}")
            if max(degrees) != l * m:
                failures.append(f"l={l}, m={m}: highest degree {max(degrees)}")
            if F(sum(heights(s)), m * m) != F((l + 1) * (m + 1), 2 * m):
                failures.append(f"l={l}, m={m}: colength ratio off")
        if not F(2 * l - 1, 2) > F(l + 1, 2):
            failures.append(f"l={l}: single-segment area fails to exceed the limit area")
    ok = _verdict(9, "collinear:3..8 generator degrees are ceil((2l-1)m/l) and l*m "
                     "at every m <= 60, and a single-segment limit shape is excluded",
                  not failures)
    assert ok, failures


def test_criterion_10_graded_products():
    failures = []
    for config in ALL_CONFIGS:
        # verify's graded-system check at max m = 50 covers every m <= 25
        passed, detail = verify._check_graded_and_nested(config, 50)
        if not passed:
            failures.append(f"{config}: {detail}")
    ok = _verdict(10, "generator products of staircase(m) land in staircase(2m) "
                      "for every criterion-5 configuration, m <= 25", not failures)
    assert ok, failures
