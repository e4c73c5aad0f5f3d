"""The window evaluator ``lattice.uniform_h0_window``: the greedy's value at
every degree of a window, in either direction, from runs at the ends of its
residue families only."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ginlab.lattice
from ginlab import PointConfig, cli, gin_staircase, hilbert_fn
from ginlab.errors import ComputationGuardError
from ginlab.hilbert import alpha, alpha_lower_bound, hilbert_values, nef_threshold, shgh_hilbert
from ginlab.lattice import _NEF, _SHORT_WINDOW, uniform_h0, uniform_h0_window
from oracles import heights, walk_heights

DIVISOR_SPECS = [f"general:{r}" for r in range(2, 9)] + [f"collinear:{l}" for l in range(3, 9)]


@pytest.fixture
def runs(monkeypatch) -> Counter:
    """Each degree the window's greedy runs at, with how often."""
    ran: Counter = Counter()

    def counted(config, m, t, trace=None):
        ran[t] += 1
        return uniform_h0(config, m, t, trace)

    monkeypatch.setattr(ginlab.lattice, "uniform_h0", counted)  # the binding the window reads
    return ran


def windows(config: PointConfig, m: int) -> list[range]:
    """Ranges across t < 0, alpha - 1 and the nef threshold, up and down."""
    top = nef_threshold(config, m) + 6
    low = alpha(config, m) - 3 if m else 0
    return [range(-5, top), range(top, -6, -1), range(low, top), range(top, low - 1, -1)]


@pytest.mark.parametrize("spec", DIVISOR_SPECS)
def test_every_degree_equals_the_greedy_and_runs_it_at_most_once(spec, runs):
    config = PointConfig.parse(spec)
    for m in (0, 1, 2, 3, 5, 8, 13, 21, 37, 60, 151):
        for ts in windows(config, m):
            runs.clear()
            got = list(uniform_h0_window(config, m, ts))
            assert set(runs) <= set(ts) and max(runs.values()) == 1, (m, ts)
            assert got == [uniform_h0(config, m, t) for t in ts], (m, ts)


@given(st.sampled_from(DIVISOR_SPECS), st.integers(0, 300), st.integers(-50, 2500),
       st.integers(1, 400), st.sampled_from([1, -1]))
@settings(max_examples=60, deadline=None)
def test_any_window_equals_the_greedy(spec, m, start, size, step):
    config = PointConfig.parse(spec)
    ts = range(start, start + step * size, step)
    assert list(uniform_h0_window(config, m, ts)) == [uniform_h0(config, m, t) for t in ts]


def test_a_short_window_runs_the_greedy_once_per_degree(runs):
    config = PointConfig.parse("collinear:8")
    ts = range(400, 400 + _SHORT_WINDOW - 1)
    assert list(uniform_h0_window(config, 40, ts)) == [uniform_h0(config, 40, t) for t in ts]
    assert runs == Counter(ts)


@pytest.mark.parametrize("spec", DIVISOR_SPECS)
def test_every_staircase_equals_the_oracle_walk(spec):
    config = PointConfig.parse(spec)
    for m in range(1, 61):
        assert heights(gin_staircase.__wrapped__(config, m)) == walk_heights(config, m), m


@pytest.mark.parametrize("spec,m", [("collinear:3", 1206), ("collinear:8", 451)])
def test_the_benchmark_staircases_equal_the_oracle_walk(spec, m):
    config = PointConfig.parse(spec)
    assert heights(gin_staircase.__wrapped__(config, m)) == walk_heights(config, m)


def test_a_long_walk_runs_the_greedy_at_a_fifth_of_its_degrees(runs):
    # gin collinear:8 --m 451: 3,103 degrees in the window the walk opens,
    # where the per-degree walk ran the greedy 2,765 times
    config = PointConfig.parse("collinear:8")
    window = range(nef_threshold(config, 451) + 1, alpha_lower_bound(config, 451) - 3, -1)
    gin_staircase.__wrapped__(config, 451)
    assert set(runs) <= set(window) and max(runs.values()) == 1
    assert sum(runs.values()) <= len(window) / 5


def test_a_long_walk_keeps_only_the_probes_ahead_of_it():
    # gin collinear:8 --m 451: up to 25 failed probes wait at once for the
    # family that opens at their degree; one that a family serves instead is
    # dropped there, where 16 were kept to the end of the window
    config = PointConfig.parse("collinear:8")
    window = range(nef_threshold(config, 451) + 1, alpha_lower_bound(config, 451) - 3, -1)
    values = uniform_h0_window(config, 451, window)
    kept = []
    for p, _ in enumerate(values):
        probes = values.gi_frame.f_locals["probes"]
        assert min(probes, default=p + 1) > p, p
        kept.append(len(probes))
    assert max(kept) <= 32 and kept[-1] == 0


def test_hilbert_values_take_one_engine_per_kind(runs):
    hilbert_fn.cache_clear()
    shgh = PointConfig.shgh(10)
    assert list(hilbert_values(shgh, 4, range(-2, 40))) == [shgh_hilbert(10, 4, t) for t in range(-2, 40)]
    assert not runs
    config = PointConfig.parse("collinear:5")
    assert list(hilbert_values(config, 20, range(0, 200))) == [uniform_h0(config, 20, t) for t in range(200)]
    assert hilbert_fn.cache_info().currsize == 0
    with pytest.raises(ValueError, match="multiplicity must be nonnegative"):
        hilbert_values(config, -1, range(3))


def test_the_hilbert_command_reads_no_cache(capsys):
    hilbert_fn.cache_clear()
    assert cli.main(["hilbert", "collinear:4", "--m", "30", "--t-range", "0..200", "--format", "csv"]) == 0
    config = PointConfig.parse("collinear:4")
    assert capsys.readouterr().out == "t,hilbert\n" + "".join(
        f"{t},{uniform_h0(config, 30, t)}\n" for t in range(201))
    assert hilbert_fn.cache_info().currsize == 0


def test_a_window_steps_by_one():
    with pytest.raises(ValueError, match="a window runs in steps of 1 or -1"):
        uniform_h0_window(PointConfig.general(6), 4, range(0, 40, 2))


# The family guards fire only on a broken greedy or period table, so each
# test hands the window one.
def test_a_negative_served_value_trips_the_guard(monkeypatch):
    # a "greedy" that calls every (t; 1, 1) on general:2 nef: its Euler
    # characteristic (t(t+3) - 4)/2 + 1 is positive at both ends of
    # -20..20 and negative at t = -3..0, which the family serves
    def nef_everywhere(config, m, t, trace=None):
        trace += (_NEF, t, 1, 1)
        return (t * (t + 3) - 4) // 2 + 1

    monkeypatch.setattr(ginlab.lattice, "uniform_h0", nef_everywhere)
    values = uniform_h0_window(PointConfig.general(2), 1, range(-20, 21))
    with pytest.raises(ComputationGuardError,
                       match=r"^negative section count -1 served at degree -3 for general:2, m=1$"):
        list(values)


def test_a_wrong_period_table_fails_the_far_end(monkeypatch):
    monkeypatch.setattr(ginlab.lattice, "_trace_period", lambda config, trace: (1, 1, 1, 0))
    with pytest.raises(ComputationGuardError, match=r"^the class at degree \d+ is not affine along the "
                                                    r"trace from degree \d+ for general:6, m=10$"):
        list(uniform_h0_window(PointConfig.general(6), 10, range(20, 60)))


def test_a_probe_the_family_serves_must_match_it(monkeypatch):
    # general:2 nef at (t; 1, 1), of trace A below t = 10 and B from there:
    # the walk from t = 0 keeps failed probes at 10, 11, 15 and 39, and the
    # family of B that opens at 10 serves 11, where this greedy is one off
    def two_traces(config, m, t, trace=None):
        trace += ("A" if t < 10 else "B", _NEF, t, 1, 1)
        return (t * (t + 3) - 4) // 2 + 1 + (t == 11)

    monkeypatch.setattr(ginlab.lattice, "uniform_h0", two_traces)
    monkeypatch.setattr(ginlab.lattice, "_trace_period", lambda config, trace: (1, 1, 0, 0))
    with pytest.raises(ComputationGuardError, match=r"^the greedy gives 77 at degree 11, where its family "
                                                    r"serves 76, for general:2, m=1$"):
        list(uniform_h0_window(PointConfig.general(2), 1, range(0, 40)))
