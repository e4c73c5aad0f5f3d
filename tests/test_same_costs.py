"""tests/same_costs.py's diff arithmetic, on canned records."""

from __future__ import annotations

import math

import pytest

import same_costs
from same_costs import PEAK_NOISE, PEAK_RISE, SHOWN_DEFS, differences, relative, report, unnamed_rises


def record(peak: int, **calls: int) -> dict:
    return {"peak": peak, "calls": {name.replace("__", "."): count for name, count in calls.items()}}


def test_relative_change_of_counts():
    assert relative(200, 50) == -0.75
    assert relative(0, 3) == math.inf and relative(3, 0) == -1.0 and relative(0, 0) == 0.0


def test_equal_records_and_peak_noise_do_not_differ():
    theirs = {"gin a": record(1000, lattice__uniform_h0=40), "gin b": record(1000)}
    ours = {"gin a": record(1000, lattice__uniform_h0=40),
            "gin b": record(int(1000 * (1 + PEAK_NOISE)))}
    assert differences(theirs, ours) == []


def test_moved_counts_new_and_gone_defs_and_the_peak():
    theirs = {"gin a": record(1000, lattice__uniform_h0=1611, lattice__PointConfig__r=1611,
                               staircase__gin_staircase=1)}
    ours = {"gin a": record(1100, lattice__uniform_h0=47, lattice__run=54,
                             staircase__gin_staircase=1)}
    (row,) = differences(theirs, ours)
    assert row["argv"] == "gin a" and row["peak"] == (1000, 1100)
    # the largest move first; a def one tree enters alone moves from or to 0
    assert row["calls"] == [("lattice.PointConfig.r", 1611, 0), ("lattice.uniform_h0", 1611, 47),
                            ("lattice.run", 0, 54)]
    # the largest finite relative change: PointConfig.r's -100 %, not run's new count
    assert row["change"] == -1.0


def test_rows_sort_by_their_largest_change_and_skip_one_sided_argv():
    theirs = {"a": record(100, f=10), "b": record(100, f=10), "c": record(100), "only": record(1)}
    ours = {"a": record(100, f=11), "b": record(100, f=2), "c": record(150), "new": record(1)}
    assert [(row["argv"], row["change"]) for row in differences(theirs, ours)] == [
        ("b", -0.8), ("c", 0.5), ("a", pytest.approx(0.1))]


def test_report_lines():
    many = {f"m__f{i}": i + 1 for i in range(SHOWN_DEFS + 2)}
    theirs = {"gin a": record(2000, **many), "hilbert b": record(1000, g=4)}
    ours = {"gin a": record(2000), "hilbert b": record(1000, g=4, h=1)}
    lines = report(differences(theirs, ours), 5, "REV")
    assert lines[0] == "gin a: peak 2000 -> 2000 B (+0.0%)"
    assert lines[1] == f"  m.f{SHOWN_DEFS + 1}: {SHOWN_DEFS + 2} -> 0 calls (-100.0%)"
    assert lines[SHOWN_DEFS + 1] == "  ... and 2 more defs"
    assert lines[SHOWN_DEFS + 2:SHOWN_DEFS + 4] == ["hilbert b: peak 1000 -> 1000 B (+0.0%)",
                                                    "  h: 0 -> 1 calls (new)"]
    assert lines[-1].startswith("2 of 5 argv differ in calls or peak from REV (Python ")


# a peak past PEAK_NOISE + PEAK_RISE fails unless the CHANGES.md lines the
# change adds name its argv in backticks; a fall, or a rise within the share,
# never fails
def checked_records() -> tuple[dict, dict]:
    limit = 1 + PEAK_NOISE + PEAK_RISE
    theirs = {"gin a": record(10_000), "gin b": record(10_000), "gin c": record(10_000),
              "gin d": record(10_000)}
    ours = {"gin a": record(int(10_000 * limit) + 100), "gin b": record(int(10_000 * limit) - 100),
            "gin c": record(2_000), "gin d": record(30_000, f=1)}
    return theirs, ours


def test_unnamed_rises_are_the_large_rises_changes_does_not_name():
    rows = differences(*checked_records())
    assert unnamed_rises(rows, "") == ["gin d", "gin a"]
    assert unnamed_rises(rows, "- `gin d` keeps its table; gin a is not in backticks") == ["gin a"]
    assert unnamed_rises(rows, "`gin a` and `gin d`") == []


@pytest.mark.parametrize("added,flags,code", [
    ("", [], 1), ("`gin a`", [], 1), ("`gin a`, `gin d`", [], 0), ("", ["--json"], 2),
])
def test_check_exit_codes(monkeypatch, capsys, added, flags, code):
    monkeypatch.setattr(same_costs, "records", lambda rev: checked_records())
    monkeypatch.setattr(same_costs, "added_changes", lambda rev: added)
    assert same_costs.main(["REV", *flags]) == code
    out = capsys.readouterr().out.splitlines()
    if code == 1:
        assert out[-1].endswith(" argv whose peak rises by more than 6% are not named in CHANGES.md")
        assert "gin d: peak rises by more than 6%, not named in CHANGES.md" in out
        assert ("gin a: peak rises by more than 6%, not named in CHANGES.md" in out) is (added == "")
