"""shape_svg's outlines against the step outline built point by point, and
its peak memory against its document."""

from __future__ import annotations

import re
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from ginlab import PointConfig, shape_report
from ginlab.exporters import _PAD, _UNIT, _fmt, shape_svg
from oracles import heights


def staircase_outline(entry) -> list[tuple[float, float]]:
    """Step-function boundary of the scaled ideal region, left to right: two
    points per column, then down to (alpha/m, 0)."""
    m = entry.m
    points: list[tuple[float, float]] = []
    for x, y in enumerate(heights(entry)):  # column x spans x..x+1 at height y
        points.append((x / m, y / m))
        points.append(((x + 1) / m, y / m))
    points.append((entry.alpha / m, 0.0))
    return points


def expected_points(report) -> list[str]:
    """Each entry's polyline points, one f-string per outline point."""
    max_y = max(e.zeta / e.m for e in report.entries)
    if report.predicted is not None:
        max_y = max(max_y, float(report.predicted[1]))
    height = 2 * _PAD + _UNIT * max_y
    return [" ".join(f"{_fmt(_PAD + _UNIT * x)},{_fmt(height - _PAD - _UNIT * y)}"
                     for x, y in staircase_outline(e))
            for e in report.entries]


# alpha = 1; every kind at a few multiplicities; and shgh:9's outlines of
# 4200 and 8400 columns
CASES = [
    ("general:2", [1]),
    *((f"general:{r}", [1, 2, 7, 30]) for r in range(2, 9)),
    *((f"collinear:{l}", [1, 2, 7, 30]) for l in range(3, 9)),
    *((f"shgh:{r}", [1, 2, 7, 30]) for r in range(9, 17)),
    ("shgh:9", [1400, 2800]),
]


@pytest.mark.parametrize("spec,m_list", CASES, ids=[f"{c}-{','.join(map(str, ms))}" for c, ms in CASES])
def test_shape_svg_outlines_match_the_point_by_point_outline(spec, m_list):
    report = shape_report(PointConfig.parse(spec), m_list)
    svg = shape_svg(report)
    assert re.findall(r' points="([^"]*)"', svg) == expected_points(report)


def test_general_two_at_m_one_has_alpha_one():
    assert shape_report(PointConfig.general(2), [1]).entries[0].alpha == 1


def test_shape_svg_peak_memory_is_under_eight_documents():
    # each coordinate formatted once; one float pair per outline point and one
    # str per point took the peak to about twelve documents
    report = shape_report(PointConfig.shgh(16), [20000])
    tracemalloc.start()
    try:
        text = shape_svg(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(text)


# every kind, with m-lists of 1 to 20 entries, small and sweep-sized; and
# legends of more than one column: general:2's canvas holds 26 rows, shgh:16's 46
LABEL_CASES = [
    *((spec, list(range(step, step * (k + 1), step)))
      for spec in ("general:2", "general:5", "general:8", "collinear:3", "collinear:7", "shgh:9", "shgh:16")
      for k in (1, 2, 3, 6, 11, 20) for step in (1, 57)),
    *((spec, list(range(1, k + 1))) for spec in ("general:2", "shgh:16") for k in (27, 60, 200)),
]
# advance widths in em of the label glyphs in Helvetica, the SVG default sans-serif
GLYPH_EM = {"m": 0.833, "=": 0.584, **dict.fromkeys("0123456789", 0.556)}


def label_width(text) -> float:
    return float(text.get("font-size")) * sum(GLYPH_EM[c] for c in text.text)


@pytest.mark.parametrize("spec,m_list", LABEL_CASES, ids=[f"{c}-{len(ms)}x{ms[0]}" for c, ms in LABEL_CASES])
def test_shape_svg_labels_lie_inside_the_canvas_and_apart(spec, m_list):
    report = shape_report(PointConfig.parse(spec), m_list)
    root = ET.fromstring(shape_svg(report))
    width, height = float(root.get("width")), float(root.get("height"))
    assert root.get("viewBox") == f"0 0 {root.get('width')} {root.get('height')}"
    labels = [t for t in root if t.tag.endswith("}text")]
    # one label per entry, in entry order
    assert [t.text for t in labels] == [f"m={e.m}" for e in report.entries]
    for t in labels:
        assert float(t.get("font-size")) <= float(t.get("y")) <= height
        assert 0 <= float(t.get("x")) <= width
    # a column is a run of labels going down the canvas
    columns = [[labels[0]]]
    for above, t in zip(labels, labels[1:]):
        if float(t.get("y")) > float(above.get("y")):
            columns[-1].append(t)
        else:
            columns.append([t])
    for column in columns:
        # labels in one column share one x and anchor, and sit a font size apart
        assert len({(t.get("x"), t.get("text-anchor")) for t in column}) == 1
        assert all(float(b.get("y")) - float(a.get("y")) >= float(a.get("font-size"))
                   for a, b in zip(column, column[1:]))
    # right-anchored columns do not overlap: each one's widest label ends
    # right of the column before it
    assert all(t.get("text-anchor") == "end" for t in labels)
    for left, right in zip(columns, columns[1:]):
        assert float(right[0].get("x")) - max(map(label_width, right)) > float(left[0].get("x"))
