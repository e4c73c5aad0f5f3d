"""Byte-reproducible serialization of staircases and shape reports.

Identical inputs must produce identical bytes, so every emitter walks its
data in a fixed order and formats numbers through a single code path.
Rationals are written as "num/den" by `rational_str`, the one rational
formatter; file payloads end with one newline.
Every JSON document goes through `json_text`, the one hand-written emitter
of the two-space layout; `json.dumps` with a two-space indent is its test
oracle.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from math import gcd

from .shape import Intercept, ShapeReport, SquareRootIntercept
from .staircase import MonomialStaircase, colength


def rational_str(n: int, d: int) -> str:
    """n/d in lowest terms as "num/den", for d > 0; "2/1", not "2"."""
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


def intercept_str(value: Intercept) -> str:
    if isinstance(value, SquareRootIntercept):
        return str(value)
    return rational_str(value.numerator, value.denominator)


def json_text(payload: dict) -> str:
    """The one JSON layout: two-space indent, fields in insertion order.

    The same bytes as json.dumps with a two-space indent for dicts with str
    keys, lists, tuples, str, int, bool and None; any other type is a
    TypeError.
    """
    return _value(payload, "\n")


def _value(o, nl: str) -> str:
    """o rendered with its nested lines indented by nl (newline + indent)."""
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join(_items(o, inner)) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        fields = []
        for key, value in o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            fields.append(_string(key) + ": " + _value(value, inner))
        return "{" + inner + ("," + inner).join(fields) + nl + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _items(seq, nl: str):
    """The rendered items of a non-empty list at indent nl.

    Flat int lists and lists of int or str pairs, which hold nearly all the
    bytes of a staircase or shape report, skip the per-item dispatch.
    """
    kinds = set(map(type, seq))
    if kinds == {int}:
        return map(int.__repr__, seq)
    if kinds <= {list, tuple} and set(map(len, seq)) == {2}:
        leaf = set(map(type, chain.from_iterable(seq)))
        inner = nl + "  "
        if leaf == {int}:
            pair = "[" + inner + "%d," + inner + "%d" + nl + "]"
            return map(pair.__mod__, seq if kinds == {tuple} else map(tuple, seq))
        if leaf == {str}:
            pair = "[" + inner + "%s," + inner + "%s" + nl + "]"
            return [pair % (_string(a), _string(b)) for a, b in seq]
    return [_value(item, nl) for item in seq]


def staircase_json(s: MonomialStaircase) -> str:
    return json_text({
        "config": str(s.config),
        "m": s.m,
        "alpha": s.alpha,
        "lambdas": s.lambdas,
        "generators": s.generators,
        "colength": colength(s),
        "conjectural": s.config.conjectural,
    })


def shape_json(report: ShapeReport) -> str:
    predicted = None
    if report.predicted is not None:
        predicted = [intercept_str(report.predicted[0]), intercept_str(report.predicted[1])]
    return json_text({
        "config": str(report.config),
        "predicted_intercepts": predicted,
        "seshadri_estimate": intercept_str(report.seshadri_estimate),
        "conjectural": report.config.conjectural,
        "entries": [
            {
                "m": e.m,
                "alpha": e.alpha,
                "zeta": e.zeta,
                "colength": (length := colength(e)),
                "x_intercept": rational_str(e.alpha, e.m),
                "y_intercept": rational_str(e.zeta, e.m),
                "colength_over_m2": rational_str(length, e.m * e.m),
                # generator exponents over m, ascending in x: (0, zeta/m) .. (alpha/m, 0)
                "corners": [[rational_str(x, e.m), rational_str(y, e.m)]
                            for x, y in reversed(e.generators)],
            }
            for e in report.entries
        ],
    })


def shape_csv(report: ShapeReport) -> str:
    lines = ["m,alpha,zeta,x_intercept,y_intercept,colength"]
    for e in report.entries:
        lines.append(",".join([
            str(e.m),
            str(e.alpha),
            str(e.zeta),
            rational_str(e.alpha, e.m),
            rational_str(e.zeta, e.m),
            str(colength(e)),
        ]))
    return "\n".join(lines) + "\n"


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")
_UNIT = 120.0  # SVG units per unit of scaled exponent
_PAD = 40.0  # margin around the plot, in SVG units


def _fmt(value: float) -> str:
    return f"{value:.4f}".rstrip("0").rstrip(".")


def _staircase_outline(entry: MonomialStaircase) -> list[tuple[float, float]]:
    """Step-function boundary of the scaled ideal region, left to right.

    Exponents are divided by m as ints: x / m is the same correctly rounded
    double as float(Fraction(x, m)).
    """
    m = entry.m
    corners = entry.generators[::-1]  # ascending x, starts (0, zeta), ends (alpha, 0)
    points: list[tuple[float, float]] = []
    for (x0, y0), (x1, _) in zip(corners, corners[1:]):
        points.append((x0 / m, y0 / m))
        points.append((x1 / m, y0 / m))
    points.append((corners[-1][0] / m, corners[-1][1] / m))
    return points


def shape_svg(report: ShapeReport) -> str:
    """Scaled staircases for every multiplicity plus the predicted segment."""
    max_x = max(e.alpha / e.m for e in report.entries)
    max_y = max(e.zeta / e.m for e in report.entries)
    if report.predicted is not None:
        max_x = max(max_x, float(report.predicted[0]))
        max_y = max(max_y, float(report.predicted[1]))
    width = 2 * _PAD + _UNIT * max_x
    height = 2 * _PAD + _UNIT * max_y

    def tx(x: float) -> float:
        return _PAD + _UNIT * x

    def ty(y: float) -> float:
        return height - _PAD - _UNIT * y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'  <line x1="{_fmt(tx(0))}" y1="{_fmt(ty(0))}" x2="{_fmt(tx(max_x))}" '
        f'y2="{_fmt(ty(0))}" stroke="#999" stroke-width="1"/>',
        f'  <line x1="{_fmt(tx(0))}" y1="{_fmt(ty(0))}" x2="{_fmt(tx(0))}" '
        f'y2="{_fmt(ty(max_y))}" stroke="#999" stroke-width="1"/>',
    ]
    for idx, entry in enumerate(report.entries):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in _staircase_outline(entry))
        parts.append(f'  <polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        parts.append(f'  <text x="{_fmt(tx(0) + 4)}" y="{_fmt(ty(entry.zeta / entry.m) - 4 - 12 * idx)}" '
                     f'font-size="12" fill="{color}">m={entry.m}</text>')
    if report.predicted is not None:
        g1, g2 = report.predicted
        parts.append(f'  <line x1="{_fmt(tx(float(g1)))}" y1="{_fmt(ty(0))}" '
                     f'x2="{_fmt(tx(0))}" y2="{_fmt(ty(float(g2)))}" '
                     f'stroke="#000" stroke-width="1.5" stroke-dasharray="6 3"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def hilbert_csv(rows: list[tuple[int, int]]) -> str:
    lines = ["t,hilbert"]
    for t, value in rows:
        lines.append(f"{t},{value}")
    return "\n".join(lines) + "\n"
