"""Byte-reproducible serialization of staircases and shape reports.

Identical inputs must produce identical bytes, so every emitter walks its
data in a fixed order and formats numbers through a single code path.
Rationals are written as "num/den", reduced, by `rational_str`, except the
shape report's corners: `_corner_run` gcd-reduces those itself, so that they
render as "%d/%d" runs; file payloads end with one newline.
Every JSON document goes through `json_pieces`, the one hand-written emitter
of the two-space layout, with `json.dumps` and a two-space indent as the test
oracle.  `json_pieces` takes the C string encoder that `json.dumps` uses
from `_json`, so no process loads the json package.  The command line
writes the pieces as they come, so it never holds a whole document.  The
large int arrays, nearly all the bytes of a staircase, are named by the code
that builds the payload: `int_runs` for a sequence of ints or int pairs, and
`column_runs` and `corner_runs` for a staircase's generators and a shape
report's corners, without building the pairs or their rational strs.  One
chunker, `_batches`, cuts every array into runs of at most CHUNK ints, and
the staircase arrays, the `gin` text line and the SVG outlines read the
heights in one pass over the runs, forward from column 0 or backward from
x^alpha (`heights_down`), so no profile is expanded whole.  `render_runs`
formats each run by one "%d" template, only as the pieces are read, so no
str is made per number.  Other lists take the generic path.  The SVG,
`svg_pieces`, has CHUNK // 4 columns (CHUNK numbers) of an outline to a
piece.  `staircase_json`, `shape_json` and `shape_svg` join the pieces into
one str; no command calls them.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import chain, count, groupby, islice, repeat
from math import gcd
from operator import floordiv

from .shape import Rational, ShapeReport, SquareRootIntercept
from .staircase import MonomialStaircase, colength

CHUNK = 4096  # numbers per %d template or SVG piece, which bounds each run and piece


def rational_str(n: int, d: int) -> str:
    """n/d in lowest terms as "num/den", for d > 0; "2/1", not "2"."""
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


def intercept_str(value: Rational | SquareRootIntercept) -> str:
    if isinstance(value, SquareRootIntercept):
        return str(value)
    return rational_str(value.numerator, value.denominator)


def json_pieces(payload: dict) -> Iterator[str]:
    """The pieces of the one JSON layout: two-space indent, fields in
    insertion order.

    Joined, they are byte for byte json.dumps with a two-space indent for
    dicts with str keys, lists, tuples, str, int, bool and None; any other
    type is a TypeError.  The structure is rendered on the call, into a short
    list, so a TypeError is raised before any piece; each int array is
    rendered only as the pieces are read, one CHUNK run at a time.  The
    structure between two arrays comes as one piece.
    """
    from _json import encode_basestring_ascii  # loaded only for JSON output

    out: list = []
    _emit(payload, "\n", out, encode_basestring_ascii)
    return _pieces(out)


def _pieces(out: list) -> Iterator[str]:
    for kind, group in groupby(out, type):
        if kind is str:
            yield "".join(group)
        else:  # an array's render_runs
            yield from chain.from_iterable(group)


# an array of leaves (width 1) or of [x, y] leaf pairs (width 2), handed over as
# an iterator of flat int runs of <= CHUNK ints; the leaf template is "%d" for
# an int, or '"%d/%d"' for a rational str filled from two ints.  Only the
# payload builders make one, so the emitter never inspects a list's items.
_IntRuns = namedtuple("_IntRuns", "runs width leaf", defaults=("%d",))


def int_runs(values, width: int = 1):
    """A sequence of ints (width 1) or of int pairs (width 2) as a JSON array
    rendered in runs of CHUNK ints; an empty sequence is itself, "[]"."""
    if not values:
        return values
    ints = iter(values) if width == 1 else chain.from_iterable(values)
    return _IntRuns(_batches(ints, CHUNK), width)


def _batches(items: Iterator, size: int) -> Iterator[tuple]:
    """The items in tuples of size, the last one shorter, each made only when
    it is read; neither this nor render_runs holds one while the next is made."""
    return iter(lambda: tuple(islice(items, size)), ())


def _emit(o, nl: str, out: list[str], string) -> None:
    """Append o rendered with its nested lines indented by nl (newline + indent);
    string renders a str as a JSON string."""
    inner = nl + "  "
    if isinstance(o, str):
        out.append(string(o))
    elif o is None or isinstance(o, bool):
        out.append("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, _IntRuns):  # a tuple itself, so tested first
        leaf = o.leaf
        item = leaf if o.width == 1 else "[" + inner + "  " + leaf + "," + inner + "  " + leaf + inner + "]"
        out += (render_runs(o.runs, item, "," + inner, "[" + inner), nl + "]")
    elif isinstance(o, (list, tuple)):
        lead = "[" + inner
        for item in o:
            out.append(lead)
            _emit(item, inner, out, string)
            lead = "," + inner
        out.append(nl + "]" if o else "[]")
    elif isinstance(o, dict):
        lead = "{" + inner
        for key, value in o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(lead + string(key) + ": ")
            _emit(value, inner, out, string)
            lead = "," + inner
        out.append(nl + "}" if o else "{}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def render_runs(runs, item: str, sep: str, lead: str = "") -> Iterator[str]:
    """The items of the flat int runs joined by sep, each item the %d template
    `item` filled from the run's next ints: one str per run, which starts with
    lead for the first run and with sep for the others.  Each run is filled
    from its own template.  `map` calls fill only when the next str is read
    and holds neither the run nor its str after handing it on, where a
    generator expression would keep the last run while the next is built."""
    width = item.count("%d")

    def fill(start: str, run) -> str:
        return (start + sep.join([item] * (len(run) // width))) % tuple(run)

    return map(fill, chain([lead], repeat(sep)), runs)


def heights_down(s: MonomialStaircase) -> Iterator[int]:
    """The heights of columns alpha down to 0, the order of s.generators, in
    one backward pass over the runs: x^alpha's 0 first, then each run reversed."""
    return chain((0,), chain.from_iterable(map(reversed, reversed(s.runs))))


def column_runs(top: int, heights: Iterator[int]) -> Iterator[tuple[int, ...]]:
    """Flat (x, height) runs of at most CHUNK // 2 columns, CHUNK ints made for
    the run, x = top, top - 1, ... down the heights."""
    return map(_column_run, count(top, -(CHUNK // 2)), _batches(heights, CHUNK // 2))


def _column_run(top: int, ys: tuple[int, ...]) -> tuple[int, ...]:
    run = [0] * (2 * len(ys))
    run[::2] = range(top, top - len(ys), -1)
    run[1::2] = ys
    return tuple(run)


def generator_line(s: MonomialStaircase) -> Iterator[str]:
    """The generators, descending in x, as pieces of the `gin` text line:
    "x^%dy^%d" runs for the columns 2 <= x < alpha of height >= 2, between
    the monomials at the ends, rendered only as they are read.  Heights fall
    strictly to >= 1, so only column alpha - 1 can have height 1."""
    a, ys = s.alpha, heights_down(s)
    edge = 2 if a > 2 and s.runs[-1][-1] == 1 else 1
    yield " ".join([_monomial(x, y) for x, y in zip(range(a, a - edge, -1), ys)])
    middle = column_runs(a - edge, islice(ys, max(a - 1 - edge, 0)))
    yield from render_runs(middle, "x^%dy^%d", " ", " ")
    yield "".join([" " + _monomial(x, y) for x, y in zip(range(min(a, 2) - 1, -1, -1), ys)])


def _monomial(x: int, y: int) -> str:
    x_part = "" if x == 0 else "x" if x == 1 else f"x^{x}"
    y_part = "" if y == 0 else "y" if y == 1 else f"y^{y}"
    return x_part + y_part


def corner_runs(s: MonomialStaircase) -> Iterator[tuple[int, ...]]:
    """Flat runs of at most CHUNK // 4 corners (x/m, y/m), CHUNK ints made for
    the run, ascending in x from (0, zeta) to (alpha, 0), each corner as x/g,
    m/g, y/h, m/h with g = gcd(x, m) and h = gcd(y, m): the "%d/%d" fill of
    `rational_str`.  The heights are read from the runs in one pass, then
    the height 0 of x^alpha."""
    ys = _batches(chain(chain.from_iterable(s.runs), (0,)), CHUNK // 4)
    return map(_corner_run, count(0, CHUNK // 4), ys, repeat(s.m))


def _corner_run(lo: int, ys: tuple[int, ...], m: int) -> tuple[int, ...]:
    xs = range(lo, lo + len(ys))
    run = [0] * (4 * len(xs))
    for at, values in ((0, xs), (2, ys)):
        g = list(map(gcd, values, repeat(m)))
        run[at::4] = map(floordiv, values, g)
        # the denominators m/g are few, so each is made once
        run[at + 1::4] = map({d: m // d for d in set(g)}.__getitem__, g)
    return tuple(run)


def staircase_json(s: MonomialStaircase) -> str:
    return "".join(json_pieces(staircase_payload(s)))


def staircase_payload(s: MonomialStaircase) -> dict:
    """The JSON payload of a staircase, its arrays still unrendered."""
    return {
        "config": str(s.config),
        "m": s.m,
        "alpha": s.alpha,
        "lambdas": _IntRuns(_batches(chain.from_iterable(s.runs), CHUNK), 1),
        "generators": _IntRuns(column_runs(s.alpha, heights_down(s)), 2),
        "colength": colength(s),
        "conjectural": s.config.conjectural,
    }


def shape_json(report: ShapeReport) -> str:
    return "".join(json_pieces(shape_payload(report)))


def shape_payload(report: ShapeReport) -> dict:
    """The JSON payload of a shape report, the corner arrays still unrendered."""
    predicted = None
    if report.predicted is not None:
        predicted = [intercept_str(report.predicted[0]), intercept_str(report.predicted[1])]
    return {
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
                "corners": _IntRuns(corner_runs(e), 2, '"%d/%d"'),
            }
            for e in report.entries
        ],
    }


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


def shape_svg(report: ShapeReport) -> str:
    return "".join(svg_pieces(report))


def svg_pieces(report: ShapeReport) -> Iterator[str]:
    """Scaled staircases for every multiplicity plus the predicted segment,
    as pieces: each outline's points come CHUNK // 4 columns (CHUNK numbers)
    to a piece, formatted only as the pieces are read."""
    max_x = max(e.alpha / e.m for e in report.entries)
    max_y = max(e.zeta / e.m for e in report.entries)
    if report.predicted is not None:
        max_x = max(max_x, float(report.predicted[0]))
        max_y = max(max_y, float(report.predicted[1]))
    width = 2 * _PAD + _UNIT * max_x
    height = 2 * _PAD + _UNIT * max_y
    # a legend in the top right corner, which every outline leaves empty: one
    # 12-unit row per entry, in columns of height // 12 rows; each column past
    # the first widens the canvas by 8 units per character of the longest
    # label, and 8 more between columns
    rows = int(height // 12)
    pitch = 8 * (len(f"m={report.entries[-1].m}") + 1)
    legend_x = width - 4
    width += (len(report.entries) - 1) // rows * pitch

    def tx(x: float) -> float:
        return _PAD + _UNIT * x

    def ty(y: float) -> float:
        return height - _PAD - _UNIT * y

    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
           f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
           f'  <line x1="{_fmt(tx(0))}" y1="{_fmt(ty(0))}" x2="{_fmt(tx(max_x))}" '
           f'y2="{_fmt(ty(0))}" stroke="#999" stroke-width="1"/>\n'
           f'  <line x1="{_fmt(tx(0))}" y1="{_fmt(ty(0))}" x2="{_fmt(tx(0))}" '
           f'y2="{_fmt(ty(max_y))}" stroke="#999" stroke-width="1"/>\n')
    step = CHUNK // 4
    for idx, entry in enumerate(report.entries):
        color = _PALETTE[idx % len(_PALETTE)]
        yield f'  <polyline fill="none" stroke="{color}" stroke-width="1.5" points="'
        # the step outline, left to right: column x spans x..x+1 at height y,
        # then down to (alpha, 0); x / m is the same correctly rounded double
        # as float(Fraction(x, m)); each height is formatted once, and each x
        # once per piece, a piece's right end again as the next one's left end
        m = entry.m
        heights = (_fmt(ty(y / m)) for y in chain.from_iterable(entry.runs))
        for lo, ys in zip(count(0, step), _batches(heights, step)):
            xs = [_fmt(tx(x / m)) for x in range(lo, lo + len(ys) + 1)]
            yield (" " if lo else "") + " ".join(map("{0},{1} {2},{1}".format, xs, ys, xs[1:]))
        column, row = divmod(idx, rows)
        yield (f' {xs[-1]},{_fmt(ty(0.0))}"/>\n'
               f'  <text x="{_fmt(legend_x + column * pitch)}" y="{12 * (row + 1)}" '
               f'font-size="12" text-anchor="end" fill="{color}">m={entry.m}</text>\n')
    if report.predicted is not None:
        g1, g2 = report.predicted
        yield (f'  <line x1="{_fmt(tx(float(g1)))}" y1="{_fmt(ty(0))}" '
               f'x2="{_fmt(tx(0))}" y2="{_fmt(ty(float(g2)))}" '
               f'stroke="#000" stroke-width="1.5" stroke-dasharray="6 3"/>\n')
    yield "</svg>\n"


def hilbert_csv(rows: list[tuple[int, int]]) -> str:
    lines = ["t,hilbert"]
    for t, value in rows:
        lines.append(f"{t},{value}")
    return "\n".join(lines) + "\n"
