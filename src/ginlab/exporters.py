"""The layout of every document the command line writes, in every format.

Each command hands its result to one renderer, `classes_pieces`,
`hilbert_pieces`, `gin_pieces`, `shape_pieces` or `verify_pieces`, which
returns the document as pieces.  Identical inputs must produce identical
bytes, so every emitter walks its data in a fixed order and formats each
fact through a single code path: `head_line` the `gin` and `hilbert` head
line, `_shape_rows` the `shape` rows in text, CSV and JSON, and `rational_str` and
`intercept_str` a rational as "num/den", reduced by `shape.Rational`, except
the shape report's corners, which `_corner_run` gcd-reduces a run at a time,
so that they render as "%d/%d" runs; file payloads end with one newline.
Every JSON document goes through `json_pieces`, the one hand-written emitter
of the two-space layout, with `json.dumps` and a two-space indent as the test
oracle.  `json_pieces` takes the C string encoder that `json.dumps` uses
from `_json`, so no process loads the json package.  The command line
writes the pieces as they come, so it never holds a whole document.  The
large int arrays, nearly all the bytes of a staircase, are named by the code
that builds the payload as `_IntRuns`, each with its renderer.  A
staircase's three arrays, its lambdas, its generators and the middle of the
`gin` text line, go as segments straight from the runs, which `_stretches`
hands over a run at a time: a run of at least BREAK_EVEN columns as a range,
and the ints of consecutive shorter runs, every run of a collinear staircase
among them, in tuples of at most CHUNK ints; the generators and the text
line pair them with their x-exponents, backward from x^alpha
(`column_ranges`, the text line through `_window`).  `render_ranges` is
their one writer: a range comes in blocks of at most 1000 columns that share
the part above their last three digits, and of at most CHUNK numbers, each
joined from that part and slices of two 1000-entry tables, `_suffixes`, and
a tuple through a template of `render_runs`.  The other int arrays are flat
runs cut by the one chunker, `_batches`: a shape report's corners
(`corner_runs`, without building the pairs or their rational strs) and
`hilbert`'s (t, H) values.  `render_runs` formats each run by one "%d"
template, only as the pieces are read, so no str is made per number;
`hilbert_pieces` writes every `hilbert` document, text and CSV rows
included, through it.  Other lists take the generic path.  The SVG,
`svg_pieces`, has CHUNK // 4 columns (CHUNK numbers) of an outline to a
piece.  So every streamed writer has one piece budget: a template run, a
range block, a corner run or an outline piece holds at most CHUNK numbers.
`staircase_json`, `shape_json`, `shape_svg` and `hilbert_csv` join the
pieces into one str; no command calls them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import chain, count, groupby, islice, repeat
from math import gcd
from operator import floordiv, getitem

from .lattice import PointConfig, Rational, Record, canonical_class, intersect
from .shape import ShapeReport, SquareRootIntercept
from .staircase import MonomialStaircase, colength

# numbers per template run, range block, corner run or SVG piece: the one
# budget of every streamed piece.  1024 measured lower peaks than 2048 and
# 4096, whose pieces set the peak RSS of the larger `shape` documents
CHUNK = 1024
# the length, in columns, from which a run renders faster from the suffix
# tables than through a %d template (measured)
BREAK_EVEN = 40


def rational_str(n: int, d: int) -> str:
    """n/d in lowest terms as "num/den", for d > 0; "2/1", not "2"."""
    return "%d/%d" % Rational(n, d)


def intercept_str(value: Rational | SquareRootIntercept) -> str:
    return str(value) if isinstance(value, SquareRootIntercept) else "%d/%d" % value


def head_line(config: PointConfig, m: int) -> str:
    """The first line of the `gin` and `hilbert` text documents."""
    return f"# {config}, m={m}" + (" (conjectural)" if config.conjectural else "")


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
        else:  # an array's render_runs or render_ranges
            yield from chain.from_iterable(group)


# an array of leaves (width 1) or of [x, y] leaf pairs (width 2), handed over as
# runs that `render` writes: an iterator of flat int runs of <= CHUNK ints for
# render_runs, or of range segments for render_ranges; the leaf template is
# "%d" for an int, or '"%d/%d"' for a rational str filled from two ints.  Only
# the payload builders make one, so the emitter never inspects a list's items.
class _IntRuns(Record, fields="runs width leaf render"):
    __slots__ = ()


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
        out += (o.render(o.runs, item, "," + inner, "[" + inner), nl + "]")
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


def render_runs(runs, item: str, sep: str, lead: str) -> Iterator[str]:
    """The items of the flat int runs, tuples, joined by sep, each item the %d
    template `item` filled from the run's next ints: one str per run, which
    starts with lead for the first run and with sep for the others.  Each run
    fills its own template as it comes.  `map` calls fill only when the next
    str is read and holds neither the run nor its str after handing it on,
    where a generator expression would keep the last run while the next is
    built.  render_ranges hands it the arrays' segments with an int tuple."""
    width = item.count("%d")

    def fill(start: str, run: tuple[int, ...]) -> str:
        return (start + sep.join([item] * (len(run) // width))) % run

    return map(fill, chain([lead], repeat(sep)), runs)


def render_ranges(segments, item: str, sep: str, lead: str) -> Iterator[str]:
    """render_runs' text for the ints of segments, tuples of equal-length
    columns, ranges of step 1 or -1 over ints >= 0 or int tuples, as
    `_stretches` hands them over, whose k-th fills the k-th %d of `item`.  A
    segment of ranges is cut into blocks in which every number of one range
    has the same part above its last three digits, so a block of at most
    1000 items is one "".join of those parts and slices of the `_suffixes`
    tables: no number is formatted.  A segment with an int tuple, at most
    CHUNK ints, is one run for render_runs.  One str per block or run."""
    texts = item.split("%d")
    tail = texts[-1]

    def fill(start: str, block: list[range]) -> str:
        heads, lows = [], []  # per range: the text before its numbers' last three digits, and those
        for text, numbers in zip(texts, block):
            high, low = divmod(numbers[0], 1000)
            stop = low + len(numbers) * numbers.step
            heads.append(text + str(high) if high else text)
            lows.append((padded if high else plain)[low:stop if stop >= 0 else None:numbers.step])
        first, heads[0] = start + heads[0], tail + sep + heads[0]
        if len(lows) == 1:  # one join: under half the time of the interleaved list below
            return first + heads[0].join(lows[0]) + tail
        joined = [*chain.from_iterable(zip(heads, repeat(None)))] * len(block[0])
        for k, column in enumerate(lows, 1):
            joined[2 * k - 1::2 * len(lows)] = column
        joined[0] = first
        return "".join(joined) + tail

    for ranges, group in groupby(segments, lambda segment: tuple not in map(type, segment)):
        if ranges:
            plain, padded = _suffixes()
            yield from map(fill, chain([lead], repeat(sep)), _blocks(group))
        else:
            yield from render_runs(map(_interleaved, group), item, sep, lead)
        lead = sep


def _interleaved(segment: tuple[Sequence[int], ...]) -> tuple[int, ...]:
    """The ints of a segment, column by column; a one-column segment's int tuple as it is."""
    if len(segment) == 1:
        return segment[0]
    run = [0] * (len(segment) * len(segment[0]))
    for k, column in enumerate(segment):
        run[k::len(segment)] = column
    return tuple(run)


def _stretches(runs, size: int) -> Iterator[range | tuple[int, ...]]:
    """The runs' columns, in order, as render_ranges writes them fastest: each
    run of at least BREAK_EVEN columns as it is, for the tables, and the ints
    of consecutive shorter runs in tuples of at most size, for templates,
    since a range per short run costs more to build than its ints do."""
    for long, group in groupby(runs, lambda run: len(run) >= BREAK_EVEN):
        yield from group if long else _batches(chain.from_iterable(group), size)


def _blocks(segments) -> Iterator[list[range]]:
    """Each segment cut where one of its ranges crosses a multiple of 1000,
    and after every CHUNK // len(segment) columns, so a block holds at most
    CHUNK numbers."""
    for segment in segments:
        i, n, most = 0, len(segment[0]), CHUNK // len(segment)
        while i < n:
            # the numbers left before each range's part above the last three digits changes
            k = min(n - i, most, *[r[i] % 1000 + 1 if r.step < 0 else 1000 - r[i] % 1000
                                   for r in segment])
            yield [r[i:i + k] for r in segment]
            i += k


@lru_cache(maxsize=None)
def _suffixes() -> tuple[list[str], list[str]]:
    """Each i < 1000 as a whole number and as the last three digits of a
    larger one: built at the first segment of ranges in a process.  From 100
    on the two are the same str, which both tables hold."""
    padded = ["%03d" % i for i in range(1000)]
    return [*map(str, range(100)), *padded[100:]], padded


def column_ranges(s: MonomialStaircase) -> Iterator[tuple[Sequence[int], Sequence[int]]]:
    """The generators' (x, height) columns as segments of render_ranges:
    x^alpha's height 0, then the runs read backward from the last one, each
    reversed, through `_stretches`: the columns from alpha down to 0, the
    documents' generator order."""
    x = s.alpha + 1
    backward = map(getitem, reversed(s.runs), repeat(slice(None, None, -1)))  # each run reversed
    for heights in _stretches(chain([range(1)], backward), CHUNK // 2):
        yield range(x - 1, x - 1 - len(heights), -1), heights
        x -= len(heights)


def _window(segments, start: int, stop: int) -> Iterator[tuple[range, ...]]:
    """Columns start..stop - 1, counted from the first, of segments of
    equal-length ranges or tuples; a segment wholly inside comes as it is."""
    for segment in segments:
        n = len(segment[0])
        if start <= 0 and stop >= n:
            yield segment
        elif max(start, 0) < min(stop, n):
            yield tuple(r[max(start, 0):stop] for r in segment)
        start, stop = start - n, stop - n


def generator_line(s: MonomialStaircase) -> Iterator[str]:
    """The generators, descending in x, as pieces of the `gin` text line:
    "x^%dy^%d" runs for the columns 2 <= x < alpha of height >= 2, between
    the monomials at the ends, rendered only as they are read.  Heights fall
    strictly to >= 1, so only column alpha - 1 can have height 1."""
    a = s.alpha
    edge = 2 if a > 2 and s.runs[-1][-1] == 1 else 1
    yield " ".join([_monomial(x, y) for x, y in zip(range(a, a - edge, -1), (0, 1))])
    stop = max(a - 1, edge)  # columns edge..stop - 1 from x^alpha: x = alpha - edge down to 2
    yield from render_ranges(_window(column_ranges(s), edge, stop), "x^%dy^%d", " ", " ")
    low = enumerate(islice(chain.from_iterable(s.runs), min(a, 2)))  # columns 0 and 1
    yield "".join([" " + _monomial(x, y) for x, y in reversed([*low])])


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
        "lambdas": _IntRuns(zip(_stretches(s.runs, CHUNK)), 1, "%d", render_ranges),
        "generators": _IntRuns(column_ranges(s), 2, "%d", render_ranges),
        "colength": colength(s),
        "conjectural": s.config.conjectural,
    }


def gin_pieces(s: MonomialStaircase, fmt: str) -> Iterable[str]:
    """The `gin` document in fmt ("json" or "text"); the text generators come
    as `generator_line` renders them."""
    if fmt == "json":
        return json_pieces(staircase_payload(s))
    head = (f"{head_line(s.config, s.m)}\n"
            f"alpha={s.alpha} zeta={s.zeta} colength={colength(s)}\ngenerators: ")
    return chain([head], generator_line(s))


def shape_json(report: ShapeReport) -> str:
    return "".join(json_pieces(shape_payload(report)))


def shape_payload(report: ShapeReport) -> dict:
    """The JSON payload of a shape report, the corner arrays still unrendered."""
    return {
        "config": str(report.config),
        "predicted_intercepts": (None if report.predicted is None
                                 else list(map(intercept_str, report.predicted))),
        "seshadri_estimate": intercept_str(report.seshadri_estimate),
        "conjectural": report.config.conjectural,
        "entries": [
            {
                "m": m, "alpha": alpha, "zeta": zeta, "colength": length,
                "x_intercept": x, "y_intercept": y,
                "colength_over_m2": rational_str(length, m * m),
                # generator exponents over m, ascending in x: (0, zeta/m) .. (alpha/m, 0)
                "corners": _IntRuns(corner_runs(e), 2, '"%d/%d"', render_runs),
            }
            for e, (m, alpha, zeta, x, y, length) in zip(report.entries, _shape_rows(report))
        ],
    }


def shape_pieces(report: ShapeReport, fmt: str) -> Iterable[str]:
    """The `shape` document in fmt ("text", "csv", "json" or "svg")."""
    if fmt == "csv":
        return (shape_csv(report),)
    if fmt == "svg":
        return svg_pieces(report)
    if fmt == "json":
        return json_pieces(shape_payload(report))
    predicted = ("none (non-linear limit)" if report.predicted is None
                 else ", ".join(map(intercept_str, report.predicted)))
    return ("\n".join([f"# {report.config} ({report.config.provenance})",
                       f"predicted intercepts: {predicted}",
                       *("m=%d  alpha=%d  zeta=%d  x=%s  y=%s  colength=%d" % row
                         for row in _shape_rows(report)),
                       f"seshadri estimate: {intercept_str(report.seshadri_estimate)}"]),)


def shape_csv(report: ShapeReport) -> str:
    return "\n".join(["m,alpha,zeta,x_intercept,y_intercept,colength",
                      *("%d,%d,%d,%s,%s,%d" % row for row in _shape_rows(report))]) + "\n"


def _shape_rows(report: ShapeReport) -> list[tuple[int, int, int, str, str, int]]:
    """(m, alpha, zeta, x = alpha/m, y = zeta/m, colength) for each staircase,
    the row of every `shape` document."""
    return [(e.m, e.alpha, e.zeta, rational_str(e.alpha, e.m), rational_str(e.zeta, e.m),
             colength(e)) for e in report.entries]


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


def hilbert_pieces(config, m, pairs: Iterable[tuple[int, int]], fmt: str) -> Iterator[str]:
    """The `hilbert` document in fmt ("text", "csv" or "json"): one run of the
    (t, H) ints, cut into CHUNK-int runs, as "t=%d  H=%d" or "%d,%d" rows under
    the head line, or as JSON's `values`.  CSV reads neither config nor m."""
    runs = _batches(chain.from_iterable(pairs), CHUNK)
    if fmt == "json":
        return json_pieces({"config": str(config), "m": m, "conjectural": config.conjectural,
                            "values": _IntRuns(runs, 2, "%d", render_runs)})
    if fmt == "csv":
        return chain(["t,hilbert"], render_runs(runs, "%d,%d", "\n", "\n"))
    return chain([head_line(config, m)], render_runs(runs, "t=%d  H=%d", "\n", "\n"))


def hilbert_csv(rows: list[tuple[int, int]]) -> str:
    return "".join(hilbert_pieces(None, None, rows, "csv")) + "\n"


def verify_pieces(config: PointConfig, report, fmt: str) -> Iterable[str]:
    """The `verify` document in fmt ("text" or "json"), read from a report's
    max_m, checks (each a name, passed, detail record), passed and failures."""
    if fmt == "json":
        return json_pieces({
            "config": str(config), "max_m": report.max_m, "passed": report.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in report.checks],
        })
    return ("\n".join([f"# verify {config} --max-m {report.max_m}",
                       *(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}"
                         for c in report.checks),
                       "all checks passed" if report.passed
                       else f"{len(report.failures)} check(s) failed"]),)


def classes_pieces(config: PointConfig, classes, fmt: str) -> Iterable[str]:
    """The `classes` document in fmt ("text" or "json"): each class with its
    self-intersection C.C and its pairing C.K with the canonical class."""
    k = canonical_class(config.r)
    rows = [(c, intersect(c, c), intersect(c, k)) for c in classes]
    if fmt == "json":
        return json_pieces({
            "config": str(config), "provenance": config.provenance, "count": len(rows),
            "classes": [{"d": c.d, "mults": c.mults, "self_intersection": cc, "canonical_pairing": ck}
                        for c, cc, ck in rows],
        })
    return ("\n".join([f"# {config} ({config.provenance}): {len(rows)} negative curve classes",
                       *(f"{c}  C.C={cc}  C.K={ck}" for c, cc, ck in rows)]),)
